package worker

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/ship"
	"logstore/internal/workload"
)

// newDurableWorker builds a worker whose raft logs live on disk, so a
// crashed instance can be rebuilt from the same DataDir.
func newDurableWorker(t *testing.T, dataDir string, store oss.Store, catalog *meta.Manager, archiveEvery time.Duration) *Worker {
	t.Helper()
	w, err := New(Config{
		ID:              1,
		ArchiveInterval: archiveEvery,
		RaftTick:        2 * time.Millisecond,
		DataDir:         dataDir,
		Builder:         builder.Config{Table: "request_log"},
	}, schema.RequestLogSchema(), store, catalog)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// countTenant returns tenant's row count across the worker's realtime
// store and the archived LogBlocks.
func countTenant(t *testing.T, w *Worker, catalog *meta.Manager, tenant int64) int64 {
	t.Helper()
	q, err := query.Parse(fmt.Sprintf(
		"SELECT COUNT(*) FROM request_log WHERE tenant_id = %d AND ts >= 0", tenant))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.QueryRealtimeCtx(context.Background(), 0, q)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Count
	for _, b := range catalog.Blocks(tenant) {
		total += b.Rows
	}
	return total
}

// TestCrashRecoveryInvariant is the crash-consistency contract: kill a
// worker without flushing (as SIGKILL would), rebuild it from its raft
// WALs and the OSS catalog, and every acked row must be queryable
// exactly once — resident rows recovered by WAL replay plus archived
// rows together equal the appended total, with no duplicates from
// entries that were both archived and still in the log.
func TestCrashRecoveryInvariant(t *testing.T) {
	dir := t.TempDir()
	store := oss.NewMemStore()
	catalog := meta.NewManager()

	// Fast archive cadence so the crash lands with rows split between
	// OSS and the in-memory store.
	w := newDurableWorker(t, dir, store, catalog, 30*time.Millisecond)
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 2, Theta: 0, Seed: 11, StartMS: 1000})
	const batches, perBatch = 10, 100
	appended := make(map[int64]int64)
	var firstBatch []schema.Row
	for i := 0; i < batches; i++ {
		rows := gen.Batch(perBatch)
		if i == 0 {
			firstBatch = rows
		}
		if err := w.Append(0, rows); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		tenantIdx := w.sch.TenantIdx()
		for _, r := range rows {
			appended[r[tenantIdx].I]++
		}
		time.Sleep(10 * time.Millisecond) // let drains interleave
	}

	// SIGKILL-style stop: no final drain, resident rows abandoned.
	w.Crash()
	if w.Alive() {
		t.Fatal("crashed worker reports alive")
	}
	if err := w.Append(0, gen.Batch(1)); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("append after crash = %v, want ErrWorkerDown", err)
	}

	// Recover: same DataDir, same OSS/catalog, frozen archive loop so
	// counting is stable.
	w2 := newDurableWorker(t, dir, store, catalog, time.Hour)
	t.Cleanup(w2.Close)
	if err := w2.AddShard(0); err != nil {
		t.Fatal(err)
	}
	var total, want int64
	for _, n := range appended {
		want += n
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		total = 0
		for tenant := range appended {
			total += countTenant(t, w2, catalog, tenant)
		}
		if total == want {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if total != want {
		t.Fatalf("recovered %d rows, appended %d (lost %d acked rows or duplicated %d)",
			total, want, want-total, total-want)
	}
	for tenant, n := range appended {
		if got := countTenant(t, w2, catalog, tenant); got != n {
			t.Errorf("tenant %d: recovered %d rows, appended %d", tenant, got, n)
		}
	}

	// A client retry of a pre-crash batch must still be suppressed: its
	// batch id was preloaded from the replayed WAL.
	if err := w2.Append(0, firstBatch); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // would-be duplicate apply window
	total = 0
	for tenant := range appended {
		total += countTenant(t, w2, catalog, tenant)
	}
	if total != want {
		t.Fatalf("retried pre-crash batch changed total: %d -> %d", want, total)
	}
}

// TestRetriedBatchAppliesOnce: the same batch proposed twice (a retry
// after an ambiguous ack) commits at two raft indexes but applies once.
func TestRetriedBatchAppliesOnce(t *testing.T) {
	store := oss.NewMemStore()
	catalog := meta.NewManager()
	w, err := New(Config{
		ID: 1, ArchiveInterval: time.Hour,
		RaftTick: 2 * time.Millisecond,
		Builder:  builder.Config{Table: "request_log"},
	}, schema.RequestLogSchema(), store, catalog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 12, StartMS: 0})
	rows := gen.Batch(50)
	for i := 0; i < 3; i++ { // original + two retries
		if err := w.Append(0, rows); err != nil {
			t.Fatal(err)
		}
	}
	q, err := query.Parse("SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var count int64
	for time.Now().Before(deadline) {
		res, err := w.QueryRealtimeCtx(context.Background(), 0, q)
		if err != nil {
			t.Fatal(err)
		}
		count = res.Count
		if count >= 50 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Give any duplicate apply a window to land, then check exact-once.
	time.Sleep(100 * time.Millisecond)
	res, err := w.QueryRealtimeCtx(context.Background(), 0, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 50 {
		t.Fatalf("3 proposals of one batch applied %d rows, want 50", res.Count)
	}
}

// TestCloseIdempotent: Close and Crash may race from any number of
// goroutines and later repeats; only the first stop runs and none hang.
func TestCloseIdempotent(t *testing.T) {
	w, _, _ := newWorker(t)
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				w.Close()
			} else {
				w.Crash()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Close/Crash deadlocked")
	}
	w.Close() // repeat after the fact: still a no-op
	if w.Alive() {
		t.Error("closed worker reports alive")
	}
	if err := w.Append(0, nil); !errors.Is(err, ErrWorkerDown) {
		t.Errorf("append after close = %v, want ErrWorkerDown", err)
	}
	if _, err := w.QueryBlocksCtx(context.Background(), nil, nil, query.ExecOptions{}); !errors.Is(err, ErrWorkerDown) {
		t.Errorf("query after close = %v, want ErrWorkerDown", err)
	}
}

// TestWorkerLeaderKillFailover: a shard's one node dies with its worker
// between appends, and an append sent to the dead worker is refused and
// retried on the rebuilt one. Nothing acked is lost and the retry lands
// exactly once. The subtest names are kept from when a shard ran one or
// three raft replicas in its worker: "Replicas=1" restarts the node on
// its own WAL under DataDir, and "Replicas=3" ships the log to object
// storage, wipes the DataDir at each crash and restarts the node from
// the shipped copy, which took the other replicas' place.
func TestWorkerLeaderKillFailover(t *testing.T) {
	for _, tc := range []struct {
		name string
		ship bool
	}{{"Replicas=3", true}, {"Replicas=1", false}} {
		t.Run(tc.name, func(t *testing.T) {
			dir, store, catalog := t.TempDir(), oss.NewMemStore(), meta.NewManager()
			var walShip *ship.Options
			if tc.ship {
				shipStore := oss.WithDefaultRetry(oss.NewMemStore())
				walShip = &ship.Options{Store: shipStore, Registry: ship.NewRegistry(shipStore), Sync: true}
			}
			open := func() *Worker {
				w, err := New(Config{
					ID: 1, ArchiveInterval: time.Hour, RaftTick: 2 * time.Millisecond,
					DataDir: dir, WALShip: walShip,
					Builder: builder.Config{Table: "request_log"},
				}, schema.RequestLogSchema(), store, catalog)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.Close)
				if err := w.AddShard(0); err != nil {
					t.Fatal(err)
				}
				return w
			}
			w := open()
			sch := schema.RequestLogSchema()
			gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 13, StartMS: 0})
			var want int64
			for round := 0; round < 2; round++ {
				if err := w.Append(0, gen.Batch(40)); err != nil {
					t.Fatal(err)
				}
				want += 40
				w.Crash()
				if tc.ship {
					if err := os.RemoveAll(dir); err != nil {
						t.Fatal(err)
					}
				}
				unit := splitByTenant(sch, gen.Batch(40))
				if err := w.EnqueueAppend(context.Background(), 0, unit).Wait(); !errors.Is(err, ErrWorkerDown) {
					t.Fatalf("round %d: append to the crashed worker: err = %v, want ErrWorkerDown", round, err)
				}
				w = open()
				if err := w.EnqueueAppend(context.Background(), 0, unit).Wait(); err != nil {
					t.Fatalf("round %d: retry on the rebuilt worker: %v", round, err)
				}
				want += 40
			}
			q, err := query.Parse("SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0")
			if err != nil {
				t.Fatal(err)
			}
			count := func() int64 {
				res, err := w.QueryRealtimeCtx(context.Background(), 0, q)
				if err != nil {
					t.Fatal(err)
				}
				return res.Count
			}
			time.Sleep(20 * time.Millisecond) // a late re-apply would double rows
			if got := count(); got != want {
				t.Fatalf("after 2 crashes: %d rows visible, want %d", got, want)
			}
			if skips := w.ApplyStats().DedupSkips; skips != 0 {
				t.Fatalf("%d dedup skips: a unit refused by the crashed worker reached its log", skips)
			}
		})
	}
}

// TestAppendBeforeElection: a shard's node leads from AddShard on, so
// units enqueued right after it, with the first raft tick a second
// away, are proposed at once and ack without waiting for a tick, and
// every such unit lands exactly once.
func TestAppendBeforeElection(t *testing.T) {
	w, err := New(Config{
		ID: 1, ArchiveInterval: time.Hour,
		RaftTick: time.Second, // the first tick is far off
		Builder:  builder.Config{Table: "request_log"},
	}, schema.RequestLogSchema(), oss.NewMemStore(), meta.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 13, StartMS: 0})
	start := time.Now()
	var early []PendingAppend
	for i := 0; i < 3; i++ {
		early = append(early, w.EnqueueAppend(context.Background(), 0, [][]schema.Row{gen.Batch(40)}))
	}
	for i, p := range early {
		if err := p.Wait(); err != nil {
			t.Fatalf("unit %d enqueued right after AddShard: %v", i, err)
		}
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("the units enqueued right after AddShard acked after %v, not before the first tick", took)
	}
	if err := w.Append(0, gen.Batch(40)); err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse("SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.QueryRealtimeCtx(context.Background(), 0, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4*40 {
		t.Fatalf("%d rows visible after 4 acked units of 40, want %d", res.Count, 4*40)
	}
	if groups, _ := w.CoalesceStats(); groups != 4 {
		t.Fatalf("%d proposals counted for 4 units", groups)
	}
}

// holdWALStore holds every PUT under wal/ — the shipped raft log — until
// release is closed.
type holdWALStore struct {
	oss.Store
	release chan struct{}
	held    atomic.Int64
}

func (s *holdWALStore) Put(key string, data []byte) error {
	if strings.HasPrefix(key, "wal/") {
		s.held.Add(1)
		<-s.release
	}
	return s.Store.Put(key, data)
}

// TestDrainWaitsForShipper: a LogBlock holds only rows whose raft
// entries (and so batch ids) are already in the shipped log. Otherwise
// a disk wipe in between hydrates a log without them, and a client's
// retry of an archived batch applies a second time. While the shard's
// wal/ uploads are held, FlushShard registers no LogBlock; once they
// are released it archives every row.
func TestDrainWaitsForShipper(t *testing.T) {
	blocks := oss.NewMemStore()
	held := &holdWALStore{Store: oss.NewMemStore(), release: make(chan struct{})}
	shipStore := oss.WithDefaultRetry(held)
	catalog := meta.NewManager()
	w, err := New(Config{
		ID: 1, ArchiveInterval: time.Hour, RaftTick: 2 * time.Millisecond,
		DataDir: t.TempDir(),
		WALShip: &ship.Options{Store: shipStore, Registry: ship.NewRegistry(shipStore)},
		Builder: builder.Config{Table: "request_log"},
	}, schema.RequestLogSchema(), blocks, catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer func() {
		select {
		case <-held.release:
		default:
			close(held.release)
		}
	}()
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 17, StartMS: 1000})
	if err := w.Append(0, gen.Batch(100)); err != nil {
		t.Fatal(err) // asynchronous shipping: the ack does not wait for OSS
	}

	flushed := make(chan error, 1)
	go func() { flushed <- w.FlushShard(0) }()
	select {
	case err := <-flushed:
		t.Fatalf("FlushShard returned %v while the shipped log was held", err)
	case <-time.After(300 * time.Millisecond):
	}
	if n := len(catalog.Blocks(0)); n != 0 {
		t.Fatalf("%d LogBlocks registered while their entries were unshipped", n)
	}
	if held.held.Load() == 0 {
		t.Fatal("no wal/ upload was attempted")
	}

	close(held.release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	var archived int64
	for _, b := range catalog.Blocks(0) {
		archived += b.Rows
	}
	if archived != 100 || w.ResidentRows() != 0 {
		t.Fatalf("after the release: %d rows archived, %d resident; want 100 and 0", archived, w.ResidentRows())
	}
}
