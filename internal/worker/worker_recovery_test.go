package worker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// newDurableWorker builds a worker whose raft logs live on disk, so a
// crashed instance can be rebuilt from the same DataDir.
func newDurableWorker(t *testing.T, replicas int, dataDir string, store oss.Store, catalog *meta.Manager, archiveEvery time.Duration) *Worker {
	t.Helper()
	w, err := New(Config{
		ID:              1,
		Replicas:        replicas,
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
	w := newDurableWorker(t, 3, dir, store, catalog, 30*time.Millisecond)
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
	w2 := newDurableWorker(t, 3, dir, store, catalog, time.Hour)
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
		ID: 1, Replicas: 3, ArchiveInterval: time.Hour,
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
	w, _, _ := newWorker(t, 3)
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

// TestWorkerLeaderKillFailover: killing a shard's raft leader mid-load
// must not lose appends, at any replica count. An append enqueued while
// the leader is dead rides across the election — or, in a one-node
// group, waits for the restart — and lands exactly once; the killed
// replica restarts in place on its log and rejoins.
func TestWorkerLeaderKillFailover(t *testing.T) {
	for _, replicas := range []int{3, 1} {
		t.Run(fmt.Sprintf("Replicas=%d", replicas), func(t *testing.T) {
			w := newDurableWorker(t, replicas, t.TempDir(), oss.NewMemStore(), meta.NewManager(), time.Hour)
			t.Cleanup(w.Close)
			if err := w.AddShard(0); err != nil {
				t.Fatal(err)
			}
			gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 13, StartMS: 0})
			var want int64
			for round := 0; round < 2; round++ {
				if err := w.Append(0, gen.Batch(40)); err != nil {
					t.Fatal(err)
				}
				want += 40
				var killed bool
				deadline := time.Now().Add(5 * time.Second)
				for time.Now().Before(deadline) {
					if id, err := w.KillShardLeader(0); err == nil {
						killed = true
						p := w.EnqueueAppend(context.Background(), 0, [][]schema.Row{gen.Batch(40)})
						waited := make(chan error, 1)
						go func() { waited <- p.Wait() }()
						wait := func() {
							if err := <-waited; err != nil {
								t.Fatalf("append across the leader kill: %v", err)
							}
						}
						if replicas > 1 {
							wait() // commits on the surviving quorum, the killed replica still down
						}
						if err := w.RestartShardReplica(0, id); err != nil {
							t.Fatalf("restart replica %d: %v", id, err)
						}
						if replicas == 1 {
							wait() // a one-node group takes it once its replica is back
						}
						want += 40
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if !killed {
					t.Fatal("no leader ever emerged to kill")
				}
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
			deadline := time.Now().Add(5 * time.Second)
			for count() != want && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // a late re-apply would double rows
			if got := count(); got != want {
				t.Fatalf("after 2 leader kills: %d rows visible, want %d", got, want)
			}
		})
	}
}
