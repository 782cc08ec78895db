package builder_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/retry"
	"logstore/internal/rowstore"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

var errInjected = errors.New("injected put failure")

// windowStore wraps a store for commit-window tests: every Head and Put
// takes delay, Put number failAt (counting from 1; 0 = none) fails for
// good, and it records the most Puts in flight at once and every key
// deleted.
type windowStore struct {
	oss.Store
	delay time.Duration

	mu          sync.Mutex
	failAt      int
	puts        int
	inFlight    int
	maxInFlight int
	deleted     []string
}

func (s *windowStore) Head(key string) (oss.ObjectInfo, error) {
	time.Sleep(s.delay)
	return s.Store.Head(key)
}

func (s *windowStore) Put(key string, data []byte) error {
	s.mu.Lock()
	s.puts++
	if s.puts == s.failAt {
		s.mu.Unlock()
		return retry.MarkPermanent(errInjected)
	}
	s.inFlight++
	s.maxInFlight = max(s.maxInFlight, s.inFlight)
	s.mu.Unlock()
	time.Sleep(s.delay)
	err := s.Store.Put(key, data)
	s.mu.Lock()
	s.inFlight--
	s.mu.Unlock()
	return err
}

func (s *windowStore) Delete(key string) error {
	s.mu.Lock()
	s.deleted = append(s.deleted, key)
	s.mu.Unlock()
	return s.Store.Delete(key)
}

// oneBlockPerTenant returns n rows spread evenly over tenants 0..tenants-1,
// so a drain cuts exactly one LogBlock per tenant.
func oneBlockPerTenant(n, tenants int) []schema.Row {
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: tenants, Theta: 0, Seed: 35, StartMS: 1000})
	rows := g.Batch(n)
	tIdx := schema.RequestLogSchema().TenantIdx()
	for i, r := range rows {
		r[tIdx] = schema.IntValue(int64(i % tenants))
	}
	return rows
}

// committedBlock is one catalog entry, with its segment named by its
// position among the drained segments (segment ids differ per store).
type committedBlock struct {
	path        string
	bytes, rows int64
	born        int
}

// TestDrainWindowsCommitTheSameBlocks drains the same multi-tenant,
// multi-segment appends at windows 1, 2 and 16 and requires the same
// catalog entries (path, bytes, rows, born segment), the same stored
// objects and the same builder counters. The appends include one
// tenant whose run is two byte-identical chunks in one segment, and the
// same chunks again in a later segment, so the second commit of a key is
// deduplicated and the later segment re-tags the entry.
func TestDrainWindowsCommitTheSameBlocks(t *testing.T) {
	sch := schema.RequestLogSchema()
	generated, _ := genRows(t, 300, 12, 35)
	dup := make([]schema.Row, 16)
	for i := range dup {
		dup[i] = schema.Row{
			schema.IntValue(99), schema.IntValue(5000), schema.StringValue("10.0.0.9"),
			schema.StringValue("/dup"), schema.IntValue(7), schema.StringValue("false"),
			schema.StringValue("the same row"),
		}
	}

	type outcome struct {
		blocks                   []committedBlock
		objects                  map[string]string
		built, archived, skipped int64
	}
	drain := func(window int) (outcome, *windowStore) {
		t.Helper()
		rs, err := rowstore.New(sch, rowstore.Options{MaxSegmentRows: 60})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range [][]schema.Row{dup, generated, dup} {
			if err := rs.Append(batch...); err != nil {
				t.Fatal(err)
			}
		}
		rs.Seal()
		segs := rs.Sealed()
		if len(segs) < 5 {
			t.Fatalf("%d segments, want at least 5", len(segs))
		}
		position := make(map[uint64]int)
		for i, seg := range segs {
			position[seg.ID] = i
		}
		mem := oss.NewMemStore()
		store := &windowStore{Store: mem, delay: time.Millisecond}
		b, catalog := newBuilder(t, builder.Config{MaxRowsPerBlock: 8}, store)
		if _, err := b.DrainSegments(rs, segs, window); err != nil {
			t.Fatal(err)
		}
		if len(rs.Sealed()) != 0 {
			t.Fatalf("window %d left %d segments sealed", window, len(rs.Sealed()))
		}
		var out outcome
		for _, tenant := range catalog.Tenants() {
			for _, blk := range catalog.Blocks(tenant) {
				born, ok := position[blk.BornSegment]
				if !ok {
					t.Fatalf("block %s born from segment %d, not a drained one", blk.Path, blk.BornSegment)
				}
				out.blocks = append(out.blocks, committedBlock{blk.Path, blk.Bytes, blk.Rows, born})
			}
		}
		slices.SortFunc(out.blocks, func(x, y committedBlock) int { return strings.Compare(x.path, y.path) })
		infos, err := mem.List("")
		if err != nil {
			t.Fatal(err)
		}
		out.objects = make(map[string]string, len(infos))
		for _, info := range infos {
			data, err := mem.Get(info.Key)
			if err != nil {
				t.Fatal(err)
			}
			out.objects[info.Key] = string(data)
		}
		out.built, out.archived, out.skipped = b.Stats()
		return out, store
	}

	want, serial := drain(1)
	if serial.maxInFlight != 1 {
		t.Errorf("window 1 had %d Puts in flight at once", serial.maxInFlight)
	}
	if want.skipped == 0 {
		t.Error("no commit was deduplicated; the duplicate chunks are not exercised")
	}
	for _, window := range []int{2, builder.FlushWindow} {
		got, store := drain(window)
		if store.maxInFlight < 2 || store.maxInFlight > window {
			t.Errorf("window %d: %d Puts in flight at most, want 2..%d", window, store.maxInFlight, window)
		}
		if !slices.Equal(got.blocks, want.blocks) {
			t.Errorf("window %d catalog differs:\n got %v\nwant %v", window, got.blocks, want.blocks)
		}
		if len(got.objects) != len(want.objects) {
			t.Errorf("window %d stored %d objects, window 1 stored %d", window, len(got.objects), len(want.objects))
		}
		for key, data := range want.objects {
			if got.objects[key] != data {
				t.Errorf("window %d: object %s differs", window, key)
			}
		}
		if got.built != want.built || got.archived != want.archived || got.skipped != want.skipped {
			t.Errorf("window %d stats (blocks %d, rows %d, skips %d), window 1 (%d, %d, %d)", window,
				got.built, got.archived, got.skipped, want.built, want.archived, want.skipped)
		}
	}
}

// TestFailedPutMidWindow fails one Put in the middle of a drain with
// FlushWindow commits in flight, while orphan sweeps run beside it. The
// drain must stop starting commits and return the error with the
// segment still sealed, every registered key must have its object, no
// sweep may delete a key a commit holds, and a healed re-drain must
// register every row exactly once.
func TestFailedPutMidWindow(t *testing.T) {
	const tenants, failAt = 200, 40
	rows := oneBlockPerTenant(2000, tenants)
	mem := oss.NewMemStore()
	store := &windowStore{Store: mem, delay: time.Millisecond, failAt: failAt}
	b, catalog := newBuilder(t, builder.Config{}, oss.WithRetry(store, fastRetry()))
	rs := newRowStore(t)
	if err := rs.Append(rows...); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.SweepOrphans(); err != nil {
				t.Errorf("sweep: %v", err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	drain := func() (int, error) {
		rs.Seal()
		return b.DrainSegments(rs, rs.Sealed(), builder.FlushWindow)
	}

	n, err := drain()
	if !errors.Is(err, errInjected) {
		t.Fatalf("drain err = %v, want the injected failure", err)
	}
	if len(rs.Sealed()) != 1 {
		t.Fatalf("%d segments sealed after the failed drain, want 1", len(rs.Sealed()))
	}
	store.mu.Lock()
	puts := store.puts
	store.mu.Unlock()
	if puts >= failAt+2*builder.FlushWindow {
		t.Errorf("%d Puts after Put %d failed with a window of %d: commits kept starting", puts, failAt, builder.FlushWindow)
	}
	registered := 0
	for _, tenant := range catalog.Tenants() {
		registered += len(catalog.Blocks(tenant))
	}
	if registered != n || n == 0 || n >= tenants {
		t.Errorf("failed drain committed %d blocks and the catalog holds %d, want the same number in 1..%d", n, registered, tenants-1)
	}

	store.mu.Lock()
	store.failAt = 0 // heal
	store.mu.Unlock()
	if _, err := drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	sweeps.Wait()
	if len(rs.Sealed()) != 0 {
		t.Error("segment not released after the healed drain")
	}

	var total int64
	for tenant := int64(0); tenant < tenants; tenant++ {
		got := catalogRows(catalog, tenant)
		total += got
		if want := int64(len(rows) / tenants); got != want {
			t.Errorf("tenant %d rows = %d, want %d", tenant, got, want)
		}
		for _, blk := range catalog.Blocks(tenant) {
			if _, err := mem.Head(blk.Path); err != nil {
				t.Errorf("registered block %s has no object: %v", blk.Path, err)
			}
		}
	}
	if total != int64(len(rows)) {
		t.Errorf("archived %d rows, appended %d", total, len(rows))
	}
	for _, key := range store.deleted {
		if _, ok := catalog.Lookup(key); ok {
			t.Errorf("a sweep deleted %s, which a commit registered", key)
		}
	}
}

// BenchmarkFlushSim is a flush against the simulated object store (2 ms
// a request, 20 % jitter): 200 tenants, one LogBlock each, drained with
// a window of 1 (the archive loop) and of FlushWindow (a flush a caller
// waits on). The gap between the two is what overlapping commits buys.
func BenchmarkFlushSim(b *testing.B) {
	sch := schema.RequestLogSchema()
	rows := oneBlockPerTenant(2000, 200)
	for _, window := range []int{1, builder.FlushWindow} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rs, err := rowstore.New(sch, rowstore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := rs.Append(rows...); err != nil {
					b.Fatal(err)
				}
				store := oss.NewSimStore(oss.NewMemStore(), oss.DefaultLatencyModel(), 1)
				bld, err := builder.New(builder.Config{}, sch, store, meta.NewManager())
				if err != nil {
					b.Fatal(err)
				}
				rs.Seal()
				b.StartTimer()
				n, err := bld.DrainSegments(rs, rs.Sealed(), window)
				if err != nil {
					b.Fatal(err)
				}
				if n != 200 {
					b.Fatalf("committed %d LogBlocks, want 200", n)
				}
				b.StopTimer()
				rs.Close()
				b.StartTimer()
			}
		})
	}
}
