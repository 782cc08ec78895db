package worker

import (
	"sync"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/schema"
	"logstore/internal/ship"
	"logstore/internal/workload"
)

// newShippingWorker builds a worker with a durable log whose shard 0
// ships to an in-memory object store, rolling its generation after
// every rollChunks chunks.
func newShippingWorker(t *testing.T, rollChunks int) (*Worker, *Shard) {
	t.Helper()
	shipStore := oss.WithDefaultRetry(oss.NewMemStore())
	w, err := New(Config{
		ID: 1, ArchiveInterval: time.Hour,
		DataDir: t.TempDir(),
		WALShip: &ship.Options{Store: shipStore, Registry: ship.NewRegistry(shipStore),
			Linger: time.Millisecond, RollChunks: rollChunks},
		Builder: builder.Config{Table: "request_log"},
	}, schema.RequestLogSchema(), oss.NewMemStore(), meta.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	sh, err := w.shard(0)
	if err != nil {
		t.Fatal(err)
	}
	return w, sh
}

// checkSnapshot fails unless st is cut at its applied mark: its live
// entries run contiguously from Applied+1.
func checkSnapshot(t *testing.T, st ship.State) {
	t.Helper()
	for i, e := range st.Entries {
		if e.Index != st.Applied+1+uint64(i) {
			t.Errorf("snapshot with Applied %d holds entry %d at position %d", st.Applied, e.Index, i)
			return
		}
	}
}

// TestSnapshotCutAtArchiveMark: a generation snapshot carries nothing
// the archive already holds. After each FlushShard its Applied is the
// shard's applied mark, it holds no entry at or below it, and the
// archived batches travel as dedup ids instead.
func TestSnapshotCutAtArchiveMark(t *testing.T) {
	w, sh := newShippingWorker(t, 0)
	src := w.shipSource(sh)
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Seed: 3, StartMS: 1000})
	for round := 1; round <= 5; round++ {
		for i := 0; i < 20; i++ {
			if err := w.Append(0, gen.Batch(5)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.FlushShard(0); err != nil {
			t.Fatal(err)
		}
		st, err := src()
		if err != nil {
			t.Fatal(err)
		}
		if mark := sh.applied.Load(); st.Applied != mark || mark == 0 {
			t.Fatalf("round %d: snapshot Applied %d, shard applied mark %d", round, st.Applied, mark)
		}
		if len(st.Entries) != 0 {
			t.Fatalf("round %d: snapshot carries %d entries (first %d) at or below its mark %d",
				round, len(st.Entries), st.Entries[0].Index, st.Applied)
		}
		if got := len(st.DedupIDs); got != 20*round {
			t.Fatalf("round %d: snapshot carries %d dedup ids, want %d", round, got, 20*round)
		}
	}
}

// TestSnapshotsUnderConcurrentDrains runs appends, drains and
// generation rolls at once (run it with -race): every snapshot the
// shard's source hands out, whether to a roll of the shipper or to a
// direct read, starts at Applied+1 and runs without a hole.
func TestSnapshotsUnderConcurrentDrains(t *testing.T) {
	w, sh := newShippingWorker(t, 1)
	src := w.shipSource(sh)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 2, Seed: 9, StartMS: 1000})
		for i := 0; i < 60; i++ {
			if err := w.Append(0, gen.Batch(4)); err != nil {
				t.Error(err)
				break
			}
			if i%3 == 2 {
				if err := w.FlushShard(0); err != nil {
					t.Error(err)
					break
				}
			}
		}
		close(stop)
	}()
	snapshots := 0
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, err := src()
			if err != nil {
				t.Error(err)
				return
			}
			checkSnapshot(t, st)
			snapshots++
		}
	}()
	wg.Wait()
	if snapshots == 0 {
		t.Fatal("no snapshot was read while the drains ran")
	}
	if st := w.ShipStats(); st.Rolls < 2 {
		t.Fatalf("the shipper rolled %d generations, want a roll after the first: %+v", st.Rolls, st)
	}
	// The registered generation hydrates: its chunks continue its
	// snapshot's tip.
	opts := w.cfg.WALShip
	if _, ok, _, err := ship.Hydrate(opts.Store, opts.Registry, 0); err != nil || !ok {
		t.Fatalf("hydrate: ok %v, %v", ok, err)
	}
}
