package worker

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/raft"
	"logstore/internal/schema"
	"logstore/internal/ship"
	"logstore/internal/wal"
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

// snapshotLog reads a snapshot's WAL frames: the mark and id count of
// its checkpoint record, which comes first, and the entries after it.
func snapshotLog(t *testing.T, snap []byte) (mark uint64, ids int, entries []raft.Entry) {
	t.Helper()
	for first := true; len(snap) > 0; first = false {
		if len(snap) < 8 {
			t.Fatalf("torn frame header: %x", snap)
		}
		n := int(binary.LittleEndian.Uint32(snap))
		if len(snap) < 8+n || n == 0 {
			t.Fatalf("frame of %d bytes in %d", n, len(snap)-8)
		}
		rec := snap[8 : 8+n]
		snap = snap[8+n:]
		if first {
			var k, c int
			mark, k = binary.Uvarint(rec[1:])
			count, c := binary.Uvarint(rec[2+k:]) // past the term field, 0
			if rec[0] != 'A' || k <= 0 || c <= 0 || len(rec) != 2+k+c+8*int(count) {
				t.Fatalf("snapshot opens with %x, want a checkpoint record carrying ids", rec)
			}
			ids = int(count)
			continue
		}
		e, _, err := raft.DecodeEntry(rec[1:])
		if rec[0] != 'E' || err != nil {
			t.Fatalf("snapshot record %x is no entry: %v", rec, err)
		}
		entries = append(entries, e)
	}
	return mark, ids, entries
}

// checkSnapshot fails unless snap is cut at its mark: its entries run
// contiguously from mark+1.
func checkSnapshot(t *testing.T, snap []byte) {
	t.Helper()
	mark, _, entries := snapshotLog(t, snap)
	for i, e := range entries {
		if e.Index != mark+1+uint64(i) {
			t.Errorf("snapshot with mark %d holds entry %d at position %d", mark, e.Index, i)
			return
		}
	}
}

// TestSnapshotCutAtArchiveMark: a generation snapshot carries nothing
// the archive already holds. After each FlushShard its mark is the
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
		snap, base, tip, err := src()
		if err != nil {
			t.Fatal(err)
		}
		mark, ids, entries := snapshotLog(t, snap)
		if applied := sh.applied.Load(); mark != applied || base != applied || tip != applied || applied == 0 {
			t.Fatalf("round %d: snapshot mark %d (base %d, tip %d), shard applied mark %d", round, mark, base, tip, applied)
		}
		if len(entries) != 0 {
			t.Fatalf("round %d: snapshot carries %d entries (first %d) at or below its mark %d",
				round, len(entries), entries[0].Index, mark)
		}
		if ids != 20*round {
			t.Fatalf("round %d: snapshot carries %d dedup ids, want %d", round, ids, 20*round)
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
			snap, _, _, err := src()
			if err != nil {
				t.Error(err)
				return
			}
			checkSnapshot(t, snap)
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
	if _, ok, _, err := ship.Hydrate(opts.Store, opts.Registry, 0, t.TempDir()); err != nil || !ok {
		t.Fatalf("hydrate: ok %v, %v", ok, err)
	}
}

// TestArchivedBatchSuppressedAfterUnlink: a batch whose WAL segment a
// checkpoint unlinked is still a duplicate after either recovery of its
// shard — a restart on the DataDir, then a hydration after the
// directory is wiped and a first hydration crashed. Its id rode in the checkpoint record that
// unlinked the segment, the record a shipped snapshot opens with, and
// both recoveries preload it the same way.
func TestArchivedBatchSuppressedAfterUnlink(t *testing.T) {
	defer func(o wal.Options) { walOptions = o }(walOptions)
	walOptions.SegmentBytes = 1 // one record per segment
	dir := t.TempDir()
	shipStore := oss.WithDefaultRetry(oss.NewMemStore())
	reg := ship.NewRegistry(shipStore)
	blocks, catalog := oss.NewMemStore(), meta.NewManager()
	open := func() *Worker {
		t.Helper()
		w, err := New(Config{
			ID: 1, ArchiveInterval: time.Hour, DataDir: dir,
			WALShip: &ship.Options{Store: shipStore, Registry: reg, Linger: time.Millisecond, RollChunks: 1},
			Builder: builder.Config{Table: "request_log"},
		}, schema.RequestLogSchema(), blocks, catalog)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		if err := w.AddShard(0); err != nil {
			t.Fatal(err)
		}
		return w
	}
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Seed: 11, StartMS: 1000})
	batch := gen.Batch(10)
	w := open()
	for _, b := range [][]schema.Row{batch, gen.Batch(10)} {
		if err := w.Append(0, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.FlushShard(0); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(w.walDir(0), "wal-0000000000000001.log")
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Fatalf("the batch's segment survived the checkpoint: %v", err)
	}
	w.Close()

	resend := func(w *Worker, recovery string) {
		t.Helper()
		if err := w.Append(0, batch); err != nil {
			t.Fatal(err)
		}
		if st := w.ApplyStats(); st.AppliedRows != 0 || st.DedupSkips != 1 || st.Lost() {
			t.Fatalf("after a %s, the archived batch's resend: %+v, want 0 rows and 1 dedup skip", recovery, st)
		}
	}
	w = open()
	resend(w, "restart")
	if err := w.FlushShard(0); err != nil { // the resend's entry is archived too
		t.Fatal(err)
	}
	w.Close()

	// The wipe, then a hydration that crashed before it renamed its
	// segment into place: its temporary file is no log, so the next
	// open hydrates again instead of opening the shard empty.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	walDir := w.walDir(0)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(walDir, "wal-0000000000000001.log.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	w = open()
	if w.Hydrations() != 1 {
		t.Fatalf("%d shards hydrated after the wipe, want 1", w.Hydrations())
	}
	resend(w, "hydration")
}
