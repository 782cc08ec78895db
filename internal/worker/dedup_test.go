package worker

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"logstore/internal/workload"
)

// refDedupSet is the dedup set as a map plus a FIFO slice of ids, kept
// as the reference dedupSet must agree with.
type refDedupSet struct {
	mu    sync.Mutex
	seen  map[uint64]uint64 // id -> raft index of first apply
	order []uint64
	limit int
}

func newRefDedupSet(limit int) *refDedupSet {
	return &refDedupSet{seen: make(map[uint64]uint64), limit: limit}
}

func (d *refDedupSet) Contains(id uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.seen[id]
	return ok
}

func (d *refDedupSet) Add(id, index uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.seen[id]; ok {
		return
	}
	d.seen[id] = index
	d.order = append(d.order, id)
	if len(d.order) > d.limit {
		delete(d.seen, d.order[0])
		d.order = d.order[1:]
	}
}

func (d *refDedupSet) SnapshotBelow(maxIdx uint64) []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, 0, len(d.order))
	for _, id := range d.order {
		if idx := d.seen[id]; idx <= maxIdx {
			out = append(out, id)
		}
	}
	return out
}

// checkTable verifies the table holds exactly the ring's ids and that a
// probe for each reaches it before an empty slot.
func checkTable(t *testing.T, d *dedupSet) {
	t.Helper()
	held := 0
	for _, id := range d.table {
		if id != 0 {
			held++
		}
	}
	if d.zero {
		held++
	}
	if held != d.n {
		t.Fatalf("table holds %d ids, ring %d", held, d.n)
	}
	for _, id := range d.SnapshotBelow(math.MaxUint64) {
		if _, ok := d.find(id); !ok {
			t.Fatalf("ring id %x unreachable in the table", id)
		}
	}
}

// TestDedupSetMatchesReference drives the table set and the map + FIFO
// reference with the same random operations — the apply path's probe
// then insert, preload Adds, lone probes, SnapshotBelow — over small bounds
// where eviction and probe collisions are constant, ids drawn from a
// small pool that includes 0.
func TestDedupSetMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		limit := 1 + r.Intn(40)
		d, ref := newDedupSet(limit), newRefDedupSet(limit)
		pool := make([]uint64, 1+r.Intn(3*limit))
		for i := range pool {
			pool[i] = r.Uint64()
			if r.Intn(4) == 0 {
				pool[i] = uint64(r.Intn(8)) // small ids, 0 among them
			}
		}
		index := uint64(0)
		for op := 0; op < 500; op++ {
			id := pool[r.Intn(len(pool))]
			switch r.Intn(5) {
			case 0, 1: // the apply path
				index++
				slot, ok := d.Probe(id)
				if want := ref.Contains(id); ok != want {
					t.Fatalf("trial %d op %d: Probe(%x) = %v, reference %v", trial, op, id, ok, want)
				}
				if !ok {
					d.Insert(slot, id, index)
					ref.Add(id, index)
				}
			case 2: // a preloaded id
				d.Add(id, 0)
				ref.Add(id, 0)
			case 3:
				if _, got := d.Probe(id); got != ref.Contains(id) {
					t.Fatalf("trial %d op %d: Probe(%x) = %v, reference %v", trial, op, id, got, !got)
				}
			case 4:
				maxIdx := uint64(r.Int63n(int64(index) + 2))
				if got, want := d.SnapshotBelow(maxIdx), ref.SnapshotBelow(maxIdx); !slices.Equal(got, want) {
					t.Fatalf("trial %d op %d: SnapshotBelow(%d) = %x, reference %x", trial, op, maxIdx, got, want)
				}
			}
		}
		checkTable(t, d)
		if got, want := d.SnapshotBelow(math.MaxUint64), ref.SnapshotBelow(math.MaxUint64); !slices.Equal(got, want) {
			t.Fatalf("trial %d: final contents %x, reference %x", trial, got, want)
		}
	}
}

// TestDedupSetAtBound fills a set of the shard's bound three times over:
// it keeps exactly the newest 64k ids, in apply order, and forgets the
// rest, as the reference does.
func TestDedupSetAtBound(t *testing.T) {
	const limit = 1 << 16
	d, ref := newDedupSet(limit), newRefDedupSet(limit)
	r := rand.New(rand.NewSource(34))
	ids := make([]uint64, 3*limit)
	for i := range ids {
		ids[i] = r.Uint64()
		slot, ok := d.Probe(ids[i])
		if ok {
			t.Fatalf("fresh id %x already held", ids[i])
		}
		d.Insert(slot, ids[i], uint64(i+1))
		ref.Add(ids[i], uint64(i+1))
	}
	if got, want := d.SnapshotBelow(math.MaxUint64), ids[2*limit:]; !slices.Equal(got, want) {
		t.Fatalf("set holds %d ids, want the newest %d in apply order", len(got), len(want))
	}
	if got, want := d.SnapshotBelow(uint64(2*limit+100)), ref.SnapshotBelow(uint64(2*limit+100)); !slices.Equal(got, want) {
		t.Fatalf("SnapshotBelow: %d ids, reference %d", len(got), len(want))
	}
	for _, id := range ids[:2*limit] {
		if _, ok := d.Probe(id); ok {
			t.Fatalf("evicted id %x still held", id)
		}
	}
	checkTable(t, d)
}

// TestDedupSnapshotDuringApplies reads a shard's dedup set from another
// goroutine, as a WAL shipper's snapshot does, while concurrent appends
// apply: every read is a prefix of the next (ids stay in apply order and
// none is evicted below the bound), and the last holds every applied
// sub. Run it under -race.
func TestDedupSnapshotDuringApplies(t *testing.T) {
	w := newMemWorker(t, Config{})
	sh, err := w.shard(0)
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches = 4, 25
	done := make(chan struct{})
	var reads sync.WaitGroup
	reads.Add(1)
	go func() {
		defer reads.Done()
		var prev []uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := sh.seen.SnapshotBelow(math.MaxUint64)
			if len(snap) < len(prev) || !slices.Equal(snap[:len(prev)], prev) {
				t.Errorf("snapshot of %d ids does not extend the previous one of %d", len(snap), len(prev))
				return
			}
			prev = snap
		}
	}()
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 3, Seed: int64(wr), StartMS: 1000})
			for i := 0; i < batches; i++ {
				if err := w.Append(0, gen.Batch(8)); err != nil {
					t.Errorf("writer %d batch %d: %v", wr, i, err)
					return
				}
			}
		}(wr)
	}
	wg.Wait()
	waitResident(t, w, writers*batches*8)
	close(done)
	reads.Wait()
	if t.Failed() {
		t.FailNow()
	}
	held := int64(len(sh.seen.SnapshotBelow(math.MaxUint64)))
	if st := w.ApplyStats(); held != sh.subs.Load() || st.DedupSkips != 0 {
		t.Fatalf("dedup set holds %d ids after %d subs applied, %d skipped", held, sh.subs.Load(), st.DedupSkips)
	}
}

// BenchmarkDedupSet is the apply path's dedup work per sub on a shard
// whose set is full: a probe for a fresh id, its insert and the
// eviction it forces. The map + FIFO reference runs the same ids.
func BenchmarkDedupSet(b *testing.B) {
	const limit = 1 << 16
	ids := make([]uint64, 1<<20)
	r := rand.New(rand.NewSource(1))
	for i := range ids {
		ids[i] = r.Uint64()
	}
	b.Run("table", func(b *testing.B) {
		d := newDedupSet(limit)
		for i, id := range ids[:limit] {
			d.Add(id, uint64(i+1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := ids[(limit+i)&(len(ids)-1)]
			if slot, ok := d.Probe(id); !ok {
				d.Insert(slot, id, uint64(i))
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		d := newRefDedupSet(limit)
		for i, id := range ids[:limit] {
			d.Add(id, uint64(i+1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := ids[(limit+i)&(len(ids)-1)]
			if !d.Contains(id) {
				d.Add(id, uint64(i))
			}
		}
	})
}
