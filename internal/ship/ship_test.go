package ship

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"logstore/internal/oss"
	"logstore/internal/raft"
	"logstore/internal/wal"
)

func testEntries(first, last uint64) []raft.Entry {
	var out []raft.Entry
	for i := first; i <= last; i++ {
		out = append(out, raft.Entry{Index: i, Data: []byte(fmt.Sprintf("row-%d", i))})
	}
	return out
}

// fakeSource serves snapshots over whatever log has been fed to it —
// the test's stand-in for the worker's apply-locked cut of its WAL.
type fakeSource struct {
	mu      sync.Mutex
	base    uint64
	ids     []uint64
	entries []raft.Entry
}

func (f *fakeSource) set(base uint64, ids []uint64, entries []raft.Entry) {
	f.mu.Lock()
	f.base, f.ids, f.entries = base, ids, entries
	f.mu.Unlock()
}

func (f *fakeSource) source() ([]byte, uint64, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	tip := f.base
	if n := len(f.entries); n > 0 {
		tip = f.entries[n-1].Index
	}
	return raft.AppendSnapshot(nil, f.base, f.ids, f.entries), f.base, tip, nil
}

// replayed is a log as a raft.WALStorage replays it from dir.
type replayed struct {
	base    uint64
	ids     []uint64
	prefix  []raft.Entry
	entries []raft.Entry
}

// tip is the last index the log covers.
func (r replayed) tip() uint64 {
	if n := len(r.entries); n > 0 {
		return r.entries[n-1].Index
	}
	return r.base
}

func replay(t *testing.T, dir string) replayed {
	t.Helper()
	ws, err := raft.OpenWALStorage(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	var r replayed
	r.base, r.entries = ws.Log()
	r.ids, r.prefix = ws.Archived()
	return r
}

// TestSnapRoundTrip: a snapshot — a checkpoint record carrying the
// dedup ids, then the entries above its mark — hydrates to its mark,
// its ids and its entries. Every truncation of the snapshot object, a
// 0-byte one and those cut on a frame boundary included, and a bit flip
// in it are refused: never hydrated into a shorter log.
func TestSnapRoundTrip(t *testing.T) {
	blob := raft.AppendSnapshot(nil, 3, []uint64{11, 22, 33}, testEntries(4, 9))
	rs := oss.WithDefaultRetry(oss.NewMemStore())
	reg := NewRegistry(rs)
	gen, err := reg.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := putSnapshot(rs, 1, gen, blob, 9); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(1, gen); err != nil {
		t.Fatal(err)
	}
	got, ok, torn, err := hydrate(t, rs, 1)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if got.base != 3 || len(got.ids) != 3 || got.ids[2] != 33 || len(got.entries) != 6 || got.tip() != 9 {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	refused := func(what string, obj []byte) {
		t.Helper()
		if err := rs.Put(snapKey(1, gen), obj); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, _, _, err := Hydrate(rs, NewRegistry(rs), 1, dir); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("%s: hydrate returned %v, want ErrCorruptSnapshot", what, err)
		}
		if empty, err := wal.Empty(dir); err != nil || !empty {
			t.Fatalf("%s: refused hydration left a log in its dir (empty=%v, err=%v)", what, empty, err)
		}
	}
	for cut := 0; cut < len(blob); cut++ {
		refused(fmt.Sprintf("snapshot cut to %d of %d bytes", cut, len(blob)), blob[:cut])
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	refused("corrupt snapshot", flipped)
}

// TestChunkRoundTrip: a chunk — entries, then a mark when the archive
// moved — appended to a snapshot replays as one log: the mark moves the
// base, and the entries at or below it join the archived prefix.
func TestChunkRoundTrip(t *testing.T) {
	blob := raft.AppendSnapshot(nil, 9, []uint64{1}, nil)
	blob = raft.AppendMark(raft.AppendEntries(blob, testEntries(10, 14)), 12)
	dir := t.TempDir()
	if err := wal.WriteSegment(dir, blob); err != nil {
		t.Fatal(err)
	}
	got := replay(t, dir)
	if got.base != 12 || len(got.prefix) != 3 || len(got.entries) != 2 || got.entries[0].Index != 13 {
		t.Fatalf("replayed %+v, want base 12, prefix 10..12, entries 13..14", got)
	}
	if err := wal.WriteSegment(t.TempDir(), []byte("garbage")); err == nil {
		t.Fatal("garbage written as a segment")
	}
}

func TestRegistryRegisterFences(t *testing.T) {
	store := oss.WithDefaultRetry(oss.NewMemStore())
	reg := NewRegistry(store)
	const shard = 5

	g1, err := reg.Acquire(shard)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := reg.Acquire(shard)
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g2 || g1 == 0 || g2 == 0 {
		t.Fatalf("acquire handed out %d and %d", g1, g2)
	}
	// The higher generation registers first (the failover winner);
	// the stale one must be fenced out, and CURRENT must keep naming
	// the winner.
	if err := reg.Register(shard, g2); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(shard, g1); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale register: err = %v, want ErrFenced", err)
	}
	cur, err := reg.CurrentGen(shard)
	if err != nil {
		t.Fatal(err)
	}
	if cur != g2 {
		t.Fatalf("current generation = %d, want %d", cur, g2)
	}

	// A fresh registry over the same store (cluster reopen) must resume
	// above the existing lineage, not restart at 1.
	reg2 := NewRegistry(store)
	g3, err := reg2.Acquire(shard)
	if err != nil {
		t.Fatal(err)
	}
	if g3 <= g2 {
		t.Fatalf("reopened registry acquired %d, want > %d", g3, g2)
	}
}

// hydrate reads shard's shipped log back through a fresh registry, as a
// reopened cluster would, and replays it. The replayed log reaches the
// tip Hydrate reports.
func hydrate(t *testing.T, store oss.Store, shard int64) (replayed, bool, bool, error) {
	t.Helper()
	rs := oss.WithDefaultRetry(store)
	dir := t.TempDir()
	tip, ok, torn, err := Hydrate(rs, NewRegistry(rs), shard, dir)
	if err != nil || !ok {
		return replayed{}, ok, torn, err
	}
	r := replay(t, dir)
	if r.tip() < tip {
		t.Fatalf("hydrated log ends at %d, its chunks at %d", r.tip(), tip)
	}
	return r, ok, torn, nil
}

func newTestShipper(t *testing.T, store oss.Store, shard int64, src *fakeSource) (*Shipper, *Registry) {
	t.Helper()
	rs := oss.WithDefaultRetry(store)
	reg := NewRegistry(rs)
	s := New(Options{Store: rs, Registry: reg, Linger: 5 * time.Millisecond}, shard, 1, src.source)
	t.Cleanup(func() { s.Stop(false) })
	return s, reg
}

func TestShipAndHydrate(t *testing.T) {
	store := oss.NewMemStore()
	src := &fakeSource{}
	s, reg := newTestShipper(t, store, 1, src)

	entries := testEntries(1, 20)
	s.Offer(entries[:12])
	s.Offer(entries[12:])
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}

	st, ok, torn, err := hydrate(t, store, 1)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if len(st.entries) != 20 || st.entries[0].Index != 1 || st.tip() != 20 {
		t.Fatalf("hydrated %d entries, tip %d, want 20/20", len(st.entries), st.tip())
	}

	// The archive mark ships even with no new entries: hydration must
	// learn rows 1..15 are in LogBlocks.
	s.NoteArchived(15)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok, _, err = hydrate(t, store, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ok && st.base == 15 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("archive mark never shipped: base=%d", st.base)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.tip() != 20 || len(st.prefix) != 15 {
		t.Fatalf("tip %d, %d archived entries after a mark-only chunk, want 20 and 15", st.tip(), len(st.prefix))
	}
	_ = reg
}

func TestHydrateUnknownShard(t *testing.T) {
	store := oss.NewMemStore()
	_, ok, torn, err := hydrate(t, store, 42)
	if err != nil || ok || torn {
		t.Fatalf("fresh shard: ok=%v torn=%v err=%v, want false/false/nil", ok, torn, err)
	}
}

// TestShipThroughFlakyStore drives the ship loop through throttling and
// deterministic Put failures: the retry layer must absorb them and the
// barrier must still complete with everything hydratable.
func TestShipThroughFlakyStore(t *testing.T) {
	mem := oss.NewMemStore()
	flaky := oss.NewFlakyStore(mem, 0, 0, 1)
	flaky.FailNextPuts(3) // throttle the snapshot/chunk uploads
	src := &fakeSource{}
	s, _ := newTestShipper(t, flaky, 2, src)

	s.Offer(testEntries(1, 10))
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	if flaky.InjectedFailures() == 0 {
		t.Fatal("flaky store injected nothing; test exercised no fault")
	}
	st, ok, torn, err := hydrate(t, mem, 2)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if st.tip() != 10 {
		t.Fatalf("tip = %d, want 10", st.tip())
	}
}

// TestShipTornPutDetected injects acked-but-truncated Puts (the torn
// write mode): the shipper's read-back/size probes must catch the torn
// object before the commit record, and the eventual shipped state must
// be complete.
func TestShipTornPutDetected(t *testing.T) {
	mem := oss.NewMemStore()
	flaky := oss.NewFlakyStore(mem, 0, 0, 1)
	flaky.PartialNextPuts(2, 0.5) // tear the first two uploads silently
	src := &fakeSource{}
	s, _ := newTestShipper(t, flaky, 3, src)

	s.Offer(testEntries(1, 8))
	// A flush that detects its own torn upload errors the in-flight
	// barriers (clients retry the append); the next pass re-ships.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := s.Barrier()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("barrier never succeeded: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, ok, torn, err := hydrate(t, mem, 3)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if st.tip() != 8 {
		t.Fatalf("tip = %d, want 8", st.tip())
	}
	if s.Stats().Errors == 0 {
		t.Fatal("shipper reported no errors despite torn uploads")
	}
}

// TestHydrateTornChunkFallback simulates an uploader dying mid-chunk:
// the chunk object is shorter than its commit record says. Hydration
// must fall back to the previous sealed chunk rather than fail or
// surface a short log.
func TestHydrateTornChunkFallback(t *testing.T) {
	store := oss.NewMemStore()
	src := &fakeSource{}
	s, _ := newTestShipper(t, store, 4, src)

	s.Offer(testEntries(1, 5))
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	s.Offer(testEntries(6, 9))
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	s.Stop(false)

	// Truncate the last committed chunk in place.
	infos, err := store.List("wal/4/")
	if err != nil {
		t.Fatal(err)
	}
	var lastChunk string
	for _, info := range infos {
		if strings.Contains(info.Key, "/chunk-") && info.Key > lastChunk {
			lastChunk = info.Key
		}
	}
	if lastChunk == "" {
		t.Fatal("no chunk objects shipped")
	}
	data, err := store.Get(lastChunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(lastChunk, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}

	st, ok, torn, err := hydrate(t, store, 4)
	if err != nil || !ok {
		t.Fatalf("hydrate: ok=%v err=%v", ok, err)
	}
	if !torn {
		t.Fatal("truncated chunk not reported as torn")
	}
	// Everything before the torn chunk survives; the torn chunk's range
	// does not (it was never fully acked as shipped by that uploader).
	if st.tip() < 5 || st.tip() >= 9 {
		t.Fatalf("fallback tip = %d, want in [5,9)", st.tip())
	}
	for i, e := range st.entries {
		if e.Index != uint64(i)+1 {
			t.Fatalf("entry %d has index %d; fallback state must stay contiguous", i, e.Index)
		}
	}
}

// TestGenerationHandoff races two shippers for the same shard — the
// recovery-overlap scenario where the old worker's shipper is still
// breathing when the new worker takes over. They must converge on the
// newer generation, the loser must fence itself, and no objects of the
// losing lineage may remain.
func TestGenerationHandoff(t *testing.T) {
	store := oss.NewMemStore()
	rs := oss.WithDefaultRetry(store)
	reg := NewRegistry(rs)
	const shard = int64(6)

	srcA := &fakeSource{}
	a := New(Options{Store: rs, Registry: reg, Linger: 5 * time.Millisecond}, shard, 1, srcA.source)
	defer a.Stop(false)
	a.Offer(testEntries(1, 6))
	if err := a.Barrier(); err != nil {
		t.Fatal(err)
	}
	genA := a.Stats().Gen

	// The new worker hydrated entries 1..6 and boots its own shipper.
	srcB := &fakeSource{}
	srcB.set(0, nil, testEntries(1, 6))
	b := New(Options{Store: rs, Registry: reg, Linger: 5 * time.Millisecond}, shard, 7, srcB.source)
	defer b.Stop(false)
	b.Offer(testEntries(7, 9))
	if err := b.Barrier(); err != nil {
		t.Fatal(err)
	}
	if g := b.Stats().Gen; g <= genA {
		t.Fatalf("new shipper registered gen %d, want > %d", g, genA)
	}

	// The stale shipper tries to keep shipping: it must fence, not
	// interleave its writes into the new lineage.
	a.Offer(testEntries(7, 12))
	if err := a.Barrier(); err == nil {
		t.Fatal("stale shipper's barrier succeeded; want fencing error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !a.Stats().Fenced {
		if time.Now().After(deadline) {
			t.Fatal("stale shipper never fenced itself")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Exactly one generation's objects remain (plus CURRENT), and the
	// surviving lineage hydrates to the new shipper's run.
	st, ok, torn, err := hydrate(t, store, shard)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if st.tip() != 9 {
		t.Fatalf("surviving tip = %d, want 9", st.tip())
	}
	infos, err := store.List(fmt.Sprintf("wal/%d/", shard))
	if err != nil {
		t.Fatal(err)
	}
	winPrefix := GenPrefix(shard, b.Stats().Gen)
	cur := fmt.Sprintf("wal/%d/CURRENT", shard)
	for _, info := range infos {
		if info.Key != cur && !strings.HasPrefix(info.Key, winPrefix) {
			t.Fatalf("orphaned object from losing generation: %s", info.Key)
		}
	}
}

// TestShipperBackpressure: with OSS dark, the async backlog must trip
// Overloaded once MaxBacklog is exceeded, and drain after the store
// heals.
func TestShipperBackpressure(t *testing.T) {
	mem := oss.NewMemStore()
	flaky := oss.NewFlakyStore(mem, 1.0, 0, 1) // every Put fails
	rs := oss.WithDefaultRetry(flaky)
	reg := NewRegistry(rs)
	src := &fakeSource{}
	s := New(Options{
		Store: rs, Registry: reg,
		Linger: 5 * time.Millisecond, MaxBacklog: 256,
	}, 7, 1, src.source)
	defer s.Stop(false)

	var entries []raft.Entry
	for i := uint64(1); i <= 40; i++ {
		entries = append(entries, raft.Entry{Index: i, Data: make([]byte, 64)})
	}
	s.Offer(entries)
	if !s.Overloaded() {
		t.Fatalf("backlog %d bytes with store dark: want Overloaded", s.Stats().UnshippedBytes)
	}

	flaky.SetRates(0, 0) // heal
	deadline := time.Now().Add(10 * time.Second)
	for s.Overloaded() || s.Stats().UnshippedEntries > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained after heal: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, ok, torn, err := hydrate(t, mem, 7)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if st.tip() != 40 {
		t.Fatalf("tip = %d after drain, want 40", st.tip())
	}
}

// rollingStore runs roll once, when Hydrate first reads a snapshot:
// after it read CURRENT and before the snapshot GET, the window in
// which a concurrent roll registers a newer generation and sweeps the
// one Hydrate is about to read.
type rollingStore struct {
	oss.Store
	once sync.Once
	roll func()
}

func (s *rollingStore) Get(key string) ([]byte, error) {
	if strings.HasSuffix(key, "/snap") {
		s.once.Do(s.roll)
	}
	return s.Store.Get(key)
}

// TestHydrateRacesRoll: a roll that registers a new generation and
// sweeps the old one while Hydrate reads it does not fail the
// hydration, nor shorten it: Hydrate reads CURRENT again and hydrates
// the new generation.
func TestHydrateRacesRoll(t *testing.T) {
	mem := oss.NewMemStore()
	src := &fakeSource{}
	s, _ := newTestShipper(t, mem, 9, src)
	s.Offer(testEntries(1, 9))
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	s.Stop(false)

	rs := oss.WithDefaultRetry(mem)
	roller := NewRegistry(rs)
	rolling := &rollingStore{Store: mem, roll: func() {
		gen, err := roller.Acquire(9)
		if err == nil {
			err = putSnapshot(rs, 9, gen, raft.AppendSnapshot(nil, 4, []uint64{5}, testEntries(5, 9)), 9)
		}
		if err == nil {
			err = roller.Register(9, gen)
		}
		if err == nil {
			err = roller.Sweep(9, gen)
		}
		if err != nil {
			t.Error(err)
		}
	}}
	st, ok, torn, err := hydrate(t, rolling, 9)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if st.base != 4 || st.tip() != 9 || len(st.ids) != 1 {
		t.Fatalf("hydrated base %d, tip %d, %d ids; want the new generation's 4, 9 and 1", st.base, st.tip(), len(st.ids))
	}
}

// TestHydrateRefusesLegacyGeneration: a generation whose snapshot is in
// the LSSNAP1 layout is refused with ErrLegacyGeneration.
func TestHydrateRefusesLegacyGeneration(t *testing.T) {
	rs := oss.WithDefaultRetry(oss.NewMemStore())
	reg := NewRegistry(rs)
	gen, err := reg.Acquire(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Put(snapKey(3, gen), append([]byte("LSSNAP1\n"), 1, 0, 0, 0, 0, 0, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(3, gen); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := hydrate(t, rs, 3); !errors.Is(err, ErrLegacyGeneration) {
		t.Fatalf("hydrate of an LSSNAP1 generation: %v, want ErrLegacyGeneration", err)
	}
}

// TestSyncShipsAtCommit: in sync mode the upload starts when the commit
// is offered, not when a caller reaches Barrier — a client batch
// spanning shards waits on its shards one after another, so their
// uploads have to be in flight already. Async mode still waits for
// linger, size or a barrier.
func TestSyncShipsAtCommit(t *testing.T) {
	for _, sync := range []bool{true, false} {
		store := oss.WithDefaultRetry(oss.NewMemStore())
		src := &fakeSource{}
		s := New(Options{Store: store, Registry: NewRegistry(store), Sync: sync, Linger: time.Hour}, 1, 1, src.source)
		s.Offer(testEntries(1, 5))
		deadline := time.Now().Add(5 * time.Second)
		if !sync {
			deadline = time.Now().Add(50 * time.Millisecond)
		}
		for s.Stats().UnshippedEntries > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if shipped := s.Stats().UnshippedEntries == 0; shipped != sync {
			t.Errorf("sync=%v: shipped without a barrier = %v", sync, shipped)
		}
		if err := s.Barrier(); err != nil {
			t.Errorf("sync=%v: barrier: %v", sync, err)
		}
		s.Stop(false)
	}
}
