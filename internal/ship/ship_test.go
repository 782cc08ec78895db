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
)

func testEntries(first, last uint64) []raft.Entry {
	var out []raft.Entry
	for i := first; i <= last; i++ {
		out = append(out, raft.Entry{Term: 1, Index: i, Data: []byte(fmt.Sprintf("row-%d", i))})
	}
	return out
}

// fakeSource serves snapshots over whatever entries have been fed to
// it — the test's stand-in for the worker's apply-locked state cut.
type fakeSource struct {
	mu sync.Mutex
	st State
}

func (f *fakeSource) set(st State) {
	f.mu.Lock()
	f.st = st
	f.mu.Unlock()
}

func (f *fakeSource) source() (State, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.st
	st.Entries = append([]raft.Entry(nil), st.Entries...)
	st.DedupIDs = append([]uint64(nil), st.DedupIDs...)
	return st, nil
}

func TestSnapRoundTrip(t *testing.T) {
	st := State{
		Term: 7, Applied: 3, AppliedTerm: 2,
		DedupIDs: []uint64{11, 22, 33},
		Entries:  testEntries(4, 9),
	}
	got, err := decodeSnap(encodeSnap(st))
	if err != nil {
		t.Fatal(err)
	}
	if got.Term != 7 || got.Applied != 3 || got.AppliedTerm != 2 ||
		len(got.DedupIDs) != 3 || len(got.Entries) != 6 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if got.Tip() != 9 {
		t.Fatalf("tip = %d, want 9", got.Tip())
	}

	// Every truncation of the object must fail the CRC, never decode
	// into a shorter-but-valid state.
	blob := encodeSnap(st)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := decodeSnap(blob[:cut]); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) decoded cleanly", cut, len(blob))
		}
	}
	// Bit flip anywhere must fail too.
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := decodeSnap(flipped); err == nil {
		t.Fatal("corrupt snapshot decoded cleanly")
	}
}

func TestChunkRoundTrip(t *testing.T) {
	entries := testEntries(10, 14)
	got, err := decodeChunk(encodeChunk(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0].Index != 10 || got[4].Index != 14 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if _, err := decodeChunk([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded as chunk")
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
// reopened cluster would.
func hydrate(store oss.Store, shard int64) (State, bool, bool, error) {
	rs := oss.WithDefaultRetry(store)
	return Hydrate(rs, NewRegistry(rs), shard)
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
	src.set(State{Term: 1})
	s, reg := newTestShipper(t, store, 1, src)

	entries := testEntries(1, 20)
	s.Offer(entries[:12])
	s.Offer(entries[:12]) // a second replica reports the same commit: must dedup
	s.Offer(entries[12:])
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}

	st, ok, torn, err := hydrate(store, 1)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if len(st.Entries) != 20 || st.Entries[0].Index != 1 || st.Tip() != 20 {
		t.Fatalf("hydrated %d entries, tip %d, want 20/20", len(st.Entries), st.Tip())
	}

	// The archive mark rides commit records even with no new entries:
	// hydration must learn rows 1..15 are in LogBlocks.
	s.NoteArchived(15)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok, _, err = hydrate(store, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ok && st.Applied == 15 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("archive mark never shipped: applied=%d", st.Applied)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Tip() != 20 {
		t.Fatalf("tip = %d after mark-only chunk, want 20", st.Tip())
	}
	_ = reg
}

func TestHydrateUnknownShard(t *testing.T) {
	store := oss.NewMemStore()
	_, ok, torn, err := hydrate(store, 42)
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
	src.set(State{Term: 1})
	s, _ := newTestShipper(t, flaky, 2, src)

	s.Offer(testEntries(1, 10))
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	if flaky.InjectedFailures() == 0 {
		t.Fatal("flaky store injected nothing; test exercised no fault")
	}
	st, ok, torn, err := hydrate(mem, 2)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if st.Tip() != 10 {
		t.Fatalf("tip = %d, want 10", st.Tip())
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
	src.set(State{Term: 1})
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
	st, ok, torn, err := hydrate(mem, 3)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if st.Tip() != 8 {
		t.Fatalf("tip = %d, want 8", st.Tip())
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
	src.set(State{Term: 1})
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

	st, ok, torn, err := hydrate(store, 4)
	if err != nil || !ok {
		t.Fatalf("hydrate: ok=%v err=%v", ok, err)
	}
	if !torn {
		t.Fatal("truncated chunk not reported as torn")
	}
	// Everything before the torn chunk survives; the torn chunk's range
	// does not (it was never fully acked as shipped by that uploader).
	if st.Tip() < 5 || st.Tip() >= 9 {
		t.Fatalf("fallback tip = %d, want in [5,9)", st.Tip())
	}
	for i, e := range st.Entries {
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
	srcA.set(State{Term: 1})
	a := New(Options{Store: rs, Registry: reg, Linger: 5 * time.Millisecond}, shard, 1, srcA.source)
	defer a.Stop(false)
	a.Offer(testEntries(1, 6))
	if err := a.Barrier(); err != nil {
		t.Fatal(err)
	}
	genA := a.Stats().Gen

	// The new worker hydrated entries 1..6 and boots its own shipper.
	srcB := &fakeSource{}
	srcB.set(State{Term: 2, Entries: testEntries(1, 6)})
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
	st, ok, torn, err := hydrate(store, shard)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if st.Tip() != 9 {
		t.Fatalf("surviving tip = %d, want 9", st.Tip())
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
	src.set(State{Term: 1})
	s := New(Options{
		Store: rs, Registry: reg,
		Linger: 5 * time.Millisecond, MaxBacklog: 256,
	}, 7, 1, src.source)
	defer s.Stop(false)

	var entries []raft.Entry
	for i := uint64(1); i <= 40; i++ {
		entries = append(entries, raft.Entry{Term: 1, Index: i, Data: make([]byte, 64)})
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
	st, ok, torn, err := hydrate(mem, 7)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if st.Tip() != 40 {
		t.Fatalf("tip = %d after drain, want 40", st.Tip())
	}
}

// TestShipperGapRolls: a commit-index jump (snapshot install on a
// follower feeding the hook) must not ship a discontiguous chunk — the
// shipper rolls a fresh generation whose snapshot covers the hole.
func TestShipperGapRolls(t *testing.T) {
	store := oss.NewMemStore()
	src := &fakeSource{}
	src.set(State{Term: 1})
	s, _ := newTestShipper(t, store, 8, src)

	s.Offer(testEntries(1, 4))
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	// Jump: indexes 5..7 never pass through the hook.
	s.Offer(testEntries(8, 10))
	// The roll cannot proceed until the source can cover the stream.
	src.set(State{Term: 1, Entries: testEntries(1, 10)})
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}

	st, ok, torn, err := hydrate(store, 8)
	if err != nil || !ok || torn {
		t.Fatalf("hydrate: ok=%v torn=%v err=%v", ok, torn, err)
	}
	if st.Tip() != 10 {
		t.Fatalf("tip = %d, want 10", st.Tip())
	}
	for i, e := range st.Entries {
		if e.Index != uint64(i)+1 {
			t.Fatalf("hydrated entry %d has index %d; want contiguous from 1", i, e.Index)
		}
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
		src.set(State{Term: 1})
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
