package prefetch

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"logstore/internal/cache"
	"logstore/internal/oss"
)

func countedFetcher(t *testing.T, n int, size int64, pool *Service) ([]byte, *oss.Stats, *CachedFetcher) {
	t.Helper()
	data, mem := makeObject(t, n, 11)
	bc, err := cache.NewBlockCache(cache.BlockCacheConfig{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	counting := oss.NewCountingStore(mem, nil)
	return data, counting.Stats(), &CachedFetcher{
		Store: counting, Key: "obj", Cache: bc, BlockSize: 1024, Pool: pool, ObjectSize: size,
	}
}

// TestSizedFetcherIssuesNoHead: a fetcher given the object's size
// reports it and reads the whole object in ⌈size/block⌉ ranged gets,
// never asking the store how big the object is — serially and through
// the pool.
func TestSizedFetcherIssuesNoHead(t *testing.T) {
	pool := NewService(4, 8)
	defer pool.Close()
	for _, p := range []*Service{nil, pool} {
		data, stats, f := countedFetcher(t, 10_000, 10_000, p)
		if size, err := f.Size(); err != nil || size != 10_000 {
			t.Fatalf("pool=%v: Size = %d, %v", p != nil, size, err)
		}
		got, err := f.Fetch(0, 10_000)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("pool=%v: whole-object fetch: %v", p != nil, err)
		}
		if h, g := stats.Heads.Value(), stats.RangeGets.Value(); h != 0 || g != 10 {
			t.Errorf("pool=%v: %d heads, %d range gets; want 0 and 10", p != nil, h, g)
		}
	}
}

// TestUnsizedFetcherHeadsOnceAndOnlyOnMiss: without a size the fetcher
// asks the store exactly once however many blocks it loads and however
// often Size is called, and a second fetcher over an already cached
// object does not ask at all.
func TestUnsizedFetcherHeadsOnceAndOnlyOnMiss(t *testing.T) {
	pool := NewService(4, 8)
	defer pool.Close()
	data, stats, f := countedFetcher(t, 10_000, 0, pool)
	for _, r := range [][2]int64{{0, 512}, {512, 3000}, {0, 10_000}} {
		got, err := f.Fetch(r[0], r[1])
		if err != nil || !bytes.Equal(got, data[r[0]:r[0]+r[1]]) {
			t.Fatalf("Fetch(%d, %d): %v", r[0], r[1], err)
		}
	}
	if size, err := f.Size(); err != nil || size != 10_000 {
		t.Fatalf("Size = %d, %v", size, err)
	}
	if h := stats.Heads.Value(); h != 1 {
		t.Errorf("%d heads for one size-unknown fetcher, want 1", h)
	}
	again := &CachedFetcher{Store: f.Store, Key: f.Key, Cache: f.Cache, BlockSize: f.BlockSize, Pool: pool}
	got, err := again.Fetch(100, 9000)
	if err != nil || !bytes.Equal(got, data[100:9100]) {
		t.Fatalf("cached fetch: %v", err)
	}
	if err := again.Warm(context.Background(), []Range{{0, 10_000}}); err != nil {
		t.Fatal(err)
	}
	if h, g := stats.Heads.Value(), stats.RangeGets.Value(); h != 1 || g != 10 {
		t.Errorf("fully cached object cost %d heads, %d range gets in all; want 1 and 10", h, g)
	}
	if _, err := again.Fetch(9000, 2000); err == nil {
		t.Error("range beyond a cached object accepted")
	}
}

// TestWrongSizeErrors: a Size that disagrees with the object (which a
// content-addressed key rules out, a corrupt catalog does not) yields an
// error wherever the bytes cannot be served — never a panic, never a
// slice shorter than asked for.
func TestWrongSizeErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int64
		off  int64
		n    int64
		ok   bool
	}{
		{"larger: claimed tail", 12_000, 0, 12_000, false},
		{"larger: real tail", 12_000, 9_500, 500, false}, // its block is cut at the claimed size
		{"larger: inside", 12_000, 100, 5_000, true},
		{"smaller: real tail", 9_000, 0, 10_000, false},
		{"smaller: inside", 9_000, 0, 9_000, true},
	} {
		data, _, f := countedFetcher(t, 10_000, tc.size, nil)
		got, err := f.Fetch(tc.off, tc.n)
		switch {
		case tc.ok && (err != nil || !bytes.Equal(got, data[tc.off:tc.off+tc.n])):
			t.Errorf("%s: served wrong bytes or error %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: returned %d bytes, want an error", tc.name, len(got))
		}
		if !tc.ok {
			if err := f.Warm(context.Background(), []Range{{tc.off, tc.n}}); err == nil {
				t.Errorf("%s: Warm accepted the range", tc.name)
			}
		}
	}
}

// TestWarmLoadsEachBlockOnce: ranges that share cache blocks load each
// block once, a repeated Warm and the reads of the warmed ranges reach
// the store not at all, and nothing is ever loaded twice.
func TestWarmLoadsEachBlockOnce(t *testing.T) {
	pool := NewService(4, 8)
	defer pool.Close()
	data, stats, f := countedFetcher(t, 10_000, 10_000, pool)
	// Blocks 0, 1 | 1 | 4, 5 | 9 (the short tail): five distinct.
	ranges := []Range{{1000, 100}, {1500, 10}, {5000, 200}, {9990, 10}, {0, 0}}
	for round := 0; round < 2; round++ {
		if err := f.Warm(context.Background(), ranges); err != nil {
			t.Fatal(err)
		}
		if g := stats.RangeGets.Value(); g != 5 {
			t.Fatalf("round %d: %d range gets, want 5 (blocks 0, 1, 4, 5, 9)", round, g)
		}
	}
	for _, r := range ranges {
		got, err := f.Fetch(r.Off, r.Size)
		if err != nil || !bytes.Equal(got, data[r.Off:r.Off+r.Size]) {
			t.Fatalf("Fetch(%d, %d) after Warm: %v", r.Off, r.Size, err)
		}
	}
	if h, g := stats.Heads.Value(), stats.RangeGets.Value(); h != 0 || g != 5 {
		t.Errorf("reads of warmed ranges reached the store: %d heads, %d range gets", h, g)
	}
	if err := f.Warm(context.Background(), []Range{{-1, 10}}); err == nil {
		t.Error("negative range accepted")
	}
}

// stallStore holds every ranged get until its context ends, announcing
// each arrival, and counts the ones still inside.
type stallStore struct {
	oss.Store
	arrived  chan struct{}
	inflight atomic.Int64
}

func (s *stallStore) GetContext(ctx context.Context, key string) ([]byte, error) {
	return s.Get(key)
}

func (s *stallStore) HeadContext(ctx context.Context, key string) (oss.ObjectInfo, error) {
	return s.Head(key)
}

func (s *stallStore) GetRangeContext(ctx context.Context, key string, off, size int64) ([]byte, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.arrived <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestWarmStopsOnCancel: a Warm whose context dies stops handing work
// to the pool and returns only after every task it did hand over has
// finished, so nothing of a dead query lingers in the pool.
func TestWarmStopsOnCancel(t *testing.T) {
	_, mem := makeObject(t, 16*1024, 12)
	bc, err := cache.NewBlockCache(cache.BlockCacheConfig{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	store := &stallStore{Store: mem, arrived: make(chan struct{})}
	pool := NewService(2, 1)
	f := &CachedFetcher{Store: store, Key: "obj", Cache: bc, BlockSize: 1024, Pool: pool, ObjectSize: 16 * 1024}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Warm(dead, []Range{{0, 16 * 1024}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Warm under a dead context = %v, want Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Warm(ctx, []Range{{0, 16 * 1024}}) }()
	<-store.arrived // both pool workers are now inside the store;
	<-store.arrived // the rest of the wave waits behind them
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Warm canceled mid-wave = %v, want Canceled", err)
	}
	if n := store.inflight.Load(); n != 0 {
		t.Errorf("Warm returned with %d reads still in flight", n)
	}
	select {
	case <-store.arrived:
		t.Error("a read reached the store after the cancel")
	default:
	}
	pool.Close() // returns only once the workers are idle: nothing leaked
}

// TestAdmitReadsBackWithoutStore: an admitted object — one cache block
// or several with a short tail — reads back byte-identical at any range
// through a second fetcher, sized or not, without a store call; its
// entries are per-block copies (the cache holds exactly the object's
// bytes and evicting a block brings only that block back from the
// store), and an object of one block is kept as given, not copied.
func TestAdmitReadsBackWithoutStore(t *testing.T) {
	for _, n := range []int{700, 1024, 10_000} {
		data, stats, admit := countedFetcher(t, n, 0, nil)
		admit.Admit(data)
		if used := admit.Cache.MemoryUsed(); used != int64(n) {
			t.Fatalf("n=%d: cache holds %d bytes after Admit", n, used)
		}
		first, ok := admit.Cache.Get(admit.blockKey(0))
		if !ok || (&first[0] == &data[0]) != (n <= 1024) {
			t.Fatalf("n=%d: block 0 cached %v, shares the object's array %v", n, ok, ok && &first[0] == &data[0])
		}
		for _, size := range []int64{0, int64(n)} {
			f := &CachedFetcher{Store: admit.Store, Key: "obj", Cache: admit.Cache, BlockSize: 1024, ObjectSize: size}
			for _, r := range [][2]int64{{0, int64(n)}, {0, 1}, {int64(n) - 1, 1}, {int64(n) / 3, int64(n) / 2}} {
				got, err := f.Fetch(r[0], r[1])
				if err != nil || !bytes.Equal(got, data[r[0]:r[0]+r[1]]) {
					t.Fatalf("n=%d size=%d: Fetch(%d, %d): %v", n, size, r[0], r[1], err)
				}
			}
		}
		if h, g := stats.Heads.Value(), stats.RangeGets.Value()+stats.Gets.Value(); h != 0 || g != 0 {
			t.Errorf("n=%d: %d heads and %d gets reading an admitted object, want none", n, h, g)
		}
	}

	// A cache smaller than the object keeps what fits, block by block,
	// and the store serves the rest: admission never pins a whole object.
	data, stats, f := countedFetcher(t, 10_000, 10_000, nil)
	small, err := cache.NewBlockCache(cache.BlockCacheConfig{MemoryBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	f.Cache = small
	f.Admit(data)
	if used := small.MemoryUsed(); used == 0 || used > 4096 {
		t.Fatalf("a 4096-byte cache holds %d bytes of a 10000-byte object", used)
	}
	got, err := f.Fetch(0, 10_000)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reading a partly cached object: %v", err)
	}
	if g := stats.RangeGets.Value(); g == 0 || g > 10 {
		t.Fatalf("%d range gets for the blocks that did not fit, want 1 to 10", g)
	}
}
