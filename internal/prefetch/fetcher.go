package prefetch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"logstore/internal/cache"
	"logstore/internal/oss"
)

// DefaultBlockSize is the file-block granularity of the cache and the
// prefetcher (the paper's cache operates on 1k/128k/1024k blocks; 128k
// is the general-purpose middle tier).
const DefaultBlockSize = 128 << 10

// CachedFetcher serves ranged reads of one object through the block
// cache, loading missing blocks from object storage — in parallel when
// a prefetch pool is attached, serially otherwise (the paper's
// "without parallel prefetch" baseline). It implements
// logblock.Fetcher; FetchCtx is the context-aware entry the query path
// uses so a caller's deadline cancels in-flight storage reads.
type CachedFetcher struct {
	Store     oss.Store
	Key       string
	Cache     *cache.BlockCache // nil disables caching
	BlockSize int64             // 0 = DefaultBlockSize
	Pool      *Service          // nil = serial block loading
	// Size is the object's size when the caller knows it — the catalog
	// records it for every LogBlock, and keys are content-addressed, so
	// it cannot go stale. 0 = unknown: the first block that misses the
	// cache asks the store, once.
	Size int64

	szMu   sync.Mutex
	size   int64
	sizeOk bool

	mu       sync.Mutex
	inflight map[int64]*call
}

type call struct {
	done chan struct{}
	data []byte
	err  error
}

// knownSize returns the object's size if it was given or already
// resolved, without touching the store.
func (f *CachedFetcher) knownSize() (int64, bool) {
	if f.Size > 0 {
		return f.Size, true
	}
	f.szMu.Lock()
	defer f.szMu.Unlock()
	return f.size, f.sizeOk
}

// objectSize returns the object's total size. Only a fetcher built
// without Size asks the store — the one Head left on the read path —
// memoizing only success: a canceled or failed probe must not poison
// the fetcher for every later query (the size is a property of the
// object, the failure a property of one call). Concurrent first probes
// may race and issue duplicate Heads; both store the same answer.
func (f *CachedFetcher) objectSize(ctx context.Context) (int64, error) {
	if sz, ok := f.knownSize(); ok {
		return sz, nil
	}
	info, err := oss.HeadContext(ctx, f.Store, f.Key)
	if err != nil {
		return 0, err
	}
	f.szMu.Lock()
	f.size, f.sizeOk = info.Size, true
	f.szMu.Unlock()
	return info.Size, nil
}

func (f *CachedFetcher) blockSize() int64 {
	if f.BlockSize > 0 {
		return f.BlockSize
	}
	return DefaultBlockSize
}

func (f *CachedFetcher) blockKey(bi int64) string {
	return fmt.Sprintf("%s#%d#%d", f.Key, f.blockSize(), bi)
}

// isCtxErr reports whether err is a context cancellation or deadline
// (possibly wrapped by the retry layer).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// loadBlock returns block bi, via cache, merged in-flight fetch, or a
// fresh ranged read. The merge is context-aware on both sides: a
// waiter stops waiting when its own context dies, and a waiter whose
// leader was canceled (the leader's context error, not ours) retries
// the load under its own context instead of failing a healthy query
// with someone else's cancellation.
func (f *CachedFetcher) loadBlock(ctx context.Context, bi int64) ([]byte, error) {
	key := f.blockKey(bi)
	for {
		if f.Cache != nil {
			if data, ok := f.Cache.Get(key); ok {
				return data, nil
			}
		}

		f.mu.Lock()
		if f.inflight == nil {
			f.inflight = make(map[int64]*call)
		}
		if c, ok := f.inflight[bi]; ok {
			// Another goroutine is already loading this block: merge.
			f.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err == nil {
				return c.data, nil
			}
			if isCtxErr(c.err) && ctx.Err() == nil {
				continue // the leader died of its own deadline, not ours
			}
			return nil, c.err
		}
		c := &call{done: make(chan struct{})}
		f.inflight[bi] = c
		f.mu.Unlock()

		c.data, c.err = f.fetchBlock(ctx, bi)
		if c.err == nil && f.Cache != nil {
			f.Cache.Put(key, c.data)
		}
		f.mu.Lock()
		delete(f.inflight, bi)
		f.mu.Unlock()
		close(c.done)
		return c.data, c.err
	}
}

func (f *CachedFetcher) fetchBlock(ctx context.Context, bi int64) ([]byte, error) {
	total, err := f.objectSize(ctx)
	if err != nil {
		return nil, err
	}
	bs := f.blockSize()
	off := bi * bs
	if off >= total {
		return nil, fmt.Errorf("prefetch: block %d beyond object %s (%d bytes)", bi, f.Key, total)
	}
	size := bs
	if off+size > total {
		size = total - off
	}
	data, err := oss.GetRangeContext(ctx, f.Store, f.Key, off, size)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != size {
		// A store that clamps a range at the object's end (HTTP does)
		// would otherwise turn a too-large Size into a short block.
		return nil, fmt.Errorf("prefetch: block %d of %s: got %d bytes, want %d", bi, f.Key, len(data), size)
	}
	return data, nil
}

func (f *CachedFetcher) cached(bi int64) bool {
	return f.Cache != nil && f.Cache.Contains(f.blockKey(bi))
}

// span checks the range [off, off+size) against the object and returns
// the cache blocks it covers (none for an empty range). A fetcher that
// has to ask the store for the size asks only if some block of the
// range is going to be fetched anyway: a fully cached range costs no
// Head. That scan ends at the first uncached block, and no block past
// the object's end is ever cached, so a corrupt extent cannot run it
// far.
func (f *CachedFetcher) span(ctx context.Context, off, size int64) (first, last int64, err error) {
	if off < 0 || size < 0 || off+size < off {
		return 0, 0, fmt.Errorf("prefetch: negative range [%d, %d)", off, off+size)
	}
	bs := f.blockSize()
	first = off / bs
	if size == 0 {
		return first, first - 1, nil
	}
	total, ok := f.knownSize()
	if !ok {
		bi := first
		for bi*bs < off+size && f.cached(bi) {
			bi++
		}
		if bi*bs >= off+size {
			return first, bi - 1, nil
		}
		if total, err = f.objectSize(ctx); err != nil {
			return 0, 0, err
		}
	}
	if off > total || size > total-off {
		return 0, 0, fmt.Errorf("prefetch: range [%d, %d) beyond object %s (%d bytes)",
			off, off+size, f.Key, total)
	}
	return first, (off + size - 1) / bs, nil
}

// loadBlocks returns cache blocks bis in order: one after another
// without a pool, as one concurrent wave through it otherwise, so a
// set of blocks costs one storage round trip instead of one each.
func (f *CachedFetcher) loadBlocks(ctx context.Context, bis []int64) ([][]byte, error) {
	blocks := make([][]byte, len(bis))
	if f.Pool == nil || len(bis) == 1 {
		for i, bi := range bis {
			data, err := f.loadBlock(ctx, bi)
			if err != nil {
				return nil, err
			}
			blocks[i] = data
		}
		return blocks, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(bis))
	for i, bi := range bis {
		if ctx.Err() != nil {
			break // a dead query queues no more work behind the pool
		}
		i, bi := i, bi
		wg.Add(1)
		task := func() {
			defer wg.Done()
			blocks[i], errs[i] = f.loadBlock(ctx, bi)
		}
		if err := f.Pool.Submit(task); err != nil {
			// Pool closed: fall back to loading inline.
			task()
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return blocks, nil
}

// Range is a byte extent of the object.
type Range struct {
	Off, Size int64
}

// Warm loads every cache block the ranges touch that is not cached
// yet, as one concurrent wave through the pool: the reads of those
// ranges that follow are cache hits, and a set of members costs one
// dependent storage round trip instead of one per member. Ranges that
// share a block load it once.
func (f *CachedFetcher) Warm(ctx context.Context, ranges []Range) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if f.Cache == nil {
		return nil // nowhere to keep what a wave would load
	}
	var bis []int64
	for _, r := range ranges {
		first, last, err := f.span(ctx, r.Off, r.Size)
		if err != nil {
			return err
		}
		for bi := first; bi <= last; bi++ {
			bis = append(bis, bi)
		}
	}
	slices.Sort(bis)
	bis = slices.Compact(bis)
	bis = slices.DeleteFunc(bis, f.cached)
	if len(bis) == 0 {
		return nil
	}
	_, err := f.loadBlocks(ctx, bis)
	return err
}

// Admit stores the whole object, whose bytes the caller already holds,
// under the cache blocks a read of it looks up, so that the first read
// is a hit instead of a storage round trip. data must be the complete
// object and must not change afterwards. An object of one cache block is
// kept as given; a longer one is copied block by block, so that evicting
// one block frees that block's bytes instead of pinning the whole
// object. The entries are ordinary cache entries from then on.
func (f *CachedFetcher) Admit(data []byte) {
	if f.Cache == nil {
		return
	}
	bs := f.blockSize()
	for bi := int64(0); bi*bs < int64(len(data)); bi++ {
		block := data[bi*bs : min((bi+1)*bs, int64(len(data)))]
		if len(block) < len(data) {
			block = bytes.Clone(block)
		}
		f.Cache.Put(f.blockKey(bi), block)
	}
}

// Fetch implements logblock.Fetcher: it returns size bytes at off,
// assembling them from aligned cache blocks.
func (f *CachedFetcher) Fetch(off, size int64) ([]byte, error) {
	return f.FetchCtx(context.Background(), off, size)
}

// FetchCtx is Fetch bounded by ctx: an expired context returns before
// any storage operation, and cancellation mid-assembly stops the
// remaining block loads.
func (f *CachedFetcher) FetchCtx(ctx context.Context, off, size int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	first, last, err := f.span(ctx, off, size)
	if err != nil {
		return nil, err
	}
	bis := make([]int64, last-first+1)
	for i := range bis {
		bis[i] = first + int64(i)
	}
	blocks, err := f.loadBlocks(ctx, bis)
	if err != nil {
		return nil, err
	}

	bs := f.blockSize()
	out := make([]byte, 0, size)
	for i, block := range blocks {
		bi := first + int64(i)
		blockStart := bi * bs
		lo := int64(0)
		if off > blockStart {
			lo = off - blockStart
		}
		hi := int64(len(block))
		if blockStart+hi > off+size {
			hi = off + size - blockStart
		}
		if lo > hi || hi > int64(len(block)) {
			return nil, fmt.Errorf("prefetch: internal slice error block %d [%d:%d] len %d", bi, lo, hi, len(block))
		}
		out = append(out, block[lo:hi]...)
	}
	if int64(len(out)) != size {
		return nil, fmt.Errorf("prefetch: assembled %d bytes, want %d", len(out), size)
	}
	return out, nil
}
