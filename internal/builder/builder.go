// Package builder implements LogStore's phase-two data builder (paper
// §3.1, §3.4): it drains sealed row-store segments, splits them by
// tenant, encodes each tenant's run into columnar LogBlocks (with
// inverted/BKD indexes and SMA statistics), uploads them to object
// storage, and registers them in the metadata catalog. It also runs the
// LogBlock compaction task that merges small adjacent blocks.
//
// The builder is fault-tolerant by construction. Object storage
// throttles and fails transiently under multi-tenant load, so every
// OSS operation goes through a retrying store (exponential backoff
// with full jitter behind a circuit breaker; see internal/retry), and
// the archive commit (publish, shared by drains and compaction) is
// idempotent and atomic:
//
//  1. the packed LogBlock's key is derived from its content
//     (tenant, min timestamp, FNV-64a fingerprint of the packed
//     bytes), so re-archiving the same segment reproduces the same
//     key instead of a duplicate object;
//  2. the object is uploaded first, while it is still invisible —
//     nothing reads a key the catalog does not hold — unless a Head
//     finds it already there at the right size (a crash between upload
//     and registration left it);
//  3. the packed bytes, still in hand, are offered to the block cache of
//     the worker that will be asked for the block (Config.Handoff), so
//     its first read is not a storage round trip. Best effort: a lost
//     hand-off costs that read one fetch, nothing else;
//  4. catalog registration is the single commit point, performed
//     last. A crash or exhausted retry before registration leaves at
//     worst an unregistered (invisible) object for SweepOrphans and a
//     cache entry nobody asks for, and the segment is re-drained later.
//
// A segment is released from the row store only after every one of its
// LogBlocks has committed, so no row is dropped before it is durable
// and visible on object storage.
//
// A drain builds a segment's LogBlocks one after another and hands each
// packed block's commit to a window of at most W commits in flight (see
// FlushWindow). At W = 1 each commit runs before the next block is
// built. After the first failure no further commit starts; the ones in
// flight finish, and what committed stays committed for a re-drain to
// deduplicate.
package builder

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"logstore/internal/compress"
	"logstore/internal/logblock"
	"logstore/internal/meta"
	"logstore/internal/metrics"
	"logstore/internal/oss"
	"logstore/internal/rowstore"
	"logstore/internal/schema"
)

// Config configures a Builder.
type Config struct {
	// Table is the OSS directory all of this builder's LogBlocks live
	// under ("" = the schema's table name).
	Table string
	// MaxRowsPerBlock caps one LogBlock's row count; a tenant's run in
	// a segment is chunked at this size (0 = 1_000_000).
	MaxRowsPerBlock int
	// BlockRows is the column-block size inside a LogBlock
	// (0 = logblock.DefaultBlockRows).
	BlockRows int
	// Codec is the column-block compression codec (zero = default).
	Codec compress.Codec
	// NoIndexes suppresses index members (ablation experiments).
	NoIndexes bool
	// Handoff, when set, is offered every LogBlock's packed bytes under
	// its object key after the upload and before the catalog makes the
	// key visible (the worker passes them to the block's read home). It
	// must not keep the builder waiting on anything slow, and may drop
	// the bytes. packed is not modified afterwards.
	Handoff func(key string, packed []byte)
}

// FlushWindow is the commit window of a drain that a caller waits on:
// an explicit flush, or the last drain of a closing worker. A commit is
// two store round trips (Head, Put) that no other block's commit depends
// on, so keeping several in flight divides the wait. A sweep over 4, 8,
// 16 and 32 stopped gaining at 16 (EXPERIMENTS.md, the flush-window
// sweep). The periodic archive loop drains with a window of 1, because
// the length of its round sets the size of the next round's blocks
// (DESIGN.md "Fault tolerance").
const FlushWindow = 16

// Builder converts row-store segments into LogBlocks on object storage.
// Safe for concurrent use; drains and compactions of the same tenant
// should still be serialized by the caller (the worker's archive mutex)
// to avoid wasted duplicate work.
type Builder struct {
	cfg     Config
	sch     *schema.Schema
	store   *oss.RetryingStore
	catalog *meta.Manager

	// pending tracks keys uploaded but not yet registered, so an
	// orphan sweep never deletes an in-flight commit.
	mu      sync.Mutex
	pending map[string]struct{}

	blocksBuilt  metrics.Counter
	rowsArchived metrics.Counter
	dedupSkips   metrics.Counter
}

// New constructs a builder. A raw store is wrapped with the default
// retry policy; an *oss.RetryingStore keeps its own. The catalog is the
// cluster's metadata manager.
func New(cfg Config, sch *schema.Schema, store oss.Store, catalog *meta.Manager) (*Builder, error) {
	if sch == nil {
		return nil, fmt.Errorf("builder: nil schema")
	}
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("builder: nil store")
	}
	if catalog == nil {
		return nil, fmt.Errorf("builder: nil catalog")
	}
	if cfg.Table == "" {
		cfg.Table = sch.Name
	}
	if cfg.MaxRowsPerBlock <= 0 {
		cfg.MaxRowsPerBlock = 1_000_000
	}
	return &Builder{
		cfg:     cfg,
		sch:     sch,
		store:   oss.WithDefaultRetry(store),
		catalog: catalog,
		pending: make(map[string]struct{}),
	}, nil
}

// Table returns the OSS directory the builder archives under.
func (b *Builder) Table() string { return b.cfg.Table }

// Stats reports LogBlocks committed, rows archived, and commits skipped
// by the idempotence checks (re-drained data already on OSS).
func (b *Builder) Stats() (blocks, rows, dedupSkips int64) {
	return b.blocksBuilt.Value(), b.rowsArchived.Value(), b.dedupSkips.Value()
}

// DrainStore seals the row store's active segment and archives every
// sealed segment to object storage, one commit at a time, releasing
// each segment only after all of its LogBlocks have committed. It
// returns the number of LogBlocks newly committed. On error the failed
// segment (and any after it) stays sealed in the row store; a later
// drain retries it and the content-derived keys deduplicate whatever
// had already committed.
func (b *Builder) DrainStore(rs *rowstore.Store) (int, error) {
	rs.Seal()
	return b.DrainSegments(rs, rs.Sealed(), 1)
}

// DrainSegments archives an explicit list of already-sealed segments
// with at most window commits in flight (values below 1 mean 1). The
// worker uses it when the seal and the segment snapshot must happen
// under the shard's apply lock (so the archived row set and the
// recorded raft applied-index agree exactly — a segment auto-sealed by
// a concurrent apply must wait for the next drain), while the slow OSS
// uploads stay outside the lock.
func (b *Builder) DrainSegments(rs *rowstore.Store, segs []*rowstore.Segment, window int) (int, error) {
	committed := 0
	for _, seg := range segs {
		n, err := b.archiveSegment(seg, window)
		committed += n
		if err != nil {
			return committed, fmt.Errorf("builder: segment %d: %w", seg.ID, err)
		}
		rs.Release(seg.ID)
	}
	return committed, nil
}

// archiveSegment splits one sealed segment by tenant and commits each
// tenant's chunks, at most window at a time. It returns once every
// commit it started has, with how many LogBlocks were newly committed.
func (b *Builder) archiveSegment(seg *rowstore.Segment, window int) (int, error) {
	// Counting sort of row positions by tenant, read from the segment's
	// row table: a tenant's rows become one run, in arrival order. Runs
	// lie in ascending tenant order, which keeps re-drains
	// byte-identical.
	n := seg.Len()
	ordinal := make(map[int64]int32)
	rowOrdinal := make([]int32, n)
	var tenants []int64
	var counts []int
	for i := 0; i < n; i++ {
		t := seg.Tenant(i)
		o, ok := ordinal[t]
		if !ok {
			o = int32(len(tenants))
			ordinal[t] = o
			tenants = append(tenants, t)
			counts = append(counts, 0)
		}
		rowOrdinal[i] = o
		counts[o]++
	}
	slices.Sort(tenants)
	next := make([]int, len(tenants)) // by ordinal: where the tenant's next row goes
	end, largest := 0, 0              // largest: the most rows one chunk will hold
	for _, t := range tenants {
		o := ordinal[t]
		next[o] = end
		end += counts[o]
		largest = max(largest, min(counts[o], b.cfg.MaxRowsPerBlock))
	}
	grouped := make([]int32, n)
	for i, o := range rowOrdinal {
		grouped[next[o]] = int32(i)
		next[o]++
	}

	// Every chunk is decoded into the same cell slab: logblock.Build
	// keeps none of the rows it is given.
	ncols := len(b.sch.Columns)
	cells := make([]schema.Value, largest*ncols)
	slab := make([]schema.Row, largest)
	for k := range slab {
		slab[k] = cells[k*ncols : (k+1)*ncols : (k+1)*ncols]
	}
	byTime := func(x, y int32) int { return cmp.Compare(seg.Time(int(x)), seg.Time(int(y))) }
	commits := newCommitWindow(window)
	// started holds the keys handed to a commit in this segment. Two
	// chunks with identical bytes share a key; the second is a
	// deduplicated commit, as it is when the first is already
	// registered, whether or not the first has finished.
	started := make(map[string]struct{})
	start := 0
tenants:
	for _, tenant := range tenants {
		c := counts[ordinal[tenant]]
		run := grouped[start : start+c]
		start += c
		// Sort by time before chunking so every chunk covers a
		// contiguous time range (LogBlocks are stored in chronological
		// order per tenant, paper §3.1) and chunk contents are
		// deterministic. One client's appends arrive in time order, so
		// the sort is usually skipped, and logblock.Build then takes the
		// chunk as it is.
		if !slices.IsSortedFunc(run, byTime) {
			slices.SortStableFunc(run, byTime)
		}
		for len(run) > 0 {
			if commits.failed() {
				break tenants
			}
			pos := run[:min(len(run), b.cfg.MaxRowsPerBlock)]
			run = run[len(pos):]
			chunk := slab[:len(pos)]
			seg.Decode(pos, chunk)
			packed, info, err := b.packBlock(tenant, chunk)
			if err != nil {
				commits.done(false, fmt.Errorf("tenant %d: %w", tenant, err))
				break tenants
			}
			if _, dup := started[info.Path]; dup {
				b.dedupSkips.Inc()
				continue
			}
			started[info.Path] = struct{}{}
			commits.start(func() (bool, error) {
				fresh, err := b.commitBlock(packed, info, seg.ID)
				if err != nil {
					err = fmt.Errorf("tenant %d: %w", tenant, err)
				}
				return fresh, err
			})
		}
	}
	return commits.wait()
}

// commitWindow runs one segment's LogBlock commits, at most a window of
// them at a time: with a window of 1 each runs inline on the drain's
// goroutine. It keeps the first error and counts fresh commits.
type commitWindow struct {
	slots chan struct{} // nil: commit inline
	wg    sync.WaitGroup

	mu    sync.Mutex
	fresh int
	err   error
}

func newCommitWindow(window int) *commitWindow {
	c := &commitWindow{}
	if window > 1 {
		c.slots = make(chan struct{}, window)
	}
	return c
}

// start runs commit once a slot is free, unless a commit has failed by
// then.
func (c *commitWindow) start(commit func() (bool, error)) {
	if c.slots == nil {
		c.done(commit())
		return
	}
	c.slots <- struct{}{}
	if c.failed() {
		<-c.slots
		return
	}
	c.wg.Add(1)
	go func() {
		defer func() {
			<-c.slots
			c.wg.Done()
		}()
		c.done(commit())
	}()
}

func (c *commitWindow) done(fresh bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fresh {
		c.fresh++
	}
	if err != nil && c.err == nil {
		c.err = err
	}
}

// failed reports whether an error has been recorded.
func (c *commitWindow) failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// wait returns, once every started commit has, the number of fresh
// commits and the first error.
func (c *commitWindow) wait() (int, error) {
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fresh, c.err
}

// buildOptions maps the config onto logblock build options.
func (b *Builder) buildOptions() logblock.BuildOptions {
	return logblock.BuildOptions{
		Codec:     b.cfg.Codec,
		BlockRows: b.cfg.BlockRows,
		NoIndexes: b.cfg.NoIndexes,
	}
}

// blockKey derives the content-addressed object key: the tenant's OSS
// directory, the block's minimum timestamp (chronological listing), and
// the FNV-64a fingerprint of the packed bytes. Identical content maps
// to an identical key, which is what makes the archive commit
// idempotent across retries, crashes, and re-drained segments.
func (b *Builder) blockKey(tenant, minTS int64, packed []byte) string {
	h := fnv.New64a()
	h.Write(packed)
	return fmt.Sprintf("%slogblock-%016d-%016x.tar",
		meta.TenantPrefix(b.cfg.Table, tenant), minTS, h.Sum64())
}

// packBlock builds rows into a LogBlock and returns its packed bytes
// with the catalog entry describing them (CreatedMS and BornSegment are
// the caller's to set).
func (b *Builder) packBlock(tenant int64, rows []schema.Row) ([]byte, meta.BlockInfo, error) {
	built, err := logblock.Build(b.sch, rows, b.buildOptions())
	if err != nil {
		return nil, meta.BlockInfo{}, err
	}
	packed, err := built.Pack()
	if err != nil {
		return nil, meta.BlockInfo{}, err
	}
	return packed, meta.BlockInfo{
		Tenant: tenant,
		Path:   b.blockKey(tenant, built.Meta.MinTS, packed),
		MinTS:  built.Meta.MinTS,
		MaxTS:  built.Meta.MaxTS,
		Rows:   int64(built.Meta.RowCount),
		Bytes:  int64(len(packed)),
	}, nil
}

// publish is the archive commit: upload packed under key unless it is
// there already, hand the bytes to the block's read home, then run
// register, the catalog operation that makes the key visible. The key
// is marked pending throughout, so an orphan sweep never deletes an
// in-flight commit.
func (b *Builder) publish(key string, packed []byte, register func() error) error {
	b.mu.Lock()
	b.pending[key] = struct{}{}
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.pending, key)
		b.mu.Unlock()
	}()

	// Upload first: the object is invisible until registered, so a
	// failure here never exposes a partial LogBlock. Uploaded but never
	// registered (a crash between the two): the key is content-derived,
	// so a size match means the bytes are already there.
	if info, err := b.store.Head(key); err == nil && info.Size == int64(len(packed)) {
		b.dedupSkips.Inc()
	} else if err := b.store.Put(key, packed); err != nil {
		return fmt.Errorf("upload %s: %w", key, err)
	}
	// Before the key is visible, so that whoever finds it in the catalog
	// finds it cached; the key is content-derived, so bytes admitted for
	// a commit that then fails can never be wrong, only unused.
	if b.cfg.Handoff != nil {
		b.cfg.Handoff(key, packed)
	}
	if err := register(); err != nil {
		return fmt.Errorf("register %s: %w", key, err)
	}
	b.blocksBuilt.Inc()
	return nil
}

// commitBlock commits one packed LogBlock, cut from row-store segment
// born, that info describes. It reports whether a new block was
// committed (false = deduplicated against a prior commit).
func (b *Builder) commitBlock(packed []byte, info meta.BlockInfo, born uint64) (bool, error) {
	// Already registered: the commit completed in a previous drain (a
	// later block of the segment failed, or the crash happened after
	// registration but before the segment was released). The rows are in
	// this segment now, so the entry says so.
	if old, ok := b.catalog.Lookup(info.Path); ok && old.Tenant == info.Tenant {
		b.dedupSkips.Inc()
		if old.BornSegment == born {
			return false, nil
		}
		old.BornSegment = born
		return false, b.catalog.Register(old)
	}
	info.CreatedMS = time.Now().UnixMilli()
	info.BornSegment = born
	if err := b.publish(info.Path, packed, func() error { return b.catalog.Register(info) }); err != nil {
		return false, err
	}
	b.rowsArchived.Add(info.Rows)
	return true, nil
}
