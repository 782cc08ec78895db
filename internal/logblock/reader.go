package logblock

import (
	"fmt"
	"sync"
	"sync/atomic"

	"logstore/internal/index/bkd"
	"logstore/internal/index/inverted"
	"logstore/internal/schema"
)

// Fetcher reads byte ranges of a packed LogBlock object. Implementations
// range directly against object storage, or through the block cache and
// parallel prefetcher.
type Fetcher interface {
	// Fetch returns exactly size bytes starting at off.
	Fetch(off, size int64) ([]byte, error)
	// Size returns the object's size in bytes.
	Size() (int64, error)
}

// BytesFetcher adapts an in-memory object to the Fetcher interface.
type BytesFetcher []byte

// Fetch implements Fetcher.
func (b BytesFetcher) Fetch(off, size int64) ([]byte, error) {
	if off < 0 || size < 0 || off+size > int64(len(b)) {
		return nil, fmt.Errorf("logblock: fetch [%d, %d) out of object of %d bytes", off, off+size, len(b))
	}
	out := make([]byte, size)
	copy(out, b[off:off+size])
	return out, nil
}

// Size implements Fetcher.
func (b BytesFetcher) Size() (int64, error) { return int64(len(b)), nil }

// Reader provides lazy part access over a packed LogBlock. Opening a
// reader fetches only the object's tail (trailer, manifest and meta);
// indexes and data blocks are ranged on demand. Parsed index segments
// are memoized on the reader (the paper's object memory cache:
// "metadata files, index files, and hot data files" are repeatedly
// accessed during queries, so decoded forms are kept, not just raw
// blocks).
type Reader struct {
	fetch    Fetcher
	Manifest *Manifest
	Meta     *Meta

	// shared holds the state common to every view of this object
	// (WithFetcher): memoized index segments and retained-bytes
	// accounting. Views differ only in their byte source — a cached
	// base fetcher vs. a per-query context-bound one — so the decode
	// work is paid once regardless of which view triggered it.
	shared *readerShared

	// vecCache, when set, is the shared decoded-vector cache level;
	// vecKeys holds this object's key there for each (column, block),
	// made once so that a cache hit allocates nothing.
	vecCache VectorCache
	vecKeys  []string
}

type readerShared struct {
	mu       sync.Mutex
	invCache map[int]*inverted.Index
	bkdCache map[int]*bkd.Tree

	// retained approximates the bytes memoized on the reader itself
	// (manifest + meta + parsed index segments), so cache levels holding
	// readers can charge real cost instead of a guess.
	retained atomic.Int64
}

// Fetcher returns the reader's byte source.
func (r *Reader) Fetcher() Fetcher { return r.fetch }

// WithFetcher returns a view of r that reads bytes through f while
// sharing the decoded manifest, meta, memoized index segments,
// retained accounting, and vector-cache binding. The query path uses
// it to bind a caller's context to a cached reader for one query: the
// expensive decoded state is shared across queries, the byte source —
// where cancellation must bite — is per-call.
func (r *Reader) WithFetcher(f Fetcher) *Reader {
	return &Reader{
		fetch:    f,
		Manifest: r.Manifest,
		Meta:     r.Meta,
		shared:   r.shared,
		vecCache: r.vecCache,
		vecKeys:  r.vecKeys,
	}
}

// VectorCache is the decoded-vector cache level consulted by
// BlockVector: decoded column vectors are shared across queries keyed
// by (object, column, block) with byte-cost accounting. Contains reports
// presence without counting a hit or a miss. cache.ObjectCache
// satisfies it.
type VectorCache interface {
	Get(key string) (any, bool)
	Put(key string, value any, size int64)
	Contains(key string) bool
}

// VectorCacheKey returns the canonical decoded-vector cache key of one
// column block of one packed object.
func VectorCacheKey(object string, col, bi int) string {
	return fmt.Sprintf("vec:%s/%d/%d", object, col, bi)
}

// SetVectorCache attaches a shared decoded-vector cache, keying this
// reader's blocks under the given object identity (its storage path).
func (r *Reader) SetVectorCache(c VectorCache, object string) {
	nb := r.Meta.NumBlocks
	keys := make([]string, len(r.Meta.Columns)*nb)
	for i := range keys {
		keys[i] = VectorCacheKey(object, i/nb, i%nb)
	}
	r.vecCache, r.vecKeys = c, keys
}

// RetainedBytes reports the approximate memory the reader retains:
// manifest, decoded meta, and memoized index segments. It grows as
// indexes are loaded, so long-lived holders should re-poll.
func (r *Reader) RetainedBytes() int64 { return r.shared.retained.Load() }

// OpenReader reads the object's last min(size, TailSize) bytes and
// decodes the manifest and the meta from them; a block whose manifest
// and meta outgrow that tail costs one more fetch. An object whose tail
// is not a trailer is a legacy tar, whose manifest is found through the
// tar header at offset 0: one more fetch when the object is larger than
// TailSize.
func OpenReader(f Fetcher) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("logblock: object size: %w", err)
	}
	if size <= 0 {
		return nil, fmt.Errorf("logblock: empty object")
	}
	o := &opener{f: f, size: size}
	n := min(size, TailSize)
	tail, err := o.read(size-n, n)
	if err != nil {
		return nil, fmt.Errorf("logblock: read tail: %w", err)
	}
	var man *Manifest
	if hasTrailer(tail) {
		man, err = o.footerManifest(tail)
	} else {
		man, err = o.tarManifest()
	}
	if err != nil {
		return nil, err
	}
	metaRaw, err := o.read(man.Meta.Offset, man.Meta.Size)
	if err != nil {
		return nil, fmt.Errorf("logblock: read meta: %w", err)
	}
	meta, err := DecodeMeta(metaRaw)
	if err != nil {
		return nil, err
	}
	if man.NumBlocks != meta.NumBlocks || len(man.Data) != len(meta.Columns)*meta.NumBlocks {
		return nil, fmt.Errorf("logblock: manifest has %d data parts in blocks of %d, meta %d columns of %d blocks",
			len(man.Data), man.NumBlocks, len(meta.Columns), meta.NumBlocks)
	}
	r := &Reader{fetch: f, Manifest: man, Meta: meta, shared: &readerShared{}}
	const readerOverhead = 512 // structs, maps, slice headers
	r.shared.retained.Store(man.retainedBytes() + int64(len(metaRaw)) + readerOverhead)
	return r, nil
}

// opener reads the ranges an open needs, answering each from a range it
// has already fetched when it can.
type opener struct {
	f       Fetcher
	size    int64
	fetched []span
}

type span struct {
	off  int64
	data []byte
}

func (o *opener) read(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off > o.size || n > o.size-off {
		return nil, fmt.Errorf("logblock: range [%d, +%d) outside an object of %d bytes", off, n, o.size)
	}
	for _, s := range o.fetched {
		if off >= s.off && off+n <= s.off+int64(len(s.data)) {
			return s.data[off-s.off : off-s.off+n], nil
		}
	}
	data, err := o.f.Fetch(off, n)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != n {
		return nil, fmt.Errorf("logblock: fetched %d bytes at %d, want %d", len(data), off, n)
	}
	o.fetched = append(o.fetched, span{off, data})
	return data, nil
}

// footerManifest decodes the manifest the trailer at the end of tail
// points to.
func (o *opener) footerManifest(tail []byte) (*Manifest, error) {
	manLen, err := parseTrailer(tail, o.size)
	if err != nil {
		return nil, err
	}
	manOff := o.size - trailerSize - manLen
	raw, err := o.read(manOff, manLen)
	if err != nil {
		return nil, fmt.Errorf("logblock: read manifest: %w", err)
	}
	return decodeManifest(raw, manOff)
}

// tarManifest decodes the manifest of a legacy tar, the payload of its
// first member. It reads the object's head in one piece, which in every
// tar this package wrote holds the manifest and the meta.
func (o *opener) tarManifest() (*Manifest, error) {
	head, err := o.read(0, min(o.size, TailSize))
	if err != nil {
		return nil, fmt.Errorf("logblock: read manifest header: %w", err)
	}
	msize, err := parseTarSize(head)
	if err != nil {
		return nil, err
	}
	raw, err := o.read(tarBlock, msize)
	if err != nil {
		return nil, fmt.Errorf("logblock: read manifest: %w", err)
	}
	return decodeLegacyManifest(raw, o.size)
}

// HasIndex reports whether column col has a serialized index part.
func (r *Reader) HasIndex(col int) bool {
	return r.Manifest.IndexExtent(col) != Extent{}
}

// readIndex fetches column col's serialized index.
func (r *Reader) readIndex(col int) ([]byte, error) {
	ext := r.Manifest.IndexExtent(col)
	if ext == (Extent{}) {
		return nil, fmt.Errorf("logblock: no index of column %d in the manifest", col)
	}
	return r.fetch.Fetch(ext.Offset, ext.Size)
}

// IndexLoaded reports whether column col's parsed index is already
// memoized on the reader, i.e. whether using it costs no fetch.
func (r *Reader) IndexLoaded(col int) bool {
	r.shared.mu.Lock()
	defer r.shared.mu.Unlock()
	_, inv := r.shared.invCache[col]
	_, bkd := r.shared.bkdCache[col]
	return inv || bkd
}

// InvertedIndex loads and opens column col's inverted index, memoizing
// the parsed segment for the reader's lifetime.
func (r *Reader) InvertedIndex(col int) (*inverted.Index, error) {
	if r.Meta.Columns[col].Index != schema.IndexInverted {
		return nil, fmt.Errorf("logblock: column %d has no inverted index", col)
	}
	r.shared.mu.Lock()
	if ix, ok := r.shared.invCache[col]; ok {
		r.shared.mu.Unlock()
		return ix, nil
	}
	r.shared.mu.Unlock()
	raw, err := r.readIndex(col)
	if err != nil {
		return nil, err
	}
	open := inverted.Open
	if r.Meta.Columns[col].IndexFormat == IndexFormatLegacy {
		open = inverted.OpenLegacy
	}
	ix, err := open(raw)
	if err != nil {
		return nil, err
	}
	r.shared.mu.Lock()
	if r.shared.invCache == nil {
		r.shared.invCache = make(map[int]*inverted.Index)
	}
	if _, dup := r.shared.invCache[col]; !dup {
		r.shared.retained.Add(int64(len(raw)))
	}
	r.shared.invCache[col] = ix
	r.shared.mu.Unlock()
	return ix, nil
}

// BKDIndex loads and decodes column col's BKD tree, memoizing it for
// the reader's lifetime. The decoded tree, not the fetched member, is
// what stays resident, so it is what RetainedBytes is charged.
func (r *Reader) BKDIndex(col int) (*bkd.Tree, error) {
	if r.Meta.Columns[col].Index != schema.IndexBKD {
		return nil, fmt.Errorf("logblock: column %d has no BKD index", col)
	}
	r.shared.mu.Lock()
	if t, ok := r.shared.bkdCache[col]; ok {
		r.shared.mu.Unlock()
		return t, nil
	}
	r.shared.mu.Unlock()
	raw, err := r.readIndex(col)
	if err != nil {
		return nil, err
	}
	open := bkd.Open
	if r.Meta.Columns[col].IndexFormat == IndexFormatLegacy {
		open = bkd.OpenLegacy
	}
	t, err := open(raw)
	if err != nil {
		return nil, err
	}
	r.shared.mu.Lock()
	if r.shared.bkdCache == nil {
		r.shared.bkdCache = make(map[int]*bkd.Tree)
	}
	if _, dup := r.shared.bkdCache[col]; !dup {
		r.shared.retained.Add(t.SizeBytes())
	}
	r.shared.bkdCache[col] = t
	r.shared.mu.Unlock()
	return t, nil
}

// BlockVector fetches and decodes column col's block bi as a typed
// vector, consulting (and populating) the decoded-vector cache when one
// is attached. The returned vector is shared and must not be mutated.
func (r *Reader) BlockVector(col, bi int) (*Vector, error) {
	var key string
	// A block out of range has no key; its extent is the zero one.
	if nb := r.Meta.NumBlocks; r.vecCache != nil && uint(col) < uint(len(r.Meta.Columns)) && uint(bi) < uint(nb) {
		key = r.vecKeys[col*nb+bi]
		if v, ok := r.vecCache.Get(key); ok {
			return v.(*Vector), nil
		}
	}
	ext := r.Manifest.DataExtent(col, bi)
	if ext == (Extent{}) {
		return nil, fmt.Errorf("logblock: no block %d of column %d in the manifest", bi, col)
	}
	raw, err := r.fetch.Fetch(ext.Offset, ext.Size)
	if err != nil {
		return nil, err
	}
	vec, err := DecodeBlockVector(r.Meta, col, bi, raw)
	if err != nil {
		return nil, err
	}
	if key != "" {
		r.vecCache.Put(key, vec, vec.SizeBytes())
	}
	return vec, nil
}

// VectorCached reports whether the decoded-vector cache holds column
// col's block bi, so that BlockVector would read no member for it. It
// counts no hit or miss.
func (r *Reader) VectorCached(col, bi int) bool {
	nb := r.Meta.NumBlocks
	return r.vecCache != nil && uint(col) < uint(len(r.Meta.Columns)) && uint(bi) < uint(nb) &&
		r.vecCache.Contains(r.vecKeys[col*nb+bi])
}

// AllRows materializes the entire LogBlock, column block by column
// block (each data part fetched exactly once). Used by compaction
// and backfill jobs that rewrite whole blocks.
func (r *Reader) AllRows() ([]schema.Row, error) {
	m := r.Meta
	rows := make([]schema.Row, m.RowCount)
	for i := range rows {
		rows[i] = make(schema.Row, len(m.Schema.Columns))
	}
	for ci := range m.Schema.Columns {
		for bi := 0; bi < m.NumBlocks; bi++ {
			vec, err := r.BlockVector(ci, bi)
			if err != nil {
				return nil, err
			}
			start, _ := m.BlockRowRange(bi)
			for j := 0; j < vec.Len(); j++ {
				rows[start+j][ci] = vec.Value(j)
			}
		}
	}
	return rows, nil
}

// ReadRow materializes one full row by global row id, decoding the
// owning block of every column. Intended for low-volume result
// materialization; bulk scans should iterate blocks directly.
func (r *Reader) ReadRow(rowID int) (schema.Row, error) {
	if rowID < 0 || rowID >= r.Meta.RowCount {
		return nil, fmt.Errorf("logblock: row %d out of range [0, %d)", rowID, r.Meta.RowCount)
	}
	bi := rowID / r.Meta.BlockRows
	inBlock := rowID % r.Meta.BlockRows
	row := make(schema.Row, len(r.Meta.Schema.Columns))
	for ci := range r.Meta.Schema.Columns {
		vec, err := r.BlockVector(ci, bi)
		if err != nil {
			return nil, err
		}
		if inBlock >= vec.Len() {
			return nil, fmt.Errorf("logblock: row %d beyond block %d of column %d", rowID, bi, ci)
		}
		row[ci] = vec.Value(inBlock)
	}
	return row, nil
}
