package logblock

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"logstore/internal/bitutil"
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

// parseTarSize extracts the payload size from a 512-byte tar header
// (octal field at bytes 124..136).
func parseTarSize(hdr []byte) (int64, error) {
	if len(hdr) < 512 {
		return 0, fmt.Errorf("logblock: tar header truncated: %d bytes", len(hdr))
	}
	field := strings.TrimRight(strings.TrimSpace(string(hdr[124:136])), "\x00")
	field = strings.TrimSpace(field)
	if field == "" {
		return 0, fmt.Errorf("logblock: empty tar size field")
	}
	v, err := strconv.ParseInt(field, 8, 64)
	if err != nil {
		return 0, fmt.Errorf("logblock: tar size field %q: %w", field, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("logblock: negative tar size %d", v)
	}
	return v, nil
}

// Reader provides lazy member access over a packed LogBlock. Opening a
// reader fetches only the manifest and the meta member; indexes and data
// blocks are ranged on demand. Parsed index segments are memoized on
// the reader (the paper's object memory cache: "metadata files, index
// files, and hot data files" are repeatedly accessed during queries, so
// decoded forms are kept, not just raw blocks).
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

// OpenReader reads the manifest (via the leading tar header) and the
// meta member.
func OpenReader(f Fetcher) (*Reader, error) {
	hdr, err := f.Fetch(0, tarBlock)
	if err != nil {
		return nil, fmt.Errorf("logblock: read manifest header: %w", err)
	}
	msize, err := parseTarSize(hdr)
	if err != nil {
		return nil, err
	}
	raw, err := f.Fetch(tarBlock, msize)
	if err != nil {
		return nil, fmt.Errorf("logblock: read manifest: %w", err)
	}
	man, err := DecodeManifest(raw)
	if err != nil {
		return nil, err
	}
	r := &Reader{fetch: f, Manifest: man, shared: &readerShared{}}
	metaRaw, err := r.ReadMember(MemberMeta)
	if err != nil {
		return nil, err
	}
	if r.Meta, err = DecodeMeta(metaRaw); err != nil {
		return nil, err
	}
	const readerOverhead = 512 // structs, maps, slice headers
	r.shared.retained.Store(msize + int64(len(metaRaw)) + readerOverhead)
	return r, nil
}

// ReadMember fetches a member's raw bytes by name.
func (r *Reader) ReadMember(name string) ([]byte, error) {
	ext, ok := r.Manifest.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("logblock: member %q not in manifest", name)
	}
	return r.fetch.Fetch(ext.Offset, ext.Size)
}

// HasIndex reports whether column col has a serialized index member.
func (r *Reader) HasIndex(col int) bool {
	_, ok := r.Manifest.Lookup(IndexMember(col))
	return ok
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
	raw, err := r.ReadMember(IndexMember(col))
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
	raw, err := r.ReadMember(IndexMember(col))
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
	// A block out of range has no key; ReadMember reports it missing.
	if nb := r.Meta.NumBlocks; r.vecCache != nil && uint(col) < uint(len(r.Meta.Columns)) && uint(bi) < uint(nb) {
		key = r.vecKeys[col*nb+bi]
		if v, ok := r.vecCache.Get(key); ok {
			return v.(*Vector), nil
		}
	}
	raw, err := r.ReadMember(DataMember(col, bi))
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

// BlockValues fetches and decodes column col's block bi, returning the
// values and the validity bitset (positions relative to the block).
// It is the boxed compatibility shim over BlockVector; scan paths use
// the typed vector directly.
func (r *Reader) BlockValues(col, bi int) ([]schema.Value, *bitutil.Bitset, error) {
	vec, err := r.BlockVector(col, bi)
	if err != nil {
		return nil, nil, err
	}
	return vec.Values(), vec.Valid, nil
}

// DecodeBlockData decodes one raw data member into boxed values: the
// compatibility shim over DecodeBlockVector.
func DecodeBlockData(m *Meta, col, bi int, raw []byte) ([]schema.Value, *bitutil.Bitset, error) {
	vec, err := DecodeBlockVector(m, col, bi, raw)
	if err != nil {
		return nil, nil, err
	}
	return vec.Values(), vec.Valid, nil
}

// AllRows materializes the entire LogBlock, column block by column
// block (each data member fetched exactly once). Used by compaction
// and backfill jobs that rewrite whole blocks.
func (r *Reader) AllRows() ([]schema.Row, error) {
	m := r.Meta
	rows := make([]schema.Row, m.RowCount)
	for i := range rows {
		rows[i] = make(schema.Row, len(m.Schema.Columns))
	}
	for ci := range m.Schema.Columns {
		for bi := 0; bi < m.NumBlocks; bi++ {
			vals, _, err := r.BlockValues(ci, bi)
			if err != nil {
				return nil, err
			}
			start, _ := m.BlockRowRange(bi)
			for j, v := range vals {
				rows[start+j][ci] = v
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
		vals, _, err := r.BlockValues(ci, bi)
		if err != nil {
			return nil, err
		}
		if inBlock >= len(vals) {
			return nil, fmt.Errorf("logblock: row %d beyond block %d of column %d", rowID, bi, ci)
		}
		row[ci] = vals[inBlock]
	}
	return row, nil
}
