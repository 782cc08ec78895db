// Package rowstore implements LogStore's write-optimized real-time
// store (paper §2 "Real-time and Low-latency Writes", §3.1): a single
// huge row-oriented table organized only by arrival time — deliberately
// NOT separated by tenant — with no indexes and no compression, so the
// foreground write path spends no CPU beyond appending. Data becomes
// readable immediately (real-time visibility); the background data
// builder later drains sealed segments, splits them by tenant, and
// converts them into columnar LogBlocks on object storage.
//
// A segment holds its rows as they were committed: the encoded bytes of
// every batch applied to it, plus one pointer-free entry per row that
// says where the row lies and carries its tenant and timestamp. A row is
// decoded only when a drain or a real-time scan reads it, so resident
// rows cost the collector nothing to scan and the write path builds no
// objects per row.
package rowstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"

	"logstore/internal/bitutil"
	"logstore/internal/schema"
)

// ErrClosed is returned for operations on a closed store.
var ErrClosed = errors.New("rowstore: closed")

// Batch format: what AppendBatch applies and EncodeBatch writes — the
// payload of one sub-proposal in a raft entry.
//
//	batch := uvarint(nrows) row*
//	row   := schema.Row.AppendTo: uvarint(nvals) { kind byte, zig-zag varint | uvarint(len) bytes }*

// BatchSize returns the exact number of bytes EncodeBatch appends for
// rows, so encode buffers are sized once instead of grown.
func BatchSize(rows []schema.Row) int {
	n := bitutil.UvarintLen(uint64(len(rows)))
	for _, r := range rows {
		n += r.EncodedSize()
	}
	return n
}

// EncodeBatch appends the batch encoding of rows to dst.
func EncodeBatch(dst []byte, rows []schema.Row) []byte {
	dst = bitutil.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = r.AppendTo(dst)
	}
	return dst
}

// Options tunes segment rollover.
type Options struct {
	// MaxSegmentBytes seals the active segment when its approximate
	// payload exceeds this (0 = 16 MiB).
	MaxSegmentBytes int64
	// MaxSegmentRows seals the active segment at a row count (0 = no
	// row-count trigger).
	MaxSegmentRows int
	// TenantIndex builds a per-tenant row index on each sealed segment
	// the first time ScanTenant reads it, so queries touch only the
	// tenant's rows instead of scanning the whole segment. This
	// implements the paper's stated future work ("improving query
	// performance by optimizing the data structure of the real-time
	// store"); building lazily keeps the foreground append path — which
	// seals full segments inline — free of index work.
	TenantIndex bool
}

// rowRef locates one resident row. It is 32 bytes and holds no pointer,
// so a segment's row table is one flat array the collector never scans.
type rowRef struct {
	tenant int64
	ts     int64
	chunk  int32 // index of the row's batch in Segment.chunks
	off    int32 // where the row's encoding starts in that batch
	n      int32 // the encoding's length
	size   int32 // schema.Row.Size of the decoded row
}

// Segment is an immutable-after-seal run of rows in arrival order. The
// segments Seal and Sealed return are sealed: nothing changes them.
type Segment struct {
	// ID names the segment in Release, in what ScanTenant reports and in
	// the catalog entries of the LogBlocks it is drained into
	// (meta.BlockInfo.BornSegment). Those entries outlive the store, so
	// an id is never used twice — not by this store and not by the one
	// that replaces it after a crash, a wiped disk or a shard move: a
	// store numbers its segments upwards from a random 63-bit start.
	ID uint64
	// Bytes is the sum of schema.Row.Size over the rows, the measure the
	// size-based seal uses.
	Bytes int64
	MinTS int64
	MaxTS int64

	lay *layout
	// chunks holds every batch applied to the segment, as AppendBatch
	// received it (a batch split by a seal is in both segments); rows
	// holds one entry per row, in arrival order. Both grow by append
	// under the store lock only.
	chunks [][]byte
	rows   []rowRef

	// byTenant maps tenant → positions in rows; built lazily by the
	// first ScanTenant to touch the sealed segment (when
	// Options.TenantIndex is set), so sealing — which happens inline on
	// the append hot path when a size trigger fires — costs nothing.
	byTenant  map[int64][]int32
	indexOnce sync.Once
}

// Len returns the number of rows in the segment.
func (s *Segment) Len() int { return len(s.rows) }

// Tenant returns row i's tenant id, from the row table.
func (s *Segment) Tenant(i int) int64 { return s.rows[i].tenant }

// Time returns row i's timestamp, from the row table.
func (s *Segment) Time(i int) int64 { return s.rows[i].ts }

// Decode decodes the rows at positions pos, every column, into dst:
// dst[k] (as many cells as the schema has columns) becomes row pos[k].
// Every string cell is a substring of one string allocated for the call
// that holds exactly those rows' encodings.
func (s *Segment) Decode(pos []int32, dst []schema.Row) {
	s.lay.decode(len(pos), func(k int) (*rowRef, []byte) {
		r := &s.rows[pos[k]]
		return r, s.chunks[r.chunk]
	}, nil, dst)
}

func (s *Segment) view() view { return view{chunks: s.chunks, rows: s.rows} }

// tenantIndex returns byTenant, building it on first use. Sealed
// segments are immutable, so the index is computed once and shared;
// concurrent readers synchronize through the Once.
func (s *Segment) tenantIndex() map[int64][]int32 {
	s.indexOnce.Do(func() {
		idx := make(map[int64][]int32)
		for i := range s.rows {
			t := s.rows[i].tenant
			idx[t] = append(idx[t], int32(i))
		}
		s.byTenant = idx
	})
	return s.byTenant
}

// Store is the real-time store. Safe for concurrent use.
type Store struct {
	sch  *schema.Schema
	opts Options
	lay  *layout

	mu     sync.RWMutex
	active *Segment
	sealed []*Segment
	nextID uint64
	closed bool

	totalRows  int64
	totalBytes int64
}

// New returns an empty store for the given schema.
func New(sch *schema.Schema, opts Options) (*Store, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = 16 << 20
	}
	lay := &layout{
		kinds:     make([]schema.ColumnType, len(sch.Columns)),
		tenantIdx: sch.TenantIdx(),
		timeIdx:   sch.TimeIdx(),
		arityLen:  bitutil.UvarintLen(uint64(len(sch.Columns))),
	}
	for i, c := range sch.Columns {
		lay.kinds[i] = c.Type
	}
	return &Store{sch: sch, opts: opts, lay: lay, nextID: rand.Uint64()>>1 + 1}, nil
}

// Schema returns the table schema.
func (s *Store) Schema() *schema.Schema { return s.sch }

func (s *Store) newSegmentLocked() *Segment {
	seg := &Segment{ID: s.nextID, lay: s.lay}
	s.nextID++
	return seg
}

// Append adds rows to the active segment, sealing it first if full.
// Rows are validated against the schema; the first invalid row aborts
// the batch without partial application. The rows are encoded once, so
// the store keeps nothing of the caller's.
func (s *Store) Append(rows ...schema.Row) error {
	for i, r := range rows {
		if err := r.Conforms(s.sch); err != nil {
			return fmt.Errorf("rowstore: batch row %d: %w", i, err)
		}
	}
	_, err := s.AppendBatch(EncodeBatch(make([]byte, 0, BatchSize(rows)), rows))
	return err
}

// refScratch recycles the row entries AppendBatch parses before it takes
// the store lock. They hold no pointers, so a pooled slice pins nothing.
var refScratch = sync.Pool{New: func() any {
	s := make([]rowRef, 0, 256)
	return &s
}}

// AppendBatch applies one encoded batch (see EncodeBatch) and returns
// its row count. Every row is checked before anything is applied — the
// arity equals the column count, each value's kind matches its column,
// every varint and length lies within the input — and on any error
// nothing is. The store keeps batch itself, not a copy: the rows are
// decoded from it when a drain or a scan reads them, so the caller must
// never modify it afterwards.
func (s *Store) AppendBatch(batch []byte) (int, error) {
	scratch := refScratch.Get().(*[]rowRef)
	defer refScratch.Put(scratch)
	refs, err := s.parseBatch(batch, (*scratch)[:0])
	*scratch = refs[:0]
	if err == nil {
		err = s.apply(batch, refs)
	}
	if err != nil {
		return 0, err
	}
	return len(refs), nil
}

// parseBatch walks batch without decoding it, appending one entry per
// row to refs: what schema.DecodeRow and Row.Conforms together accept,
// it accepts.
func (s *Store) parseBatch(batch []byte, refs []rowRef) ([]rowRef, error) {
	if len(batch) > math.MaxInt32 {
		return refs, fmt.Errorf("rowstore: %d-byte batch exceeds the row table's offsets", len(batch))
	}
	n, off, err := bitutil.Uvarint(batch)
	if err != nil {
		return refs, fmt.Errorf("rowstore: batch count: %w", err)
	}
	if n > uint64(len(batch)-off) { // a row is at least one byte
		return refs, fmt.Errorf("rowstore: batch claims %d rows in %d bytes", n, len(batch)-off)
	}
	cols := s.sch.Columns
	for i := uint64(0); i < n; i++ {
		start := off
		arity, c, err := bitutil.Uvarint(batch[off:])
		if err != nil {
			return refs, fmt.Errorf("rowstore: batch row %d arity: %w", i, err)
		}
		if arity != uint64(len(cols)) {
			return refs, fmt.Errorf("rowstore: batch row %d has %d values, table %s has %d columns", i, arity, s.sch.Name, len(cols))
		}
		off += c
		ref := rowRef{off: int32(start)}
		size := int64(16 * len(cols)) // schema.Row.Size: 16 per value plus string bytes
		for ci := range cols {
			if off >= len(batch) {
				return refs, fmt.Errorf("rowstore: batch row %d value %d truncated", i, ci)
			}
			if kind := schema.ColumnType(batch[off]); kind != cols[ci].Type {
				return refs, fmt.Errorf("rowstore: batch row %d column %q: value kind %v, want %v", i, cols[ci].Name, kind, cols[ci].Type)
			}
			off++
			if cols[ci].Type == schema.Int64 {
				v, c, err := bitutil.Varint(batch[off:])
				if err != nil {
					return refs, fmt.Errorf("rowstore: batch row %d value %d: %w", i, ci, err)
				}
				off += c
				switch ci {
				case s.lay.tenantIdx:
					ref.tenant = v
				case s.lay.timeIdx:
					ref.ts = v
				}
				continue
			}
			l, c, err := bitutil.Uvarint(batch[off:])
			if err != nil {
				return refs, fmt.Errorf("rowstore: batch row %d value %d: %w", i, ci, err)
			}
			if l > uint64(len(batch)-off-c) {
				return refs, fmt.Errorf("rowstore: batch row %d value %d: %d-byte string truncated", i, ci, l)
			}
			off += c + int(l)
			size += int64(l)
		}
		if size > math.MaxInt32 {
			return refs, fmt.Errorf("rowstore: batch row %d is %d bytes", i, size)
		}
		ref.n, ref.size = int32(off-start), int32(size)
		refs = append(refs, ref)
	}
	return refs, nil
}

// apply appends parsed rows of batch to the active segment, sealing it
// whenever the next row would overflow it.
func (s *Store) apply(batch []byte, refs []rowRef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.active == nil {
		s.active = s.newSegmentLocked()
	}
	s.reserveLocked(len(refs))
	chunk := int32(-1) // batch's index in the active segment's chunks, once added
	for i, ref := range refs {
		a := s.active
		sz := int64(ref.size)
		if (s.opts.MaxSegmentBytes > 0 && a.Bytes+sz > s.opts.MaxSegmentBytes && len(a.rows) > 0) ||
			(s.opts.MaxSegmentRows > 0 && len(a.rows) >= s.opts.MaxSegmentRows) {
			s.sealed = append(s.sealed, a)
			a = s.newSegmentLocked()
			s.active = a
			s.reserveLocked(len(refs) - i)
			chunk = -1
		}
		if chunk < 0 {
			chunk = int32(len(a.chunks))
			a.chunks = append(a.chunks, batch)
		}
		ref.chunk = chunk
		if len(a.rows) == 0 || ref.ts < a.MinTS {
			a.MinTS = ref.ts
		}
		if len(a.rows) == 0 || ref.ts > a.MaxTS {
			a.MaxTS = ref.ts
		}
		a.rows = append(a.rows, ref)
		a.Bytes += sz
		s.totalRows++
		s.totalBytes += sz
	}
	return nil
}

// reserveLocked grows the active segment's row table geometrically
// (never past the row-count seal threshold, which caps how long the
// table can get) so a batch append triggers at most one copy here and
// none inside the per-row loop. Quadrupling copies ~N/3 entries per
// filled segment where runtime growslice's large-slice policy (~1.25×)
// copies ~5N. Readers are unaffected: a scan snapshots the slice header,
// and the retired array stays valid for any snapshot taken before the
// growth.
func (s *Store) reserveLocked(n int) {
	a := s.active
	need := len(a.rows) + n
	if s.opts.MaxSegmentRows > 0 && need > s.opts.MaxSegmentRows {
		// Rows beyond the seal trigger spill into the next segment.
		need = s.opts.MaxSegmentRows
	}
	if cap(a.rows) >= need {
		return
	}
	newCap := 4 * cap(a.rows)
	if newCap < need {
		newCap = need
	}
	if s.opts.MaxSegmentRows > 0 && newCap > s.opts.MaxSegmentRows {
		newCap = s.opts.MaxSegmentRows
	}
	grown := make([]rowRef, len(a.rows), newCap)
	copy(grown, a.rows)
	a.rows = grown
}

// Seal forces the active segment into the sealed list and returns it
// (nil when the active segment is empty). The data builder calls this
// on its archive cadence so even a slow tenant's data eventually
// reaches OSS.
func (s *Store) Seal() *Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil || len(s.active.rows) == 0 {
		return nil
	}
	seg := s.active
	s.sealed = append(s.sealed, seg)
	s.active = s.newSegmentLocked()
	return seg
}

// Sealed returns the sealed segments awaiting archive, oldest first.
func (s *Store) Sealed() []*Segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Segment, len(s.sealed))
	copy(out, s.sealed)
	return out
}

// Release drops a sealed segment once the builder has durably archived
// it, freeing its memory. Unknown ids are ignored (idempotent release).
func (s *Store) Release(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, seg := range s.sealed {
		if seg.ID == id {
			s.totalRows -= int64(len(seg.rows))
			s.totalBytes -= seg.Bytes
			s.sealed = append(s.sealed[:i], s.sealed[i+1:]...)
			return
		}
	}
}

// view is a reader's snapshot of one segment's tables. Both only grow by
// append under the store lock, so the prefix under these slice headers
// does not change once the lock is dropped.
type view struct {
	chunks [][]byte
	rows   []rowRef
	idx    []int32 // the tenant's row positions, when the segment is indexed
}

// Selection is a snapshot of resident rows, located through the row
// tables but not decoded; Decode decodes any of them. It stays valid
// after the segments it reads are released.
type Selection struct {
	lay   *layout
	views []view
	at    []rowAt
}

// rowAt is one selected row: a position in one of the selection's views.
type rowAt struct{ view, pos int32 }

// Len returns the number of selected rows.
func (s *Selection) Len() int { return len(s.at) }

// Decode decodes columns cols of the selected rows idx into dst:
// dst[k][j] becomes column cols[j] of selected row idx[k], so each
// dst[k] needs len(cols) cells (as many as the schema has columns when
// cols is nil, which means every column in schema order). Tenant and
// timestamp cells come from the row table; a row is walked only as far
// as the last other column cols names. When cols names a string column,
// the rows' encodings are first copied into one new string and every
// string cell is a substring of it: a cell the caller keeps keeps those
// rows' bytes alive and nothing of the store. Without one, Decode
// allocates nothing.
func (s *Selection) Decode(idx []int32, cols []int, dst []schema.Row) {
	s.lay.decode(len(idx), func(k int) (*rowRef, []byte) { return s.row(int(idx[k])) }, cols, dst)
}

// row returns selected row i's table entry and the batch holding it.
func (s *Selection) row(i int) (*rowRef, []byte) {
	a := s.at[i]
	v := &s.views[a.view]
	r := &v.rows[a.pos]
	return r, v.chunks[r.chunk]
}

// SelectTenant locates the rows of one tenant within [minTS, maxTS] —
// the rows ScanTenant would decode, in the same order — skipping
// segments whose time range cannot overlap, and returns them with the
// ids of the segments resident at its snapshot (see ScanTenant).
func (s *Store) SelectTenant(tenant, minTS, maxTS int64) (Selection, []uint64) {
	sel := Selection{lay: s.lay}
	var covered []uint64
	s.mu.RLock()
	for i := 0; i <= len(s.sealed); i++ {
		seg := s.active
		if i < len(s.sealed) {
			seg = s.sealed[i]
		}
		if seg == nil || len(seg.rows) == 0 {
			continue
		}
		if covered == nil {
			covered = make([]uint64, 0, len(s.sealed)+1-i)
			sel.views = make([]view, 0, len(s.sealed)+1-i)
		}
		covered = append(covered, seg.ID)
		if seg.MaxTS < minTS || seg.MinTS > maxTS {
			continue // segment-level time skipping
		}
		v := seg.view()
		if s.opts.TenantIndex && seg != s.active {
			positions, ok := seg.tenantIndex()[tenant]
			if !ok {
				continue // indexed segment without this tenant: skip it
			}
			v.idx = positions
		}
		sel.views = append(sel.views, v)
	}
	s.mu.RUnlock()

	// One pass into pooled scratch, then one allocation of the size found.
	scratch := atScratch.Get().(*[]rowAt)
	defer atScratch.Put(scratch)
	at := sel.collect(tenant, minTS, maxTS, (*scratch)[:0])
	*scratch = at[:0]
	if len(at) > 0 {
		sel.at = slices.Clone(at)
	}
	return sel, covered
}

// atScratch recycles the buffer SelectTenant collects positions in. They
// hold no pointers, so a pooled buffer pins nothing.
var atScratch = sync.Pool{New: func() any {
	s := make([]rowAt, 0, 1024)
	return &s
}}

// collect appends to at every row of the selection's views that belongs
// to tenant and lies within [minTS, maxTS], in order.
func (s *Selection) collect(tenant, minTS, maxTS int64, at []rowAt) []rowAt {
	for vi := range s.views {
		v := &s.views[vi]
		if v.idx != nil {
			for _, pos := range v.idx {
				if ts := v.rows[pos].ts; ts >= minTS && ts <= maxTS {
					at = append(at, rowAt{int32(vi), pos})
				}
			}
			continue
		}
		for pos := range v.rows {
			if r := &v.rows[pos]; r.tenant == tenant && r.ts >= minTS && r.ts <= maxTS {
				at = append(at, rowAt{int32(vi), int32(pos)})
			}
		}
	}
	return at
}

// scanBlock is how many rows Scan and ScanTenant decode at a time.
const scanBlock = 256

// emit decodes the selection in blocks, every column, and hands each row
// to fn until it returns false. Each block has cells of its own, so fn
// may keep a row.
func (s *Selection) emit(fn func(r schema.Row) bool) {
	ncols := len(s.lay.kinds)
	for first := 0; first < len(s.at); first += scanBlock {
		n := min(scanBlock, len(s.at)-first)
		cells := make([]schema.Value, n*ncols)
		rows := make([]schema.Row, n)
		for k := range rows {
			rows[k] = cells[k*ncols : (k+1)*ncols : (k+1)*ncols]
		}
		s.lay.decode(n, func(k int) (*rowRef, []byte) { return s.row(first + k) }, nil, rows)
		for _, r := range rows {
			if !fn(r) {
				return
			}
		}
	}
}

// Scan decodes every resident row (sealed then active, arrival order)
// and hands it to fn; returning false stops early.
func (s *Store) Scan(fn func(r schema.Row) bool) {
	sel := Selection{lay: s.lay}
	n := 0
	s.mu.RLock()
	sel.views = make([]view, 0, len(s.sealed)+1)
	for i := 0; i <= len(s.sealed); i++ {
		seg := s.active
		if i < len(s.sealed) {
			seg = s.sealed[i]
		}
		if seg != nil && len(seg.rows) > 0 {
			sel.views = append(sel.views, seg.view())
			n += len(seg.rows)
		}
	}
	s.mu.RUnlock()
	sel.at = make([]rowAt, 0, n)
	for vi, v := range sel.views {
		for pos := range v.rows {
			sel.at = append(sel.at, rowAt{int32(vi), int32(pos)})
		}
	}
	sel.emit(fn)
}

// ScanTenant decodes the rows of one tenant within [minTS, maxTS] and
// hands them to fn (returning false stops early), skipping segments
// whose time range cannot overlap. It returns the ids of the segments
// resident when it took its snapshot, the time-skipped ones included
// (nil when the store is empty): every row of them that was there at
// that instant has been offered to fn or is outside the range, so the
// caller must not also read it from a LogBlock born from one of them.
func (s *Store) ScanTenant(tenant, minTS, maxTS int64, fn func(r schema.Row) bool) (covered []uint64) {
	sel, covered := s.SelectTenant(tenant, minTS, maxTS)
	sel.emit(fn)
	return covered
}

// layout is what decoding a row needs of the schema, worked out once
// per store.
type layout struct {
	kinds              []schema.ColumnType
	tenantIdx, timeIdx int
	arityLen           int // bytes of a row's leading value count
}

// decode decodes n rows into dst (see Selection.Decode); row(k) returns
// the k-th row's table entry and the batch holding its encoding. The
// rows were checked when they were applied, so the walk trusts every
// kind byte, varint and length it meets. The tenant and timestamp come
// from the table, and a column nobody asked for is stepped over.
func (l *layout) decode(n int, row func(k int) (*rowRef, []byte), cols []int, dst []schema.Row) {
	ncols := len(l.kinds)
	var wantStack [64]bool
	want := wantStack[:0]
	if ncols <= len(wantStack) {
		want = wantStack[:ncols]
	} else {
		want = make([]bool, ncols)
	}
	if cols == nil {
		for c := range want {
			want[c] = true
		}
	}
	for _, c := range cols {
		want[c] = true
	}
	walk, strs := -1, false // the last column the walk must reach; whether one is a string
	for c, w := range want {
		if w && c != l.tenantIdx && c != l.timeIdx {
			walk = c
			strs = strs || l.kinds[c] == schema.String
		}
	}
	if n == 0 || len(cols) == 0 && cols != nil {
		return
	}
	var arena string
	if strs {
		var sb strings.Builder
		total := 0
		for k := 0; k < n; k++ {
			r, _ := row(k)
			total += int(r.n)
		}
		sb.Grow(total)
		for k := 0; k < n; k++ {
			r, chunk := row(k)
			sb.Write(chunk[r.off : r.off+r.n])
		}
		arena = sb.String()
	}
	var stack [16]schema.Value
	vals := stack[:0]
	if cols != nil {
		if ncols <= len(stack) {
			vals = stack[:ncols]
		} else {
			vals = make([]schema.Value, ncols)
		}
	}
	base := 0 // where the row's copy starts in arena
	for k := 0; k < n; k++ {
		r, chunk := row(k)
		src := chunk[r.off : r.off+r.n]
		if cols == nil {
			vals = dst[k]
		}
		off := l.arityLen
		for c := 0; c <= walk; c++ {
			kind := schema.ColumnType(src[off])
			off++
			if kind == schema.Int64 {
				if !want[c] || c == l.tenantIdx || c == l.timeIdx {
					for src[off] >= 0x80 {
						off++
					}
					off++
					continue
				}
				u, m := binary.Uvarint(src[off:])
				off += m
				v := int64(u >> 1)
				if u&1 != 0 {
					v = ^v
				}
				vals[c] = schema.IntValue(v)
				continue
			}
			sl, m := uint64(src[off]), 1
			if sl >= 0x80 {
				sl, m = binary.Uvarint(src[off:])
			}
			off += m
			if want[c] {
				vals[c] = schema.StringValue(arena[base+off : base+off+int(sl)])
			}
			off += int(sl)
		}
		if want[l.tenantIdx] {
			vals[l.tenantIdx] = schema.IntValue(r.tenant)
		}
		if want[l.timeIdx] {
			vals[l.timeIdx] = schema.IntValue(r.ts)
		}
		base += int(r.n)
		for j, c := range cols {
			dst[k][j] = vals[c]
		}
	}
}

// Stats reports resident totals.
func (s *Store) Stats() (rows, bytes int64, sealedSegments int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.totalRows, s.totalBytes, len(s.sealed)
}

// Close marks the store closed; resident data remains scannable.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
