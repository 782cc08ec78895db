// Package rowstore implements LogStore's write-optimized real-time
// store (paper §2 "Real-time and Low-latency Writes", §3.1): a single
// huge row-oriented table organized only by arrival time — deliberately
// NOT separated by tenant — with no indexes and no compression, so the
// foreground write path spends no CPU beyond appending. Data becomes
// readable immediately (real-time visibility); the background data
// builder later drains sealed segments, splits them by tenant, and
// converts them into columnar LogBlocks on object storage.
package rowstore

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"logstore/internal/schema"
)

// ErrClosed is returned for operations on a closed store.
var ErrClosed = errors.New("rowstore: closed")

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

// Segment is an immutable-after-seal run of rows in arrival order.
type Segment struct {
	// ID names the segment in Release, in what ScanTenant reports and in
	// the catalog entries of the LogBlocks it is drained into
	// (meta.BlockInfo.BornSegment). Those entries outlive the store, so
	// an id is never used twice — not by this store and not by the one
	// that replaces it after a crash, a wiped disk or a shard move: a
	// store numbers its segments upwards from a random 63-bit start.
	ID    uint64
	Rows  []schema.Row
	Bytes int64
	MinTS int64
	MaxTS int64

	// byTenant maps tenant → positions in Rows; built lazily by the
	// first ScanTenant to touch the sealed segment (when
	// Options.TenantIndex is set), so sealing — which happens inline on
	// the append hot path when a size trigger fires — costs nothing.
	byTenant  map[int64][]int32
	indexOnce sync.Once
}

// tenantIndex returns byTenant, building it on first use. Sealed
// segments are immutable, so the index is computed once and shared;
// concurrent readers synchronize through the Once.
func (s *Segment) tenantIndex(tenantIdx int) map[int64][]int32 {
	s.indexOnce.Do(func() {
		idx := make(map[int64][]int32)
		for i, r := range s.Rows {
			t := r[tenantIdx].I
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
	return &Store{sch: sch, opts: opts, nextID: rand.Uint64()>>1 + 1}, nil
}

// Schema returns the table schema.
func (s *Store) Schema() *schema.Schema { return s.sch }

func (s *Store) newSegmentLocked() *Segment {
	seg := &Segment{ID: s.nextID}
	s.nextID++
	return seg
}

// Append adds rows to the active segment, sealing it first if full.
// Rows are validated against the schema; the first invalid row aborts
// the batch without partial application.
func (s *Store) Append(rows ...schema.Row) error {
	for i, r := range rows {
		if err := r.Conforms(s.sch); err != nil {
			return fmt.Errorf("rowstore: batch row %d: %w", i, err)
		}
	}
	timeIdx := s.sch.TimeIdx()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.active == nil {
		s.active = s.newSegmentLocked()
	}
	s.reserveLocked(len(rows))
	for i, r := range rows {
		sz := int64(r.Size())
		if (s.opts.MaxSegmentBytes > 0 && s.active.Bytes+sz > s.opts.MaxSegmentBytes && len(s.active.Rows) > 0) ||
			(s.opts.MaxSegmentRows > 0 && len(s.active.Rows) >= s.opts.MaxSegmentRows) {
			s.sealed = append(s.sealed, s.active)
			s.active = s.newSegmentLocked()
			s.reserveLocked(len(rows) - i)
		}
		ts := r[timeIdx].I
		if len(s.active.Rows) == 0 || ts < s.active.MinTS {
			s.active.MinTS = ts
		}
		if len(s.active.Rows) == 0 || ts > s.active.MaxTS {
			s.active.MaxTS = ts
		}
		s.active.Rows = append(s.active.Rows, r)
		s.active.Bytes += sz
		s.totalRows++
		s.totalBytes += sz
	}
	return nil
}

// reserveLocked grows the active segment's row slice geometrically
// (never past the row-count seal threshold, which caps how long the
// slice can get) so a batch append triggers at most one copy here and
// none inside the per-row loop. Quadrupling copies ~N/3 headers per
// filled segment where runtime growslice's large-slice policy (~1.25×)
// copies ~5N — on the ingest hot path that was the single largest CPU
// sink. Readers are unaffected: Scan snapshots the slice header, and
// the retired array stays valid for any snapshot taken before the
// growth.
func (s *Store) reserveLocked(n int) {
	a := s.active
	need := len(a.Rows) + n
	if s.opts.MaxSegmentRows > 0 && need > s.opts.MaxSegmentRows {
		// Rows beyond the seal trigger spill into the next segment.
		need = s.opts.MaxSegmentRows
	}
	if cap(a.Rows) >= need {
		return
	}
	newCap := 4 * cap(a.Rows)
	if newCap < need {
		newCap = need
	}
	if s.opts.MaxSegmentRows > 0 && newCap > s.opts.MaxSegmentRows {
		newCap = s.opts.MaxSegmentRows
	}
	grown := make([]schema.Row, len(a.Rows), newCap)
	copy(grown, a.Rows)
	a.Rows = grown
}

// Seal forces the active segment into the sealed list and returns it
// (nil when the active segment is empty). The data builder calls this
// on its archive cadence so even a slow tenant's data eventually
// reaches OSS.
func (s *Store) Seal() *Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil || len(s.active.Rows) == 0 {
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
			s.totalRows -= int64(len(seg.Rows))
			s.totalBytes -= seg.Bytes
			s.sealed = append(s.sealed[:i], s.sealed[i+1:]...)
			return
		}
	}
}

// Scan streams every resident row (sealed then active, arrival order)
// to fn; returning false stops early.
func (s *Store) Scan(fn func(r schema.Row) bool) {
	s.mu.RLock()
	segs := make([]*Segment, 0, len(s.sealed)+1)
	segs = append(segs, s.sealed...)
	if s.active != nil && len(s.active.Rows) > 0 {
		segs = append(segs, s.active)
	}
	// Snapshot active length: rows are append-only so the prefix is
	// immutable; the slice header copy keeps iteration race-free.
	views := make([][]schema.Row, len(segs))
	for i, seg := range segs {
		views[i] = seg.Rows[:len(seg.Rows)]
	}
	s.mu.RUnlock()

	for _, rows := range views {
		for _, r := range rows {
			if !fn(r) {
				return
			}
		}
	}
}

// ScanTenant streams rows of one tenant within [minTS, maxTS],
// skipping segments whose time range cannot overlap. This is the
// real-time read path serving queries over not-yet-archived data. It
// returns the ids of the segments resident when it took its snapshot,
// the time-skipped ones included (nil when the store is empty): every
// row of them that was there at that instant has been offered to fn or
// is outside the range, so the caller must not also read it from a
// LogBlock born from one of them.
func (s *Store) ScanTenant(tenant, minTS, maxTS int64, fn func(r schema.Row) bool) (covered []uint64) {
	tenantIdx := s.sch.TenantIdx()
	timeIdx := s.sch.TimeIdx()

	type view struct {
		rows []schema.Row
		idx  []int32 // tenant's row positions, when indexed
	}
	var views []view
	s.mu.RLock()
	for i := 0; i <= len(s.sealed); i++ {
		seg := s.active
		if i < len(s.sealed) {
			seg = s.sealed[i]
		}
		if seg == nil || len(seg.Rows) == 0 {
			continue
		}
		if covered == nil {
			covered = make([]uint64, 0, len(s.sealed)+1-i)
			views = make([]view, 0, len(s.sealed)+1-i)
		}
		covered = append(covered, seg.ID)
		if seg.MaxTS < minTS || seg.MinTS > maxTS {
			continue // segment-level time skipping
		}
		// Rows are append-only, so the prefix under this slice header is
		// immutable once the lock is dropped.
		v := view{rows: seg.Rows}
		if s.opts.TenantIndex && seg != s.active {
			positions, ok := seg.tenantIndex(tenantIdx)[tenant]
			if !ok {
				continue // indexed segment without this tenant: skip it
			}
			v.idx = positions
		}
		views = append(views, v)
	}
	s.mu.RUnlock()

	emit := func(r schema.Row) bool {
		if r[tenantIdx].I != tenant {
			return true
		}
		if ts := r[timeIdx].I; ts < minTS || ts > maxTS {
			return true
		}
		return fn(r)
	}
	for _, v := range views {
		if v.idx != nil {
			for _, pos := range v.idx {
				if !emit(v.rows[pos]) {
					return covered
				}
			}
			continue
		}
		for _, r := range v.rows {
			if !emit(r) {
				return covered
			}
		}
	}
	return covered
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
