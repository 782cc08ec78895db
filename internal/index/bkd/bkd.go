// Package bkd implements the numeric-column index LogStore embeds in
// LogBlocks (paper §3.2). The paper uses a BKD tree (Procopiuc et al.);
// LogStore indexes scalar columns, and for one dimension a bulk-loaded
// BKD tree degenerates into a value-sorted forest of leaf blocks with a
// small in-memory routing level of per-leaf min/max keys — exactly what
// this package builds.
//
// Construction is bulk-only (LogBlocks are immutable): sort (value,
// rowID) pairs, pack them into fixed-size leaves, record each leaf's key
// range. A reader decodes the whole tree once, when it loads it, so a
// range query is two binary searches over the sorted values and a pass
// over the matching row ids — or, for a tree whose row ids are their
// positions and are not stored, a run of rows.
package bkd

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"logstore/internal/bitutil"
)

// DefaultLeafSize is the number of entries per leaf block. 512 keeps the
// routing level tiny while giving block-granular skipping inside the
// index itself.
const DefaultLeafSize = 512

// Builder accumulates (value, rowID) pairs for one numeric column. It
// is reusable: Reset empties it and keeps its memory.
type Builder struct {
	entries  []entry
	leafSize int

	// AppendTo scratch: the leaves region and its routing level.
	leaves []byte
	metas  []leafMeta
}

type entry struct {
	val int64
	row uint32
}

type leafMeta struct {
	min, max int64
	off      uint64
}

// NewBuilder returns a builder with the given leaf size (0 selects
// DefaultLeafSize).
func NewBuilder(leafSize int) *Builder {
	b := &Builder{}
	b.Reset(leafSize)
	return b
}

// Reset empties the builder for another column, keeping its buffers.
func (b *Builder) Reset(leafSize int) {
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	b.leafSize = leafSize
	b.entries = b.entries[:0]
}

// Add records the value of one row.
func (b *Builder) Add(rowID uint32, v int64) {
	b.entries = append(b.entries, entry{v, rowID})
}

// Len returns the number of entries added.
func (b *Builder) Len() int { return len(b.entries) }

// Build serializes the tree into a fresh buffer.
func (b *Builder) Build() []byte { return b.AppendTo(nil) }

// AppendTo serializes the tree, appending it to dst:
//
//	uvarint leafSize, uvarint entryCount, uvarint leafCount
//	byte rowIDs: 0 when the tree is an identity tree and stores none
//	routing level: per leaf — varint minVal, varint maxVal, uvarint byteOffset
//	leaves region: per leaf — uvarint n, delta-varint values, [uvarint rowIDs]
//
// An identity tree — the index of a column the LogBlock is sorted by,
// or of a constant one — stores no row ids: each is its position.
func (b *Builder) AppendTo(dst []byte) []byte {
	// (value, rowID) is a total order, so an unstable sort gives one
	// result; on a time-sorted or constant column it is a single pass.
	slices.SortFunc(b.entries, func(x, y entry) int {
		if c := cmp.Compare(x.val, y.val); c != 0 {
			return c
		}
		return cmp.Compare(x.row, y.row)
	})
	n := len(b.entries)
	nLeaves := (n + b.leafSize - 1) / b.leafSize
	identity := true
	for i, e := range b.entries {
		if e.row != uint32(i) {
			identity = false
			break
		}
	}

	leaves, metas := b.leaves[:0], b.metas[:0]
	for start := 0; start < n; start += b.leafSize {
		leaf := b.entries[start:min(start+b.leafSize, n)]
		metas = append(metas, leafMeta{
			min: leaf[0].val,
			max: leaf[len(leaf)-1].val,
			off: uint64(len(leaves)),
		})
		leaves = bitutil.AppendUvarint(leaves, uint64(len(leaf)))
		prev := int64(0)
		for _, e := range leaf {
			leaves = bitutil.AppendVarint(leaves, e.val-prev)
			prev = e.val
		}
		if !identity {
			for _, e := range leaf {
				leaves = bitutil.AppendUvarint(leaves, uint64(e.row))
			}
		}
	}
	b.leaves, b.metas = leaves, metas

	dst = bitutil.AppendUvarint(dst, uint64(b.leafSize))
	dst = bitutil.AppendUvarint(dst, uint64(n))
	dst = bitutil.AppendUvarint(dst, uint64(nLeaves))
	if identity {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
	}
	for _, m := range metas {
		dst = bitutil.AppendVarint(dst, m.min)
		dst = bitutil.AppendVarint(dst, m.max)
		dst = bitutil.AppendUvarint(dst, m.off)
	}
	return append(dst, leaves...)
}

// Tree answers range lookups over a BKD index decoded once, at Open:
// every entry's value and row id in two arrays in (value, row) order, so
// a lookup is two binary searches and a loop over row ids. The routing
// level is kept only to report how many leaves a lookup covers.
//
// An identity tree is one whose row ids are their positions, rows[i] ==
// i: the index of a column the LogBlock is sorted by (ts), or of a
// constant one (the tenant). Its matches are the rows [from, to), so a
// lookup sets them a word at a time instead of a row at a time, and it
// keeps no row ids.
type Tree struct {
	mins, maxs []int64 // per leaf, as routed (and checked against vals)
	vals       []int64
	rows       []uint32 // rows[i] is the row id of vals[i]; nil if identity
	identity   bool     // row i is the row id of vals[i]
}

// Open parses and decodes a tree AppendTo wrote. It does not alias
// raw. Corrupt input errors: counts beyond the bytes, truncated
// varints, values out of order within or across leaves, leaves that do
// not follow one another, routing keys that disagree with their leaf,
// and row ids beyond 32 bits.
func Open(raw []byte) (*Tree, error) {
	off := 0
	_, n, err := bitutil.Uvarint(raw[off:]) // leafSize: informational
	if err != nil {
		return nil, fmt.Errorf("bkd: leaf size: %w", err)
	}
	off += n
	entries, n, err := bitutil.Uvarint(raw[off:])
	if err != nil {
		return nil, fmt.Errorf("bkd: entry count: %w", err)
	}
	off += n
	nLeaves, n, err := bitutil.Uvarint(raw[off:])
	if err != nil {
		return nil, fmt.Errorf("bkd: leaf count: %w", err)
	}
	off += n
	if off >= len(raw) || raw[off] > 1 {
		return nil, fmt.Errorf("bkd: row-id flag missing or not 0 or 1")
	}
	storesRows := raw[off] == 1
	off++
	if nLeaves > entries+1 {
		return nil, fmt.Errorf("bkd: implausible leaf count %d for %d entries", nLeaves, entries)
	}
	// Bound both counts by what the input could physically hold before
	// allocating: every entry costs at least one byte in the leaf
	// region (a value varint, and a row-id uvarint unless the tree is
	// an identity one) and every leaf at least three bytes of routing
	// (min, max, offset), so a count beyond the remaining input is
	// corrupt, not merely large.
	if entries > uint64(len(raw)) {
		return nil, fmt.Errorf("bkd: entry count %d exceeds %d input bytes", entries, len(raw))
	}
	if nLeaves > uint64(len(raw)-off)/3+1 {
		return nil, fmt.Errorf("bkd: leaf count %d exceeds %d remaining bytes", nLeaves, len(raw)-off)
	}
	t := &Tree{
		mins: make([]int64, nLeaves),
		maxs: make([]int64, nLeaves),
		vals: make([]int64, 0, entries),
	}
	if storesRows {
		t.rows = make([]uint32, 0, entries)
	}
	offs := make([]int, nLeaves)
	for i := range offs {
		if t.mins[i], n, err = bitutil.Varint(raw[off:]); err != nil {
			return nil, fmt.Errorf("bkd: leaf %d min: %w", i, err)
		}
		off += n
		if t.maxs[i], n, err = bitutil.Varint(raw[off:]); err != nil {
			return nil, fmt.Errorf("bkd: leaf %d max: %w", i, err)
		}
		off += n
		o, n, err := bitutil.Uvarint(raw[off:])
		if err != nil {
			return nil, fmt.Errorf("bkd: leaf %d offset: %w", i, err)
		}
		off += n
		// Reject before the int conversion: a 64-bit offset can wrap to
		// a negative int.
		if o > uint64(len(raw)) {
			return nil, fmt.Errorf("bkd: leaf %d offset %d beyond input (%d bytes)", i, o, len(raw))
		}
		offs[i] = int(o)
	}
	leaves := raw[off:]
	off = 0
	for li, o := range offs {
		if o != off {
			return nil, fmt.Errorf("bkd: leaf %d offset %d, want %d: the leaves must follow one another", li, o, off)
		}
		if off, err = t.decodeLeaf(li, leaves, off, storesRows); err != nil {
			return nil, err
		}
	}
	if uint64(len(t.vals)) != entries {
		return nil, fmt.Errorf("bkd: %d entries in the leaves, %d in the header", len(t.vals), entries)
	}
	t.identity = true
	for i, r := range t.rows {
		if r != uint32(i) {
			t.identity = false
			break
		}
	}
	if t.identity {
		t.rows = nil
	}
	return t, nil
}

// decodeLeaf appends leaf li, which starts at data[off:], to t.vals and
// (when the tree stores them) t.rows, and returns the offset just past
// it.
func (t *Tree) decodeLeaf(li int, data []byte, off int, storesRows bool) (int, error) {
	cnt64, n, err := bitutil.Uvarint(data[off:])
	if err != nil {
		return 0, fmt.Errorf("bkd: leaf %d count: %w", li, err)
	}
	off += n
	// Each entry is at least one byte per varint it stores.
	perEntry := uint64(1)
	if storesRows {
		perEntry = 2
	}
	if cnt64 > uint64(len(data)-off)/perEntry {
		return 0, fmt.Errorf("bkd: leaf %d count %d exceeds %d remaining bytes", li, cnt64, len(data)-off)
	}
	if cnt64 == 0 {
		return 0, fmt.Errorf("bkd: leaf %d is empty", li)
	}
	start := len(t.vals)
	cur := int64(0)
	for i := 0; i < int(cnt64); i++ {
		d, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("bkd: leaf %d value %d truncated or malformed", li, i)
		}
		off += n
		// Deltas wrap (the builder subtracts in int64), so order is
		// checked on the sums, against the previous leaf's last value too.
		cur += d
		if len(t.vals) > 0 && cur < t.vals[len(t.vals)-1] {
			return 0, fmt.Errorf("bkd: leaf %d value %d breaks the sort order", li, i)
		}
		t.vals = append(t.vals, cur)
	}
	for i := 0; storesRows && i < int(cnt64); i++ {
		r, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("bkd: leaf %d row %d truncated or malformed", li, i)
		}
		off += n
		if r > math.MaxUint32 {
			return 0, fmt.Errorf("bkd: leaf %d row id %d outside the 32-bit row-id range", li, r)
		}
		t.rows = append(t.rows, uint32(r))
	}
	if lo, hi := t.vals[start], t.vals[len(t.vals)-1]; lo != t.mins[li] || hi != t.maxs[li] {
		return 0, fmt.Errorf("bkd: leaf %d routed as [%d, %d] holds [%d, %d]", li, t.mins[li], t.maxs[li], lo, hi)
	}
	return off, nil
}

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return len(t.vals) }

// Leaves returns the number of leaf blocks.
func (t *Tree) Leaves() int { return len(t.mins) }

// SizeBytes is the memory the decoded tree holds: 8 B per value, 4 B
// per row id, and the routing level.
func (t *Tree) SizeBytes() int64 { return int64(8*len(t.vals) + 4*len(t.rows) + 16*len(t.mins)) }

// Range collects the row ids of entries with lo <= value <= hi into a
// bitset of size rowCount, and reports how many leaves the routing level
// places over [lo, hi]. The bounds are inclusive; use math.MinInt64 /
// math.MaxInt64 for open ends. A row id outside [0, rowCount) is an
// error, not a dropped match.
func (t *Tree) Range(lo, hi int64, rowCount int) (*bitutil.Bitset, int, error) {
	bs := bitutil.NewBitset(rowCount)
	leaves, err := t.RangeInto(bs, lo, hi)
	if err != nil {
		return nil, leaves, err
	}
	return bs, leaves, nil
}

// RangeInto is Range setting the matching row ids in bs, an empty
// bitset whose length is the LogBlock's row count.
func (t *Tree) RangeInto(bs *bitutil.Bitset, lo, hi int64) (int, error) {
	rowCount := bs.Len()
	if lo > hi {
		return 0, nil
	}
	// Open checked that the routing keys are the leaves' own first and
	// last values, so both lists ascend.
	first, _ := slices.BinarySearch(t.maxs, lo)
	from, _ := slices.BinarySearch(t.vals, lo)
	past, to := len(t.mins), len(t.vals)
	if hi < math.MaxInt64 {
		past, _ = slices.BinarySearch(t.mins, hi+1)
		to, _ = slices.BinarySearch(t.vals, hi+1)
	}
	if t.identity {
		if from >= to {
			return past - first, nil
		}
		if to > rowCount {
			return past - first, fmt.Errorf("bkd: row id %d outside the %d-row LogBlock", max(from, rowCount), rowCount)
		}
		bs.SetRange(from, to)
		return past - first, nil
	}
	for _, r := range t.rows[from:to] {
		if int(r) >= rowCount {
			return past - first, fmt.Errorf("bkd: row id %d outside the %d-row LogBlock", r, rowCount)
		}
		bs.Set(int(r))
	}
	return past - first, nil
}
