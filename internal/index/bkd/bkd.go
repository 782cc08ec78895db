// Package bkd implements the numeric-column index LogStore embeds in
// LogBlocks (paper §3.2). The paper uses a BKD tree (Procopiuc et al.);
// LogStore indexes scalar columns, and for one dimension a bulk-loaded
// BKD tree degenerates into a value-sorted forest of leaf blocks with a
// small in-memory routing level of per-leaf min/max keys — exactly what
// this package builds.
//
// Construction is bulk-only (LogBlocks are immutable): sort (value,
// rowID) pairs, pack them into fixed-size leaves, record each leaf's key
// range. A range query binary-searches the routing level and scans only
// leaves whose range intersects the predicate, returning a row-id set.
package bkd

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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
//	routing level: per leaf — varint minVal, varint maxVal, uvarint byteOffset
//	leaves region: per leaf — uvarint n, delta-varint values, uvarint rowIDs
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
		for _, e := range leaf {
			leaves = bitutil.AppendUvarint(leaves, uint64(e.row))
		}
	}
	b.leaves, b.metas = leaves, metas

	dst = bitutil.AppendUvarint(dst, uint64(b.leafSize))
	dst = bitutil.AppendUvarint(dst, uint64(n))
	dst = bitutil.AppendUvarint(dst, uint64(nLeaves))
	for _, m := range metas {
		dst = bitutil.AppendVarint(dst, m.min)
		dst = bitutil.AppendVarint(dst, m.max)
		dst = bitutil.AppendUvarint(dst, m.off)
	}
	return append(dst, leaves...)
}

// Tree provides range lookups over a serialized BKD index.
type Tree struct {
	entryCount int
	mins       []int64
	maxs       []int64
	offs       []int
	leaves     []byte
}

// Open parses the routing level of a serialized tree. Leaf data is
// decoded lazily per query.
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
	if nLeaves > entries+1 {
		return nil, fmt.Errorf("bkd: implausible leaf count %d for %d entries", nLeaves, entries)
	}
	// Bound both counts by what the input could physically hold before
	// allocating: every entry costs at least two bytes in the leaf
	// region (one value varint, one row-id uvarint) and every leaf at
	// least three bytes of routing (min, max, offset), so a count beyond
	// the remaining input is corrupt, not merely large.
	if entries > uint64(len(raw)) {
		return nil, fmt.Errorf("bkd: entry count %d exceeds %d input bytes", entries, len(raw))
	}
	if nLeaves > uint64(len(raw)-off)/3+1 {
		return nil, fmt.Errorf("bkd: leaf count %d exceeds %d remaining bytes", nLeaves, len(raw)-off)
	}
	t := &Tree{
		entryCount: int(entries),
		mins:       make([]int64, nLeaves),
		maxs:       make([]int64, nLeaves),
		offs:       make([]int, nLeaves),
	}
	for i := 0; i < int(nLeaves); i++ {
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
		// a negative int and slip past the range check below.
		if o > uint64(len(raw)) {
			return nil, fmt.Errorf("bkd: leaf %d offset %d beyond input (%d bytes)", i, o, len(raw))
		}
		t.offs[i] = int(o)
	}
	t.leaves = raw[off:]
	for i, o := range t.offs {
		if o > len(t.leaves) {
			return nil, fmt.Errorf("bkd: leaf %d offset %d beyond leaf region (%d bytes)", i, o, len(t.leaves))
		}
	}
	return t, nil
}

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.entryCount }

// Leaves returns the number of leaf blocks.
func (t *Tree) Leaves() int { return len(t.offs) }

// Range collects the row ids of entries with lo <= value <= hi into a
// bitset of size rowCount, and reports how many leaves it read. The
// bounds are inclusive; use math.MinInt64 / math.MaxInt64 for open ends.
//
// A leaf the routing level places wholly inside [lo, hi] (an interior
// leaf) contributes every row id without its values being decoded; a
// boundary leaf is decoded up to the first value above hi. A row id
// outside [0, rowCount) is an error, not a dropped match.
func (t *Tree) Range(lo, hi int64, rowCount int) (*bitutil.Bitset, int, error) {
	bs := bitutil.NewBitset(rowCount)
	if lo > hi {
		return bs, 0, nil
	}
	// Leaves are sorted by min value; find the first leaf whose max >= lo.
	first := sort.Search(len(t.offs), func(i int) bool { return t.maxs[i] >= lo })
	leaves := 0
	// Every leaf from the first one starting beyond hi on is out of range.
	for li := first; li < len(t.offs) && t.mins[li] <= hi; li++ {
		leaves++
		if err := t.scanLeaf(li, lo, hi, bs); err != nil {
			return nil, leaves, err
		}
	}
	return bs, leaves, nil
}

func (t *Tree) scanLeaf(li int, lo, hi int64, bs *bitutil.Bitset) error {
	data := t.leaves[t.offs[li]:]
	cnt64, off, err := bitutil.Uvarint(data)
	if err != nil {
		return fmt.Errorf("bkd: leaf %d count: %w", li, err)
	}
	// Each entry is at least two bytes (value varint + row-id uvarint).
	if cnt64 > uint64(len(data)-off)/2 {
		return fmt.Errorf("bkd: leaf %d count %d exceeds %d remaining bytes", li, cnt64, len(data)-off)
	}
	cnt := int(cnt64)

	// A leaf is value-sorted, so its entries inside [lo, hi] are one run
	// [from, to). An interior leaf's run is the whole leaf; a boundary
	// leaf's is found by decoding values until the first one above hi.
	from, to, undecoded := 0, cnt, cnt
	if t.mins[li] < lo || t.maxs[li] > hi {
		cur := int64(0)
		for i := 0; i < cnt; i++ {
			d, n, err := bitutil.Varint(data[off:])
			if err != nil {
				return fmt.Errorf("bkd: leaf %d value %d: %w", li, i, err)
			}
			off += n
			undecoded--
			// Deltas wrap (the builder subtracts in int64), so order is
			// checked on the sums. The early stop and the single run
			// both rely on it.
			if i > 0 && cur+d < cur {
				return fmt.Errorf("bkd: leaf %d value %d breaks the sort order", li, i)
			}
			cur += d
			if cur > hi {
				to = i
				break
			}
			if cur < lo {
				from = i + 1
			}
		}
	}
	if off, err = skipVarints(data, off, undecoded+from); err != nil {
		return fmt.Errorf("bkd: leaf %d: %w", li, err)
	}
	for i := from; i < to; i++ {
		r, n, err := bitutil.Uvarint(data[off:])
		if err != nil {
			return fmt.Errorf("bkd: leaf %d row %d: %w", li, i, err)
		}
		off += n
		if r >= uint64(bs.Len()) {
			return fmt.Errorf("bkd: leaf %d row id %d outside the %d-row LogBlock", li, r, bs.Len())
		}
		bs.Set(int(r))
	}
	return nil
}

// skipVarints advances off past n varints without decoding them: a
// varint ends at its first byte with the continuation bit clear.
func skipVarints(data []byte, off, n int) (int, error) {
	for ; n > 0; n-- {
		for {
			if off >= len(data) {
				return 0, fmt.Errorf("truncated: %d entries short", n)
			}
			off++
			if data[off-1] < 0x80 {
				break
			}
		}
	}
	return off, nil
}
