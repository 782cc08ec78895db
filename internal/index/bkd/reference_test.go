package bkd

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"logstore/internal/bitutil"
)

// refTree is the leaf walk Range used before the tree was decoded at
// Open: it parses only the routing level and decodes the leaves a
// lookup reaches, skipping the values of a leaf that lies wholly inside
// [lo, hi]. It is kept as the reference the decoded tree must match.
type refTree struct {
	mins, maxs []int64
	offs       []int
	leaves     []byte
}

// legacyBuild is the builder's AppendTo as it was before identity trees
// dropped their row ids: the same sort, leaves and routing level, no
// row-id flag, and every leaf's row ids stored. The leaf walk reads
// what it writes.
func legacyBuild(leafSize int, vals []int64) []byte {
	type pair struct {
		val int64
		row uint32
	}
	entries := make([]pair, len(vals))
	for i, v := range vals {
		entries[i] = pair{v, uint32(i)}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].val < entries[j].val })
	var leaves, routing []byte
	nLeaves := 0
	for start := 0; start < len(entries); start += leafSize {
		leaf := entries[start:min(start+leafSize, len(entries))]
		nLeaves++
		routing = bitutil.AppendVarint(routing, leaf[0].val)
		routing = bitutil.AppendVarint(routing, leaf[len(leaf)-1].val)
		routing = bitutil.AppendUvarint(routing, uint64(len(leaves)))
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
	out := bitutil.AppendUvarint(nil, uint64(leafSize))
	out = bitutil.AppendUvarint(out, uint64(len(entries)))
	out = bitutil.AppendUvarint(out, uint64(nLeaves))
	return append(append(out, routing...), leaves...)
}

// openRef parses the routing level of a legacyBuild-made tree.
func openRef(raw []byte) (*refTree, error) {
	var vals [3]uint64
	off := 0
	for i := range vals {
		v, n, err := bitutil.Uvarint(raw[off:])
		if err != nil {
			return nil, err
		}
		vals[i], off = v, off+n
	}
	t := &refTree{}
	for i := uint64(0); i < vals[2]; i++ {
		lo, n, err := bitutil.Varint(raw[off:])
		if err != nil {
			return nil, err
		}
		off += n
		hi, n, err := bitutil.Varint(raw[off:])
		if err != nil {
			return nil, err
		}
		off += n
		o, n, err := bitutil.Uvarint(raw[off:])
		if err != nil {
			return nil, err
		}
		off += n
		t.mins, t.maxs, t.offs = append(t.mins, lo), append(t.maxs, hi), append(t.offs, int(o))
	}
	t.leaves = raw[off:]
	return t, nil
}

func (t *refTree) Range(lo, hi int64, rowCount int) (*bitutil.Bitset, int, error) {
	bs := bitutil.NewBitset(rowCount)
	if lo > hi {
		return bs, 0, nil
	}
	first := sort.Search(len(t.offs), func(i int) bool { return t.maxs[i] >= lo })
	leaves := 0
	for li := first; li < len(t.offs) && t.mins[li] <= hi; li++ {
		leaves++
		if err := t.scanLeaf(li, lo, hi, bs); err != nil {
			return nil, leaves, err
		}
	}
	return bs, leaves, nil
}

func (t *refTree) scanLeaf(li int, lo, hi int64, bs *bitutil.Bitset) error {
	data := t.leaves[t.offs[li]:]
	cnt64, off, err := bitutil.Uvarint(data)
	if err != nil {
		return err
	}
	cnt := int(cnt64)
	from, to, undecoded := 0, cnt, cnt
	if t.mins[li] < lo || t.maxs[li] > hi {
		cur := int64(0)
		for i := 0; i < cnt; i++ {
			d, n, err := bitutil.Varint(data[off:])
			if err != nil {
				return err
			}
			off += n
			undecoded--
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
	// Skip the undecoded values and the row ids before the run: a varint
	// ends at its first byte with the continuation bit clear.
	for n := undecoded + from; n > 0; n-- {
		for data[off] >= 0x80 {
			off++
		}
		off++
	}
	for i := from; i < to; i++ {
		r, n, err := bitutil.Uvarint(data[off:])
		if err != nil {
			return err
		}
		off += n
		if r >= uint64(bs.Len()) {
			return fmt.Errorf("row id %d outside", r)
		}
		bs.Set(int(r))
	}
	return nil
}

// TestRangeMatchesLeafWalk checks the decoded tree against the leaf walk
// over the legacy encoding of the same column, on random trees: small
// leaves, runs of duplicates that
// straddle leaf edges, values at both ends of the domain (so deltas
// wrap), and bounds that are open, at the extremes, or inverted. The
// row-id sets and the leaves-read counts must be identical. Every third
// tree indexes a column in row order, sorted or constant, so that it is
// an identity tree, and those are also probed with a row count short of
// their rows, where both must fail.
func TestRangeMatchesLeafWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	value := func(domain int64) int64 {
		if rng.Intn(4) == 0 {
			return extremes[rng.Intn(len(extremes))]
		}
		return rng.Int63n(domain) - domain/2
	}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(60)
		domain := int64(1 + rng.Intn(12)) // few distinct values: duplicates cross leaf edges
		b := NewBuilder(1 + rng.Intn(9))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = value(domain)
		}
		ordered := trial%3 == 0
		if ordered {
			slices.Sort(vals)
			if trial%2 == 0 {
				for i := range vals {
					vals[i] = vals[0] // constant
				}
			}
		}
		for i, v := range vals {
			b.Add(uint32(i), v)
		}
		tree, err := Open(b.Build())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ordered && (!tree.identity || tree.rows != nil) {
			t.Fatalf("trial %d: values %v in row order make no identity tree", trial, vals)
		}
		ref, err := openRef(legacyBuild(b.leafSize, vals))
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		for probe := 0; probe < 30; probe++ {
			lo, hi := value(domain+2), value(domain+2)
			if probe%5 != 0 && lo > hi {
				lo, hi = hi, lo // mostly well-formed, every fifth as drawn
			}
			got, gotLeaves, err := tree.Range(lo, hi, n)
			if err != nil {
				t.Fatalf("trial %d: Range(%d, %d): %v", trial, lo, hi, err)
			}
			want, wantLeaves, err := ref.Range(lo, hi, n)
			if err != nil {
				t.Fatalf("trial %d: reference Range(%d, %d): %v", trial, lo, hi, err)
			}
			if !slices.Equal(got.Slice(), want.Slice()) || gotLeaves != wantLeaves {
				t.Fatalf("trial %d, values %v: Range(%d, %d) = %v in %d leaves, leaf walk %v in %d",
					trial, vals, lo, hi, got.Slice(), gotLeaves, want.Slice(), wantLeaves)
			}
			if short := n / 2; ordered && got.Any() && got.Slice()[got.Count()-1] >= short {
				_, _, err := tree.Range(lo, hi, short)
				_, _, werr := ref.Range(lo, hi, short)
				if err == nil || werr == nil {
					t.Fatalf("trial %d: Range(%d, %d) over %d rows: %v, leaf walk %v; want both to fail", trial, lo, hi, short, err, werr)
				}
			}
		}
	}
}
