package bkd

import (
	"math"
	"strings"
	"testing"

	"logstore/internal/bitutil"
)

// TestOpenCorrupt feeds hand-built corrupt serializations to Open:
// every case must produce an error, not a panic or an oversized
// allocation.
func TestOpenCorrupt(t *testing.T) {
	// routing appends one leaf's routing entry to out.
	routing := func(out []byte, min, max int64, off int) []byte {
		out = bitutil.AppendVarint(out, min)
		out = bitutil.AppendVarint(out, max)
		return bitutil.AppendUvarint(out, uint64(off))
	}
	// twoLeaves holds one entry per leaf, values 5 and v1, routed as
	// [5, max0] and [v1, v1], the second leaf's offset moved by skew.
	twoLeaves := func(max0, v1 int64, skew int) []byte {
		l0 := leafBytes([]int64{5}, []uint64{0})
		l1 := leafBytes([]int64{v1}, []uint64{1})
		out := routing(header(1, 2, 2), 5, max0, 0)
		out = routing(out, v1, v1, len(l0)+skew)
		return append(append(out, l0...), l1...)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "leaf size"},
		{"truncated header", bitutil.AppendUvarint(nil, 4), "entry count"},
		{"entry count beyond input", header(4, 1<<40, 1), "exceeds"},
		{"leaf count beyond entries", header(4, 3, 100), "implausible leaf count"},
		// Entry count fits the input (padding supplies the bytes), but
		// 11 leaves need 33 routing bytes and only 7 remain.
		{"leaf count beyond routing bytes", append(header(4, 10, 11), make([]byte, 7)...), "exceeds"},
		// Routing passes the count bound but the third field of leaf 0
		// is a truncated uvarint (lone continuation byte).
		{"truncated routing", append(header(4, 5, 2), 0x01, 0x01, 0x80), "leaf 0 offset"},
		{
			"offset beyond input",
			func() []byte {
				out := header(4, 2, 1)
				out = bitutil.AppendVarint(out, 0)
				out = bitutil.AppendVarint(out, 5)
				return bitutil.AppendUvarint(out, 1<<40)
			}(),
			"beyond input",
		},
		{"values out of order across leaves", twoLeaves(5, 4, 0), "leaf 1 value 0 breaks the sort order"},
		{"routing disagrees with the leaf", twoLeaves(6, 7, 0), "routed as [5, 6] holds [5, 5]"},
		{"leaves do not follow one another", twoLeaves(5, 7, 1), "leaf 1 offset"},
		{"entry count disagrees with the leaves",
			append(routing(header(4, 2, 1), 5, 5, 0), leafBytes([]int64{5}, []uint64{0})...),
			"1 entries in the leaves, 2 in the header"},
		{"empty leaf", append(routing(header(4, 1, 1), 5, 5, 0), 0, 0, 0), "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(tc.data)
			if err == nil {
				t.Fatalf("Open accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestScanLeafCorrupt builds structurally valid routing levels whose
// leaf regions lie. Every case must fail with an error: a damaged index
// that answered quietly would drop matches. Open decodes every leaf, so
// it catches all of them but one: a row id beyond the LogBlock, which
// only a lookup knows the size of.
func TestScanLeafCorrupt(t *testing.T) {
	// tree serializes one leaf with routing keys [min, max] over the
	// given leaf bytes.
	tree := func(min, max int64, leaf []byte) []byte {
		out := header(4, 4, 1) // leaf size, entries, one leaf
		out = bitutil.AppendVarint(out, min)
		out = bitutil.AppendVarint(out, max)
		out = bitutil.AppendUvarint(out, 0) // offset
		return append(out, leaf...)
	}
	// Two-byte values, so that a cut inside the row ids still leaves the
	// two bytes per entry the count bound asks for.
	good := leafBytes([]int64{1000, 3000, 5000, 7000}, []uint64{0, 1, 2, 3})
	cases := []struct {
		name    string
		data    []byte
		lo, hi  int64
		atRange bool // the error comes from Range, not Open
		want    string
	}{
		// Claims 200 entries, holds 2 bytes: the count bound rejects it.
		{"count beyond bytes", tree(0, 9, append(bitutil.AppendUvarint(nil, 200), 0x02, 0x04)),
			math.MinInt64, math.MaxInt64, false, "exceeds"},
		// Bitset.Set ignores an id past its length; the lookup must not.
		{"row id beyond the LogBlock, values decoded", tree(1, 7, leafBytes([]int64{1, 3, 5, 7}, []uint64{0, 1, 64, 3})),
			2, 6, true, "row id 64 outside"},
		// No LogBlock holds 2^40 rows: this is no row id at all.
		{"row id beyond the LogBlock, values skipped", tree(1, 7, leafBytes([]int64{1, 3, 5, 7}, []uint64{0, 1, 2, 1 << 40})),
			0, 9, false, "outside"},
		// The binary searches rely on order.
		{"values not sorted", tree(1, 7, leafBytes([]int64{1, 5, 3, 7}, []uint64{0, 1, 2, 3})),
			2, 6, false, "sort order"},
		{"row ids truncated, values skipped", tree(1000, 7000, good[:len(good)-2]),
			0, 9000, false, "row 2"},
		{"row ids truncated, values decoded", tree(1000, 7000, good[:len(good)-1]),
			2000, 9000, false, "row 3"},
		// Continuation bits to the end: the value run never finishes.
		{"values run off the end, values skipped", tree(1, 7, append(bitutil.AppendUvarint(nil, 4), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)),
			0, 9, false, "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Open(tc.data)
			switch {
			case err != nil && tc.atRange:
				t.Fatalf("Open rejected what only a lookup can fault: %v", err)
			case err == nil && !tc.atRange:
				t.Fatal("Open accepted a corrupt leaf")
			case err == nil:
				if _, _, err = tr.Range(tc.lo, tc.hi, 64); err == nil {
					t.Fatal("Range answered from a corrupt leaf")
				}
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The same leaf, intact, answers.
	tr, err := Open(tree(1000, 7000, good))
	if err != nil {
		t.Fatal(err)
	}
	if bs, leaves, err := tr.Range(2000, 6000, 64); err != nil || leaves != 1 || bs.Count() != 2 || !bs.Test(1) || !bs.Test(2) {
		t.Fatalf("intact leaf: %v rows in %d leaves, err %v", bs.Slice(), leaves, err)
	}
}

// leafBytes serializes one leaf: n, the values as deltas, then the row
// ids.
func leafBytes(vals []int64, rows []uint64) []byte {
	out := bitutil.AppendUvarint(nil, uint64(len(vals)))
	prev := int64(0)
	for _, v := range vals {
		out = bitutil.AppendVarint(out, v-prev)
		prev = v
	}
	for _, r := range rows {
		out = bitutil.AppendUvarint(out, r)
	}
	return out
}

// header serializes the head of a tree that stores its row ids: the
// three counts, then the row-id flag, set.
func header(leafSize, entries, nLeaves uint64) []byte {
	out := bitutil.AppendUvarint(nil, leafSize)
	out = bitutil.AppendUvarint(out, entries)
	return append(bitutil.AppendUvarint(out, nLeaves), 1)
}
