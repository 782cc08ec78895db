package bkd

import (
	"math"
	"slices"
	"testing"
)

// FuzzBKDOpen feeds arbitrary bytes to Open and runs range queries —
// the fuzzed bounds among them — over whatever parses: corrupt input
// must error (or produce a tree whose queries error), never panic or
// allocate unbounded memory. The same bytes, read as (row, value)
// pairs, also go through the builder, where Range must equal a naive
// filter over the pairs, in rows and in leaves. The checked-in
// seed-identity and seed-rows entries are what AppendTo writes;
// seed-tree and seed-truncated are the encoding before the row-id
// flag, which Open must refuse or survive.
func FuzzBKDOpen(f *testing.F) {
	b := NewBuilder(4)
	for i := 0; i < 40; i++ {
		b.Add(uint32(i), int64(i%7)-3)
	}
	f.Add(b.Build(), int64(-1), int64(2))
	f.Add(NewBuilder(0).Build(), int64(0), int64(0))
	single := NewBuilder(8)
	single.Add(7, 42)
	f.Add(single.Build(), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add([]byte{}, int64(5), int64(-5))
	// Huge leaf count with no routing data behind it.
	f.Add([]byte{0x04, 0x10, 0xff, 0xff, 0xff, 0xff, 0x0f}, int64(0), int64(9))

	f.Add(legacyBuild(4, []int64{3, -1, 3, 8, 0}), int64(0), int64(3))
	identity := NewBuilder(4)
	for i := 0; i < 20; i++ {
		identity.Add(uint32(i), int64(i/3))
	}
	f.Add(identity.Build(), int64(2), int64(4))

	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64) {
		builderMade(t, data, lo, hi)
		tr, err := Open(data)
		if err != nil {
			return
		}
		if bs, _, err := tr.Range(math.MinInt64, math.MaxInt64, 1024); err == nil {
			if got := bs.Count(); got > 1024 {
				t.Fatalf("range produced %d rows in a 1024-bit set", got)
			}
		}
		_, _, _ = tr.Range(lo, hi, 256)
		_, _, _ = tr.Range(hi, lo, 256) // one of the two is inverted or a point
	})
}

// builderMade indexes one (row, value) pair per input byte — values
// spread over the whole domain so that deltas wrap, with runs of
// duplicates — and checks Range(lo, hi), its rows and the leaves it
// reports, against the pairs.
func builderMade(t *testing.T, data []byte, lo, hi int64) {
	if len(data) == 0 {
		return
	}
	b := NewBuilder(1 + int(data[0])%9)
	vals := make([]int64, len(data))
	for i, c := range data {
		vals[i] = int64(int8(c)) << (c % 8 * 8) // sign-extended, then spread
		b.Add(uint32(i), vals[i])
	}
	tr, err := Open(b.Build())
	if err != nil {
		t.Fatalf("builder-made tree does not open: %v", err)
	}
	bs, leaves, err := tr.Range(lo, hi, len(vals))
	if err != nil {
		t.Fatalf("Range(%d, %d) on a builder-made tree: %v", lo, hi, err)
	}
	if leaves > tr.Leaves() {
		t.Fatalf("Range read %d of %d leaves", leaves, tr.Leaves())
	}
	if rows, wantLeaves := filterRange(vals, b.leafSize, lo, hi); !slices.Equal(bs.Slice(), rows) || leaves != wantLeaves {
		t.Fatalf("Range(%d, %d) = %v in %d leaves; filter %v in %d", lo, hi, bs.Slice(), leaves, rows, wantLeaves)
	}
}
