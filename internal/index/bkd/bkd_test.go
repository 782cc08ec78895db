package bkd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildTree(t testing.TB, vals []int64, leafSize int) *Tree {
	t.Helper()
	b := NewBuilder(leafSize)
	for i, v := range vals {
		b.Add(uint32(i), v)
	}
	tree, err := Open(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func bruteRange(vals []int64, lo, hi int64) map[int]bool {
	want := map[int]bool{}
	for i, v := range vals {
		if v >= lo && v <= hi {
			want[i] = true
		}
	}
	return want
}

func checkRange(t *testing.T, tree *Tree, vals []int64, lo, hi int64) {
	t.Helper()
	bs, _, err := tree.Range(lo, hi, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	want := bruteRange(vals, lo, hi)
	if bs.Count() != len(want) {
		t.Fatalf("range [%d,%d]: got %d rows, want %d", lo, hi, bs.Count(), len(want))
	}
	bs.ForEach(func(i int) bool {
		if !want[i] {
			t.Fatalf("range [%d,%d]: row %d (val %d) should not match", lo, hi, i, vals[i])
		}
		return true
	})
}

func TestRangeBasic(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 1, 9, 0, -4, 100}
	tree := buildTree(t, vals, 3)
	checkRange(t, tree, vals, 1, 7)
	checkRange(t, tree, vals, -100, 200)
	checkRange(t, tree, vals, 9, 9)
	checkRange(t, tree, vals, 10, 99)
	checkRange(t, tree, vals, 200, 300)
	checkRange(t, tree, vals, math.MinInt64, math.MaxInt64)
}

func TestRangeEmptyAndInverted(t *testing.T) {
	tree := buildTree(t, nil, 4)
	bs, _, err := tree.Range(0, 10, 0)
	if err != nil || bs.Any() {
		t.Errorf("empty tree range = %v, %v", bs.Slice(), err)
	}
	vals := []int64{1, 2, 3}
	tree = buildTree(t, vals, 4)
	bs, _, err = tree.Range(5, 2, len(vals)) // inverted bounds
	if err != nil || bs.Any() {
		t.Errorf("inverted range should be empty: %v, %v", bs.Slice(), err)
	}
}

func TestDuplicateValues(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i % 5)
	}
	tree := buildTree(t, vals, 8)
	for v := int64(0); v < 5; v++ {
		bs, _, err := tree.Range(v, v, len(vals))
		if err != nil {
			t.Fatal(err)
		}
		if bs.Count() != 20 {
			t.Errorf("value %d: %d matches, want 20", v, bs.Count())
		}
	}
}

func TestLeafBoundaries(t *testing.T) {
	// Exactly at leaf-size multiples.
	for _, n := range []int{1, 511, 512, 513, 1024, 1025} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		tree := buildTree(t, vals, 0) // default leaf size
		if tree.Len() != n {
			t.Errorf("n=%d: Len=%d", n, tree.Len())
		}
		wantLeaves := (n + DefaultLeafSize - 1) / DefaultLeafSize
		if tree.Leaves() != wantLeaves {
			t.Errorf("n=%d: Leaves=%d, want %d", n, tree.Leaves(), wantLeaves)
		}
		checkRange(t, tree, vals, int64(n/3), int64(2*n/3))
	}
}

func TestNegativeValues(t *testing.T) {
	vals := []int64{math.MinInt64, -1000, -1, 0, 1, 1000, math.MaxInt64}
	tree := buildTree(t, vals, 2)
	checkRange(t, tree, vals, math.MinInt64, -1)
	checkRange(t, tree, vals, 0, math.MaxInt64)
	checkRange(t, tree, vals, math.MinInt64, math.MaxInt64)
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(3000)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1000) - 500
		}
		tree := buildTree(t, vals, 1+rng.Intn(300))
		for probe := 0; probe < 10; probe++ {
			lo := rng.Int63n(1200) - 600
			hi := lo + rng.Int63n(400)
			checkRange(t, tree, vals, lo, hi)
		}
	}
}

func TestQuickProperty(t *testing.T) {
	f := func(vals []int64, lo, hi int64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		b := NewBuilder(16)
		for i, v := range vals {
			b.Add(uint32(i), v)
		}
		tree, err := Open(b.Build())
		if err != nil {
			return false
		}
		bs, _, err := tree.Range(lo, hi, len(vals))
		if err != nil {
			return false
		}
		want := bruteRange(vals, lo, hi)
		if bs.Count() != len(want) {
			return false
		}
		ok := true
		bs.ForEach(func(i int) bool {
			if !want[i] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Error("nil input should error")
	}
	b := NewBuilder(4)
	for i := 0; i < 100; i++ {
		b.Add(uint32(i), int64(i))
	}
	raw := b.Build()
	for cut := 0; cut < len(raw)/2; cut += 5 {
		if _, err := Open(raw[:cut]); err == nil {
			// The routing level must be intact; truncating it errors.
			// (Truncating only the leaf region defers the error to scan.)
			t.Errorf("truncation to %d should error at Open", cut)
		}
	}
}

func TestTruncatedLeafRegionErrorsOnScan(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 64; i++ {
		b.Add(uint32(i), int64(i))
	}
	raw := b.Build()
	// Cut into the last leaf's data but keep the routing level intact.
	tree, err := Open(raw[:len(raw)-3])
	if err != nil {
		// Acceptable: Open caught it via offset validation.
		return
	}
	if _, _, err := tree.Range(0, 100, 64); err == nil {
		t.Error("scan over truncated leaf should error")
	}
}

func TestBuilderLen(t *testing.T) {
	b := NewBuilder(0)
	if b.Len() != 0 {
		t.Error("new builder should be empty")
	}
	b.Add(0, 1)
	b.Add(1, 2)
	if b.Len() != 2 {
		t.Errorf("Len = %d", b.Len())
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 100000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder(0)
		for j, v := range vals {
			bu.Add(uint32(j), v)
		}
		bu.Build()
	}
}

// benchIndex serializes the 100k-entry index BenchmarkOpen and
// BenchmarkRange share: values uniform over [0, 2^20).
func benchIndex() (raw []byte, n int) {
	rng := rand.New(rand.NewSource(1))
	bu := NewBuilder(0)
	for i := 0; i < 100000; i++ {
		bu.Add(uint32(i), rng.Int63n(1<<20))
	}
	return bu.Build(), bu.Len()
}

func BenchmarkOpen(b *testing.B) {
	raw, _ := benchIndex()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRange(b *testing.B) {
	raw, n := benchIndex()
	tree, err := Open(raw)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tree.Range(1000, 2000, n); err != nil {
			b.Fatal(err)
		}
	}
}
