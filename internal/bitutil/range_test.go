package bitutil

import (
	"math/rand"
	"testing"
)

// refAnyInRange is the scalar reference for AnyInRange.
func refAnyInRange(b *Bitset, start, end int) bool {
	for i := start; i < end; i++ {
		if b.Test(i) {
			return true
		}
	}
	return false
}

func refCountInRange(b *Bitset, start, end int) int {
	c := 0
	for i := start; i < end; i++ {
		if b.Test(i) {
			c++
		}
	}
	return c
}

func randomBitset(rng *rand.Rand, n int, density float64) *Bitset {
	b := NewBitset(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

func TestRangeKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 200, 1000} {
		for _, density := range []float64{0, 0.01, 0.5, 1} {
			b := randomBitset(rng, n, density)
			for trial := 0; trial < 50; trial++ {
				start := rng.Intn(n+2) - 1
				end := start + rng.Intn(n+2)
				if got, want := b.AnyInRange(start, end), refAnyInRange(b, start, end); got != want {
					t.Fatalf("AnyInRange(%d, %d) n=%d: got %v want %v", start, end, n, got, want)
				}
				if got, want := b.CountInRange(start, end), refCountInRange(b, start, end); got != want {
					t.Fatalf("CountInRange(%d, %d) n=%d: got %d want %d", start, end, n, got, want)
				}
				set := b.Clone()
				set.SetRange(start, end)
				for i := 0; i < n; i++ {
					want := b.Test(i) || (i >= start && i < end)
					if set.Test(i) != want {
						t.Fatalf("SetRange(%d, %d) n=%d: bit %d got %v want %v", start, end, n, i, set.Test(i), want)
					}
				}
				if set.Count() != refCountInRange(set, 0, n) {
					t.Fatalf("SetRange(%d, %d) n=%d set a bit past the end", start, end, n)
				}
				clr := b.Clone()
				clr.ClearRange(start, end)
				for i := 0; i < n; i++ {
					want := b.Test(i) && (i < start || i >= end)
					if clr.Test(i) != want {
						t.Fatalf("ClearRange(%d, %d) n=%d: bit %d got %v want %v", start, end, n, i, clr.Test(i), want)
					}
				}
			}
		}
	}
}

func TestNextSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 64, 65, 300} {
		b := randomBitset(rng, n, 0.1)
		want := b.Slice()
		var got []int
		for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
			got = append(got, i)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: NextSet walked %d bits, Slice has %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: NextSet bit %d = %d, want %d", n, i, got[i], want[i])
			}
		}
		if b.NextSet(-5) != b.NextSet(0) {
			t.Fatalf("NextSet should clamp negative indexes")
		}
		if b.NextSet(n) != -1 || b.NextSet(n+10) != -1 {
			t.Fatalf("NextSet past the end must return -1")
		}
	}
}

func TestFilterRange(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 64, 129, 500} {
		for trial := 0; trial < 30; trial++ {
			b := randomBitset(rng, n, 0.5)
			start := rng.Intn(n + 1)
			end := start + rng.Intn(n+1-start)
			orig := b.Clone()
			keepEven := func(i int) bool { return i%2 == 0 }
			b.FilterRange(start, end, keepEven)
			for i := 0; i < n; i++ {
				want := orig.Test(i)
				if i >= start && i < end && !keepEven(i) {
					want = false
				}
				if b.Test(i) != want {
					t.Fatalf("FilterRange(%d, %d) n=%d: bit %d got %v want %v", start, end, n, i, b.Test(i), want)
				}
			}
		}
	}
	// The callback must only see set bits inside the range.
	b := NewBitset(128)
	b.Set(3)
	b.Set(70)
	b.Set(127)
	var seen []int
	b.FilterRange(4, 127, func(i int) bool {
		seen = append(seen, i)
		return true
	})
	if len(seen) != 1 || seen[0] != 70 {
		t.Fatalf("FilterRange visited %v, want [70]", seen)
	}
}

func TestFilterRangeEmptyAndClamped(t *testing.T) {
	b := NewBitset(64)
	b.SetAll()
	b.FilterRange(10, 10, func(int) bool { return false })
	if b.Count() != 64 {
		t.Fatal("empty range must not change the set")
	}
	b.FilterRange(-10, 1000, func(int) bool { return false })
	if b.Count() != 0 {
		t.Fatal("clamped full range must clear everything")
	}
}
