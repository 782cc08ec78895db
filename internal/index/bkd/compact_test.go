package bkd

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestCompactMatchesLegacy builds sorted, constant and random int
// columns of 1 to 5000 rows with the builder, at the default leaf size
// and a small one, and requires the tree to answer every range as a
// filter over the (value, row) pairs does (it once compared against the
// encoding that stored every row id): the same rows and the same leaf
// count, for bounds at every distinct value (a sample of them on wide
// columns), one either side of it, and the ends of the domain. Sorted
// and constant columns must make identity trees, which store no row
// ids.
func TestCompactMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	sizes := []int{1, 2, 7, 512, 513, 1000, 5000}
	for i := 0; i < 3; i++ {
		sizes = append(sizes, 1+rng.Intn(5000))
	}
	for _, n := range sizes {
		for _, shape := range []string{"sorted", "constant", "random"} {
			vals := make([]int64, n)
			for i := range vals {
				switch shape {
				case "sorted":
					vals[i] = 1_600_000_000_000 + int64(i)*int64(rng.Intn(2000)) + int64(i)
				case "constant":
					vals[i] = 42
				default:
					vals[i] = rng.Int63n(1000) - 500
				}
			}
			if shape == "sorted" {
				slices.Sort(vals)
			}
			for _, leafSize := range []int{DefaultLeafSize, 1 + rng.Intn(16)} {
				b := NewBuilder(leafSize)
				for i, v := range vals {
					b.Add(uint32(i), v)
				}
				raw := b.Build()
				got, err := Open(raw)
				if err != nil {
					t.Fatalf("%s/%d/%d: %v", shape, n, leafSize, err)
				}
				legacy := legacyBuild(leafSize, vals)
				// Values already in row order make an identity tree: always
				// for sorted and constant columns, by chance for a short
				// random one.
				identity := slices.IsSorted(vals)
				if got.identity != identity || (got.rows == nil) != identity {
					t.Fatalf("%s/%d/%d: identity %v with %d row ids", shape, n, leafSize, got.identity, len(got.rows))
				}
				// It saves a byte or more per row id but the first, which
				// pays for the row-id flag.
				if identity && len(raw) > len(legacy)-(n-1) {
					t.Errorf("%s/%d/%d: %d bytes, legacy %d: an identity tree should store no row ids", shape, n, leafSize, len(raw), len(legacy))
				}
				distinct := slices.Clone(vals)
				slices.Sort(distinct)
				distinct = slices.Compact(distinct)
				if len(distinct) > 16 {
					rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
					distinct = distinct[:16]
				}
				bounds := []int64{math.MinInt64, math.MaxInt64}
				for _, v := range distinct {
					bounds = append(bounds, v-1, v, v+1)
				}
				for _, lo := range bounds {
					for _, hi := range bounds {
						g, gl, err := got.Range(lo, hi, n)
						w, wl := filterRange(vals, leafSize, lo, hi)
						if err != nil || gl != wl || !slices.Equal(g.Slice(), w) {
							t.Fatalf("%s/%d/%d: Range(%d, %d) = %d rows in %d leaves (%v); filter %d rows in %d",
								shape, n, leafSize, lo, hi, g.Count(), gl, err, len(w), wl)
						}
					}
				}
			}
		}
	}
}

// filterRange is the reference Range over vals, a column's values by
// row: the rows whose value lies in [lo, hi], and how many leaves of
// leafSize sorted values meet that interval.
func filterRange(vals []int64, leafSize int, lo, hi int64) ([]int, int) {
	if lo > hi {
		return nil, 0
	}
	var rows []int
	for i, v := range vals {
		if lo <= v && v <= hi {
			rows = append(rows, i)
		}
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	leaves := 0
	for start := 0; start < len(sorted); start += leafSize {
		if leaf := sorted[start:min(start+leafSize, len(sorted))]; leaf[len(leaf)-1] >= lo && leaf[0] <= hi {
			leaves++
		}
	}
	return rows, leaves
}
