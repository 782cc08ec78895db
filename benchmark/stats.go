package main

import (
	"math"
	"sort"
)

// tailGuard is how many samples must lie beyond a reported tail
// percentile: below that the "percentile" is one or two outliers.
const tailGuard = 10

// median returns the middle of vals (mean of the two middles for an
// even count); 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 {
	return quantile(sortedCopy(vals), 0.5)
}

func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// quantile linearly interpolates the q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tail picks the highest percentile at or below want that still has at
// least tailGuard samples beyond it, and returns its value together
// with the percentile actually used. With fewer than 2*tailGuard
// samples no tail is supportable and the median is returned.
func tail(sorted []float64, want float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n < 2*tailGuard {
		return quantile(sorted, 0.5), 50
	}
	// Rank r (0-based) has n-1-r samples beyond it.
	r := int(math.Ceil(want/100*float64(n))) - 1
	if maxRank := n - 1 - tailGuard; r > maxRank {
		r = maxRank
	}
	if r < 0 {
		r = 0
	}
	return sorted[r], 100 * float64(r+1) / float64(n)
}

// spread summarizes repeated measurements of one metric.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// IQRFrac is (Q3-Q1)/median and RangeFrac is (max-min)/median: the
	// run-to-run spreads the bounds in BENCHMARK.json are derived from.
	IQRFrac   float64 `json:"iqr_frac"`
	RangeFrac float64 `json:"range_frac"`
}

// summarize computes the spread of vals, with quartiles by the same
// rule as Python's statistics.quantiles(vals, n=4) (exclusive method),
// which is what the driver applies.
func summarize(vals []float64) spread {
	s := sortedCopy(vals)
	out := spread{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.Min, out.Max = s[0], s[len(s)-1]
	out.Median = quantile(s, 0.5)
	out.Q1, out.Q3 = exclusiveQuantile(s, 0.25), exclusiveQuantile(s, 0.75)
	if out.Median != 0 {
		out.IQRFrac = (out.Q3 - out.Q1) / math.Abs(out.Median)
		out.RangeFrac = (out.Max - out.Min) / math.Abs(out.Median)
	}
	return out
}

// exclusiveQuantile is the (n+1)-based quantile of an ascending slice,
// clamped to the data range.
func exclusiveQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(math.Floor(pos))
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}
