package query

import (
	"logstore/internal/bitutil"
	"logstore/internal/index/sma"
	"logstore/internal/logblock"
	"logstore/internal/schema"
)

// Typed predicate kernels: the vectorized replacements for row-at-a-time
// Pred.EvalRow on the residual-scan path. Each kernel narrows the
// accumulator bitset over one column block's row range, visiting only
// candidate bits word by word and clearing non-matches in place. The
// comparison is hoisted out of the loop by switching on the operator
// once per block instead of once per row.

// EvalInt64s narrows acc over rows [start, start+len(vals)) by
// evaluating p against the unboxed int64 column values.
func EvalInt64s(p Pred, vals []int64, acc *bitutil.Bitset, start int) {
	end := start + len(vals)
	if p.Match || p.Val.Kind != schema.Int64 {
		// MATCH and type-mismatched comparisons never hold on an int64
		// column (EvalRow returns false), so no candidate survives.
		acc.ClearRange(start, end)
		return
	}
	x := p.Val.I
	switch p.Op {
	case sma.EQ:
		acc.FilterRange(start, end, func(i int) bool { return vals[i-start] == x })
	case sma.NE:
		acc.FilterRange(start, end, func(i int) bool { return vals[i-start] != x })
	case sma.LT:
		acc.FilterRange(start, end, func(i int) bool { return vals[i-start] < x })
	case sma.LE:
		acc.FilterRange(start, end, func(i int) bool { return vals[i-start] <= x })
	case sma.GT:
		acc.FilterRange(start, end, func(i int) bool { return vals[i-start] > x })
	case sma.GE:
		acc.FilterRange(start, end, func(i int) bool { return vals[i-start] >= x })
	default:
		acc.ClearRange(start, end)
	}
}

// EvalInt64Range narrows acc over rows [start, start+len(vals)) to the
// rows with lo <= value <= hi: the kernel of a folded interval.
func EvalInt64Range(lo, hi int64, vals []int64, acc *bitutil.Bitset, start int) {
	acc.FilterRange(start, start+len(vals), func(i int) bool { return vals[i-start] >= lo && vals[i-start] <= hi })
}

// compareBytesString is bytes.Compare against a string without
// converting either side (schema.Value.Compare is byte-wise too).
func compareBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) == len(s):
		return 0
	case len(b) < len(s):
		return -1
	default:
		return 1
	}
}

// EvalStrings narrows acc over rows [start, start+sv.Len()) by
// evaluating p against the string vector's arena bytes. Comparison
// predicates never copy the value out of the arena; MATCH (which
// tokenizes) boxes only the candidate rows it visits.
func EvalStrings(p Pred, sv *logblock.StringVector, acc *bitutil.Bitset, start int) {
	end := start + sv.Len()
	if p.Match {
		acc.FilterRange(start, end, func(i int) bool {
			return p.EvalRow(schema.StringValue(sv.Value(i - start)))
		})
		return
	}
	if p.Val.Kind != schema.String {
		acc.ClearRange(start, end)
		return
	}
	s := p.Val.S
	switch p.Op {
	case sma.EQ:
		// string(b) == s compiles to an allocation-free comparison.
		acc.FilterRange(start, end, func(i int) bool { return string(sv.Bytes(i-start)) == s })
	case sma.NE:
		acc.FilterRange(start, end, func(i int) bool { return string(sv.Bytes(i-start)) != s })
	case sma.LT:
		acc.FilterRange(start, end, func(i int) bool { return compareBytesString(sv.Bytes(i-start), s) < 0 })
	case sma.LE:
		acc.FilterRange(start, end, func(i int) bool { return compareBytesString(sv.Bytes(i-start), s) <= 0 })
	case sma.GT:
		acc.FilterRange(start, end, func(i int) bool { return compareBytesString(sv.Bytes(i-start), s) > 0 })
	case sma.GE:
		acc.FilterRange(start, end, func(i int) bool { return compareBytesString(sv.Bytes(i-start), s) >= 0 })
	default:
		acc.ClearRange(start, end)
	}
}

// EvalVector dispatches to the typed kernel for one decoded block.
func EvalVector(p Pred, vec *logblock.Vector, acc *bitutil.Bitset, start int) {
	if vec.Type == schema.Int64 {
		EvalInt64s(p, vec.Ints.Vals, acc, start)
	} else {
		EvalStrings(p, vec.Strs, acc, start)
	}
}
