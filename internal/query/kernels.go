package query

import (
	"strings"

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

// EvalStrings narrows acc over rows [start, start+sv.Len()) by
// evaluating p against the string vector's values: arena substrings,
// so neither the comparisons nor MATCH (which tokenizes) copy a row.
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
		acc.FilterRange(start, end, func(i int) bool { return sv.Value(i-start) == s })
	case sma.NE:
		acc.FilterRange(start, end, func(i int) bool { return sv.Value(i-start) != s })
	case sma.LT:
		acc.FilterRange(start, end, func(i int) bool { return strings.Compare(sv.Value(i-start), s) < 0 })
	case sma.LE:
		acc.FilterRange(start, end, func(i int) bool { return strings.Compare(sv.Value(i-start), s) <= 0 })
	case sma.GT:
		acc.FilterRange(start, end, func(i int) bool { return strings.Compare(sv.Value(i-start), s) > 0 })
	case sma.GE:
		acc.FilterRange(start, end, func(i int) bool { return strings.Compare(sv.Value(i-start), s) >= 0 })
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
