package query

import (
	"fmt"
	"math"
	"slices"

	"logstore/internal/bitutil"
	"logstore/internal/index/sma"
	"logstore/internal/logblock"
	"logstore/internal/schema"
)

// ExecStats counts the work one LogBlock execution performed; the
// experiment harness sums these to show what data skipping saves.
type ExecStats struct {
	// BlocksExamined counts LogBlocks the executor opened.
	BlocksExamined int
	// BlocksSkippedBySMA counts LogBlocks skipped entirely because a
	// column SMA refuted a predicate (Figure 8, step 2).
	BlocksSkippedBySMA int
	// IndexLookups counts index probes (Figure 8, step 3).
	IndexLookups int
	// ColumnBlocksSkipped counts column blocks pruned by block-level
	// SMAs or by the accumulated row-id set (Figure 8, step 4).
	ColumnBlocksSkipped int
	// ColumnBlocksScanned counts column blocks decompressed and scanned.
	ColumnBlocksScanned int
	// RowsMatched counts rows surviving all predicates.
	RowsMatched int
}

// Add folds another stats value into s.
func (s *ExecStats) Add(o ExecStats) {
	s.BlocksExamined += o.BlocksExamined
	s.BlocksSkippedBySMA += o.BlocksSkippedBySMA
	s.IndexLookups += o.IndexLookups
	s.ColumnBlocksSkipped += o.ColumnBlocksSkipped
	s.ColumnBlocksScanned += o.ColumnBlocksScanned
	s.RowsMatched += o.RowsMatched
}

// ExecOptions toggles optimizations for ablation experiments.
type ExecOptions struct {
	// DataSkipping enables SMA pruning and index use; disabled, every
	// predicate is evaluated by scanning all column blocks (the
	// "W/o Data Skipping" baseline of Figure 15).
	DataSkipping bool
}

// MatchBlock computes the row ids within one LogBlock satisfying all of
// the query's predicates, using the multi-level skipping strategy.
func MatchBlock(r *logblock.Reader, q *Query, opts ExecOptions, stats *ExecStats) (*bitutil.Bitset, error) {
	m := r.Meta
	sch := m.Schema
	stats.BlocksExamined++

	acc := bitutil.NewBitset(m.RowCount)
	acc.SetAll()

	// Step 2: whole-LogBlock pruning via column SMAs.
	if opts.DataSkipping {
		refuted, err := refutedBySMA(m, q)
		if err != nil {
			return nil, err
		}
		if refuted {
			stats.BlocksSkippedBySMA++
			acc.ClearAll()
			return acc, nil
		}
	}

	// Per-predicate row sets, cheapest strategies first: indexes, then
	// residual scans narrowed by the accumulated set.
	var scanPreds []Pred
	for _, p := range q.Preds {
		if !opts.DataSkipping {
			scanPreds = append(scanPreds, p)
			continue
		}
		bs, used, err := indexLookup(r, p, stats)
		if err != nil {
			return nil, err
		}
		if used {
			acc.And(bs)
			if !acc.Any() {
				return acc, nil
			}
			// String equality via the inverted index is a candidate
			// set (the index analyzes case-insensitively); verify
			// exact equality against the stored values.
			if needVerify(sch, p) {
				if err := verifyScan(r, p, acc, opts, stats); err != nil {
					return nil, err
				}
				if !acc.Any() {
					return acc, nil
				}
			}
			continue
		}
		scanPreds = append(scanPreds, p)
	}
	for _, p := range scanPreds {
		if err := verifyScan(r, p, acc, opts, stats); err != nil {
			return nil, err
		}
		if !acc.Any() {
			return acc, nil
		}
	}
	stats.RowsMatched += acc.Count()
	return acc, nil
}

// refutedBySMA reports whether some column SMA rules out every row of
// the LogBlock for one of q's predicates.
func refutedBySMA(m *logblock.Meta, q *Query) (bool, error) {
	for _, p := range q.Preds {
		if p.Match {
			continue
		}
		ci := m.Schema.ColumnIndex(p.Col)
		if ci < 0 {
			return false, fmt.Errorf("query: column %q not in LogBlock schema", p.Col)
		}
		if !m.Columns[ci].SMA.MayMatch(p.Op, p.Val) {
			return true, nil
		}
	}
	return false, nil
}

// probesIndex reports whether p resolves through column ci's index.
func probesIndex(m *logblock.Meta, ci int, p Pred) bool {
	switch m.Columns[ci].Index {
	case schema.IndexInverted:
		return p.Match || (p.Op == sma.EQ && p.Val.Kind == schema.String)
	case schema.IndexBKD:
		return !p.Match && p.Val.Kind == schema.Int64 && p.Op != sma.NE // NE: index cannot help
	}
	return false
}

// IndexColumns returns the columns whose index MatchBlock reads for q
// in this LogBlock, so that a caller can fetch those members together
// instead of one dependent read per predicate. It is empty when the
// LogBlock is skipped before any index is read.
func IndexColumns(m *logblock.Meta, q *Query, opts ExecOptions) []int {
	if !opts.DataSkipping {
		return nil
	}
	if refuted, err := refutedBySMA(m, q); refuted || err != nil {
		return nil
	}
	var cols []int
	for _, p := range q.Preds {
		ci := m.Schema.ColumnIndex(p.Col)
		if ci >= 0 && probesIndex(m, ci, p) && !slices.Contains(cols, ci) {
			cols = append(cols, ci)
		}
	}
	return cols
}

// needVerify reports whether an index hit set for p is a superset that
// must be re-checked row by row.
func needVerify(sch *schema.Schema, p Pred) bool {
	if p.Match {
		return false // MATCH semantics are defined by the analyzer
	}
	ci := sch.ColumnIndex(p.Col)
	return ci >= 0 && sch.Columns[ci].Type == schema.String
}

// indexLookup resolves a predicate through the column's index when the
// predicate shape allows it. used=false means no index path exists.
func indexLookup(r *logblock.Reader, p Pred, stats *ExecStats) (*bitutil.Bitset, bool, error) {
	m := r.Meta
	ci := m.Schema.ColumnIndex(p.Col)
	if ci < 0 {
		return nil, false, fmt.Errorf("query: column %q not in LogBlock schema", p.Col)
	}
	if !probesIndex(m, ci, p) {
		return nil, false, nil
	}
	switch m.Columns[ci].Index {
	case schema.IndexInverted:
		ix, err := r.InvertedIndex(ci)
		if err != nil {
			return nil, false, err
		}
		stats.IndexLookups++
		if !p.Match {
			bs, err := ix.LookupBitset(p.Val.S, m.RowCount)
			return bs, true, err
		}
		bs, err := ix.LookupAll(p.Terms, m.RowCount)
		if err != nil {
			return nil, false, err
		}
		for _, prefix := range p.Prefixes {
			if !bs.Any() {
				break
			}
			pbs, err := ix.LookupPrefix(prefix, m.RowCount)
			if err != nil {
				return nil, false, err
			}
			bs.And(pbs)
		}
		return bs, true, nil
	case schema.IndexBKD:
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		switch p.Op {
		case sma.EQ:
			lo, hi = p.Val.I, p.Val.I
		case sma.GE:
			lo = p.Val.I
		case sma.GT:
			if p.Val.I == math.MaxInt64 {
				return bitutil.NewBitset(m.RowCount), true, nil
			}
			lo = p.Val.I + 1
		case sma.LE:
			hi = p.Val.I
		case sma.LT:
			if p.Val.I == math.MinInt64 {
				return bitutil.NewBitset(m.RowCount), true, nil
			}
			hi = p.Val.I - 1
		}
		tree, err := r.BKDIndex(ci)
		if err != nil {
			return nil, false, err
		}
		stats.IndexLookups++
		bs, err := tree.Range(lo, hi, m.RowCount)
		return bs, true, err
	}
	return nil, false, nil
}

// verifyScan narrows acc by evaluating p against the column's stored
// values, scanning only column blocks that can matter: blocks with no
// candidate row in acc are skipped outright (a word-level range probe),
// and (with skipping on) blocks whose block-level SMA refutes p are
// skipped too. Surviving blocks are decoded to typed vectors — through
// the decoded-vector cache when one is attached — and narrowed by the
// typed kernels.
func verifyScan(r *logblock.Reader, p Pred, acc *bitutil.Bitset, opts ExecOptions, stats *ExecStats) error {
	m := r.Meta
	ci := m.Schema.ColumnIndex(p.Col)
	if ci < 0 {
		return fmt.Errorf("query: column %q not in LogBlock schema", p.Col)
	}
	cm := m.Columns[ci]
	for bi := 0; bi < m.NumBlocks; bi++ {
		start, end := m.BlockRowRange(bi)
		// Candidate check: any accumulated bit in this block's range?
		if !acc.AnyInRange(start, end) {
			stats.ColumnBlocksSkipped++
			continue
		}
		// Block-level SMA (Figure 8, step 4).
		if opts.DataSkipping && !p.Match && !cm.Blocks[bi].SMA.MayMatch(p.Op, p.Val) {
			stats.ColumnBlocksSkipped++
			acc.ClearRange(start, end)
			continue
		}
		vec, err := r.BlockVector(ci, bi)
		if err != nil {
			return err
		}
		stats.ColumnBlocksScanned++
		EvalVector(p, vec, acc, start)
	}
	return nil
}

// EffectiveColumns resolves the projection to column ordinals.
func EffectiveColumns(q *Query, sch *schema.Schema) []int {
	if q.Star || q.CountStar {
		out := make([]int, len(sch.Columns))
		for i := range out {
			out[i] = i
		}
		if q.CountStar && q.GroupBy != "" {
			return []int{sch.ColumnIndex(q.GroupBy)}
		}
		if q.CountStar {
			return nil // counting needs no columns
		}
		return out
	}
	out := make([]int, 0, len(q.Select))
	for _, c := range q.Select {
		out = append(out, sch.ColumnIndex(c))
	}
	return out
}

// Materialize fetches the selected columns for the matched rows of one
// LogBlock, returning rows in row-id (= time) order, projected to cols.
func Materialize(r *logblock.Reader, matched *bitutil.Bitset, cols []int) ([]schema.Row, error) {
	n := matched.Count()
	if n == 0 || len(cols) == 0 {
		out := make([]schema.Row, n)
		for i := range out {
			out[i] = schema.Row{}
		}
		return out, nil
	}
	m := r.Meta
	out := make([]schema.Row, n)
	cells := make([]schema.Value, n*len(cols)) // one backing array for all rows
	for i := range out {
		out[i] = cells[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
	}
	// Column-at-a-time: fetch each needed column block once, walking
	// matched rows by set-bit iteration rather than probing every bit.
	for colPos, ci := range cols {
		outIdx := 0
		for bi := 0; bi < m.NumBlocks; bi++ {
			start, end := m.BlockRowRange(bi)
			if !matched.AnyInRange(start, end) {
				continue
			}
			vec, err := r.BlockVector(ci, bi)
			if err != nil {
				return nil, err
			}
			if vec.Type == schema.Int64 {
				vals := vec.Ints.Vals
				for i := matched.NextSet(start); i >= 0 && i < end; i = matched.NextSet(i + 1) {
					out[outIdx][colPos] = schema.IntValue(vals[i-start])
					outIdx++
				}
				continue
			}
			// String rows: dictionary blocks repeat arena extents, so
			// consecutive equal extents share one materialized string.
			sv := vec.Strs
			var prevStart, prevLen uint32
			var prevStr string
			havePrev := false
			for i := matched.NextSet(start); i >= 0 && i < end; i = matched.NextSet(i + 1) {
				j := i - start
				if !havePrev || sv.Starts[j] != prevStart || sv.Lens[j] != prevLen {
					prevStart, prevLen = sv.Starts[j], sv.Lens[j]
					prevStr = sv.Value(j)
					havePrev = true
				}
				out[outIdx][colPos] = schema.StringValue(prevStr)
				outIdx++
			}
		}
	}
	return out, nil
}

// ExecuteBlock runs match + materialize for one LogBlock.
func ExecuteBlock(r *logblock.Reader, q *Query, opts ExecOptions, stats *ExecStats) ([]schema.Row, error) {
	matched, err := MatchBlock(r, q, opts, stats)
	if err != nil {
		return nil, err
	}
	if q.CountStar && q.GroupBy == "" {
		// Counting needs no materialization; the caller reads the
		// match count from the returned row count.
		n := matched.Count()
		return make([]schema.Row, n), nil
	}
	return Materialize(r, matched, EffectiveColumns(q, r.Meta.Schema))
}
