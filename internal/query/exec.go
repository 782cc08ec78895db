package query

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"logstore/internal/bitutil"
	"logstore/internal/index/inverted"
	"logstore/internal/index/sma"
	"logstore/internal/logblock"
	"logstore/internal/schema"
)

// ExecStats counts the work one LogBlock execution performed; the
// experiment harness sums these to show what data skipping saves.
type ExecStats struct {
	// BlocksExamined counts LogBlocks the executor opened.
	BlocksExamined int `json:"blocks_examined"`
	// BlocksSkippedBySMA counts LogBlocks skipped entirely because a
	// column SMA refuted a predicate (Figure 8, step 2).
	BlocksSkippedBySMA int `json:"blocks_skipped_by_sma"`
	// IndexLookups counts index probes actually made (Figure 8, step 3).
	IndexLookups int `json:"index_lookups"`
	// ColumnBlocksSkipped counts column blocks not decoded because the
	// block-level SMA answered for them (refuted or implied) or the
	// accumulated row-id set had no candidate in them (Figure 8, step 4).
	ColumnBlocksSkipped int `json:"column_blocks_skipped"`
	// ColumnBlocksScanned counts column blocks decompressed and scanned.
	ColumnBlocksScanned int `json:"column_blocks_scanned"`
	// RowsMatched counts rows surviving all predicates.
	RowsMatched int `json:"rows_matched"`
	// PredsImpliedBySMA counts comparisons dropped because a column SMA
	// proved them true for every row of a LogBlock: neither the column's
	// index nor its data was read on their account.
	PredsImpliedBySMA int `json:"preds_implied_by_sma"`
	// IndexLeavesScanned counts BKD leaves the index probes read.
	IndexLeavesScanned int `json:"index_leaves_scanned"`
}

// Add folds another stats value into s.
func (s *ExecStats) Add(o ExecStats) {
	s.BlocksExamined += o.BlocksExamined
	s.BlocksSkippedBySMA += o.BlocksSkippedBySMA
	s.IndexLookups += o.IndexLookups
	s.ColumnBlocksSkipped += o.ColumnBlocksSkipped
	s.ColumnBlocksScanned += o.ColumnBlocksScanned
	s.RowsMatched += o.RowsMatched
	s.PredsImpliedBySMA += o.PredsImpliedBySMA
	s.IndexLeavesScanned += o.IndexLeavesScanned
}

// ExecOptions toggles optimizations for ablation experiments.
type ExecOptions struct {
	// DataSkipping enables SMA pruning and index use; disabled, every
	// predicate is evaluated by scanning all column blocks (the
	// "W/o Data Skipping" baseline of Figure 15).
	DataSkipping bool
}

// filter is one conjunct as MatchBlock applies it: a predicate as
// written, or the closed interval [lo, hi] that the conjunction's int64
// comparisons on one column fold into (pred == nil).
type filter struct {
	col    int
	pred   *Pred
	lo, hi int64
	folded int // comparisons folded into the interval
}

// refutedBy reports whether s rules out every row it summarizes.
func (f *filter) refutedBy(s *sma.SMA) bool {
	if f.pred == nil {
		return !s.MayMatchRange(f.lo, f.hi)
	}
	return !f.pred.Match && !s.MayMatch(f.pred.Op, f.pred.Val)
}

// impliedBy reports whether s proves the filter true for all of the
// rows rows it summarizes. Only intervals are ever implied.
func (f *filter) impliedBy(s *sma.SMA, rows int) bool {
	return f.pred == nil && s.AllMatchRange(f.lo, f.hi, rows)
}

// probesIndex reports whether f resolves through its column's index.
func (f *filter) probesIndex(m *logblock.Meta) bool {
	switch m.Columns[f.col].Index {
	case schema.IndexInverted:
		return f.pred != nil && (f.pred.Match || (f.pred.Op == sma.EQ && f.pred.Val.Kind == schema.String))
	case schema.IndexBKD:
		return f.pred == nil
	}
	return false
}

// eval narrows acc over one decoded column block starting at row start.
func (f *filter) eval(vec *logblock.Vector, acc *bitutil.Bitset, start int) {
	if f.pred != nil {
		EvalVector(*f.pred, vec, acc, start)
		return
	}
	EvalInt64Range(f.lo, f.hi, vec.Ints.Vals, acc, start)
}

// BlockPlan is what matching q does in one LogBlock, planned once from
// the meta member alone and shared by the caller's index wave
// (IndexColumns) and the match itself (Match). A plan from PlanBlock is
// pooled: its filters and bitsets serve the next plan once Release
// returns it.
type BlockPlan struct {
	meta    *logblock.Meta
	opts    ExecOptions
	filters []filter
	refuted bool // an SMA rules the LogBlock out
	implied int  // comparisons the SMAs prove for every row

	// acc is the set Match returns; probe takes one BKD range at a time.
	acc, probe bitutil.Bitset
}

var planPool = sync.Pool{New: func() any { return new(BlockPlan) }}

// PlanBlock plans q in the LogBlock m describes. The caller releases the
// plan once neither it nor the set its Match returned is in use.
func PlanBlock(m *logblock.Meta, q *Query, opts ExecOptions) (*BlockPlan, error) {
	p := planPool.Get().(*BlockPlan)
	if err := p.plan(m, q, opts); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// Release returns the plan to the pool. Neither the plan nor the set
// its Match returned may be used after.
func (p *BlockPlan) Release() {
	p.meta = nil
	clear(p.filters[:cap(p.filters)]) // they point into the query
	p.filters = p.filters[:0]
	planPool.Put(p)
}

// plan makes p the plan of q in m. Without DataSkipping that is every
// predicate as written. With it, the int64 comparisons on a column (=,
// >=, >, <=, <; a != or a constant of the wrong type stays as written)
// fold into one interval at the position of the first, and the column
// SMAs then answer both ways: refuted says one of them rules the
// LogBlock out (an empty interval always does), and an interval that
// contains a fully summarized column's [min, max] holds for every row
// and is dropped, its comparisons counted in implied. What is left is
// one index probe or scan per filter.
func (p *BlockPlan) plan(m *logblock.Meta, q *Query, opts ExecOptions) error {
	p.meta, p.opts = m, opts
	filters := p.filters[:0]
	p.refuted, p.implied = false, 0
	for i := range q.Preds {
		ci := m.Schema.ColumnIndex(q.Preds[i].Col)
		if ci < 0 {
			return fmt.Errorf("query: column %q not in LogBlock schema", q.Preds[i].Col)
		}
		filters = append(filters, filter{col: ci, pred: &q.Preds[i]})
	}
	p.filters = filters
	if !opts.DataSkipping {
		return nil
	}
	kept := filters[:0]
	for _, f := range filters {
		pr := f.pred
		if pr.Match || pr.Op == sma.NE || pr.Val.Kind != schema.Int64 || m.Schema.Columns[f.col].Type != schema.Int64 {
			kept = append(kept, f)
			continue
		}
		var iv *filter
		for i := range kept {
			if kept[i].pred == nil && kept[i].col == f.col {
				iv = &kept[i]
				break
			}
		}
		if iv == nil {
			kept = append(kept, filter{col: f.col, lo: math.MinInt64, hi: math.MaxInt64})
			iv = &kept[len(kept)-1]
		}
		iv.folded++
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		switch x := pr.Val.I; pr.Op {
		case sma.EQ:
			lo, hi = x, x
		case sma.GE:
			lo = x
		case sma.GT:
			if lo = x + 1; x == math.MaxInt64 {
				lo, hi = math.MaxInt64, math.MinInt64 // nothing is greater
			}
		case sma.LE:
			hi = x
		case sma.LT:
			if hi = x - 1; x == math.MinInt64 {
				lo, hi = math.MaxInt64, math.MinInt64 // nothing is smaller
			}
		}
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
	}
	filters, kept = kept, kept[:0]
	for _, f := range filters {
		cs := m.Columns[f.col].SMA
		if f.refutedBy(cs) {
			p.filters, p.refuted, p.implied = kept[:0], true, 0
			return nil
		}
		if f.impliedBy(cs, m.RowCount) {
			p.implied += f.folded
			continue
		}
		kept = append(kept, f)
	}
	p.filters = kept
	return nil
}

// MatchBlock computes the row ids within one LogBlock satisfying all of
// the query's predicates, using the multi-level skipping strategy.
// Without DataSkipping every predicate is scanned as written: the
// oracle the skipping plan is tested against.
func MatchBlock(r *logblock.Reader, q *Query, opts ExecOptions, stats *ExecStats) (*bitutil.Bitset, error) {
	p, err := PlanBlock(r.Meta, q, opts)
	if err != nil {
		stats.BlocksExamined++
		return nil, err
	}
	defer p.Release()
	matched, err := p.Match(r, stats)
	if err != nil {
		return nil, err
	}
	return matched.Clone(), nil // the caller's, not the plan's
}

// Match computes the row ids of the planned LogBlock, r, that satisfy
// every predicate: whole-LogBlock answers from the column SMAs first,
// then the index probes, then residual scans narrowed by the rows left.
// The set is the plan's.
func (p *BlockPlan) Match(r *logblock.Reader, stats *ExecStats) (*bitutil.Bitset, error) {
	m, opts := p.meta, p.opts
	stats.BlocksExamined++
	acc := &p.acc
	acc.Reset(m.RowCount)
	if p.refuted {
		stats.BlocksSkippedBySMA++
		return acc, nil
	}
	stats.PredsImpliedBySMA += p.implied
	acc.SetAll()

	// Cheapest strategies first: indexes, then residual scans narrowed
	// by the accumulated set.
	for i := range p.filters {
		f := &p.filters[i]
		if !opts.DataSkipping || !f.probesIndex(m) {
			continue
		}
		if err := p.indexLookup(r, f, stats); err != nil {
			return nil, err
		}
		// String equality via the inverted index is a candidate set (the
		// index analyzes case-insensitively); verify exact equality
		// against the stored values.
		if acc.Any() && f.pred != nil && !f.pred.Match {
			if err := verifyScan(r, f, acc, opts, stats); err != nil {
				return nil, err
			}
		}
		if !acc.Any() {
			return acc, nil
		}
	}
	for i := range p.filters {
		f := &p.filters[i]
		if opts.DataSkipping && f.probesIndex(m) {
			continue
		}
		if err := verifyScan(r, f, acc, opts, stats); err != nil {
			return nil, err
		}
		if !acc.Any() {
			return acc, nil
		}
	}
	stats.RowsMatched += acc.Count()
	return acc, nil
}

// IndexColumns appends to dst the columns whose index Match reads, so
// that a caller can fetch those members together instead of one
// dependent read per predicate. It appends none when the LogBlock is
// skipped before any index is read, and never a column whose
// comparisons the SMA already implies.
func (p *BlockPlan) IndexColumns(dst []int) []int {
	if !p.opts.DataSkipping {
		return dst
	}
	from := len(dst)
	for i := range p.filters {
		if f := &p.filters[i]; f.probesIndex(p.meta) && !slices.Contains(dst[from:], f.col) {
			dst = append(dst, f.col)
		}
	}
	return dst
}

// indexLookup narrows acc through the index of a filter that
// probesIndex: one BKD range per interval, one inverted lookup per
// string equality or MATCH.
func (p *BlockPlan) indexLookup(r *logblock.Reader, f *filter, stats *ExecStats) error {
	p.probe.Reset(r.Meta.RowCount)
	if f.pred != nil {
		ix, err := r.InvertedIndex(f.col)
		if err != nil {
			return err
		}
		stats.IndexLookups++
		bs, err := invertedLookup(ix, f.pred, &p.probe)
		if err != nil {
			return err
		}
		p.acc.And(bs)
		return nil
	}
	tree, err := r.BKDIndex(f.col)
	if err != nil {
		return err
	}
	stats.IndexLookups++
	leaves, err := tree.RangeInto(&p.probe, f.lo, f.hi)
	stats.IndexLeavesScanned += leaves
	if err != nil {
		return err
	}
	p.acc.And(&p.probe)
	return nil
}

// invertedLookup returns the rows an inverted index gives for a string
// equality or MATCH. An equality takes the rows of its rarest token
// into probe, empty and sized to the LogBlock: a candidate set, which
// Match verifies against the stored values. Every index format holds
// the tokens, whatever else it holds.
func invertedLookup(ix *inverted.Index, p *Pred, probe *bitutil.Bitset) (*bitutil.Bitset, error) {
	if !p.Match {
		return probe, ix.LookupRarest(probe, p.Terms)
	}
	bs, err := ix.LookupAll(p.Terms, probe.Len())
	if err != nil {
		return nil, err
	}
	for _, prefix := range p.Prefixes {
		if !bs.Any() {
			break
		}
		pbs, err := ix.LookupPrefix(prefix, probe.Len())
		if err != nil {
			return nil, err
		}
		bs.And(pbs)
	}
	return bs, nil
}

// verifyScan narrows acc by evaluating f against the column's stored
// values, scanning only column blocks that can matter: blocks with no
// candidate row in acc are skipped outright (a word-level range probe),
// and (with skipping on) so are blocks whose block-level SMA answers
// for them — refuted blocks lose their bits, implied blocks keep them,
// neither is decoded. Surviving blocks are decoded to typed vectors —
// through the decoded-vector cache when one is attached — and narrowed
// by the typed kernels.
func verifyScan(r *logblock.Reader, f *filter, acc *bitutil.Bitset, opts ExecOptions, stats *ExecStats) error {
	m := r.Meta
	blocks := m.Columns[f.col].Blocks
	for bi := 0; bi < m.NumBlocks; bi++ {
		start, end := m.BlockRowRange(bi)
		// Candidate check: any accumulated bit in this block's range?
		if !acc.AnyInRange(start, end) {
			stats.ColumnBlocksSkipped++
			continue
		}
		// Block-level SMA (Figure 8, step 4).
		if opts.DataSkipping {
			if f.refutedBy(blocks[bi].SMA) {
				stats.ColumnBlocksSkipped++
				acc.ClearRange(start, end)
				continue
			}
			if f.impliedBy(blocks[bi].SMA, blocks[bi].RowCount) {
				stats.ColumnBlocksSkipped++
				continue
			}
		}
		vec, err := r.BlockVector(f.col, bi)
		if err != nil {
			return err
		}
		stats.ColumnBlocksScanned++
		f.eval(vec, acc, start)
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
// Past decoding, it allocates per call, not per row: all cells share
// one array, and a string cell is a substring of its column block's
// decoded arena — no byte is copied, and a row the caller keeps keeps
// that arena alive after the vector leaves the decoded-vector cache.
func Materialize(r *logblock.Reader, matched *bitutil.Bitset, cols []int) ([]schema.Row, error) {
	n := matched.Count()
	out := make([]schema.Row, n)
	if n == 0 || len(cols) == 0 {
		for i := range out {
			out[i] = schema.Row{}
		}
		return out, nil
	}
	m := r.Meta
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
			sv := vec.Strs
			for i := matched.NextSet(start); i >= 0 && i < end; i = matched.NextSet(i + 1) {
				out[outIdx][colPos] = schema.StringValue(sv.Value(i - start))
				outIdx++
			}
		}
	}
	return out, nil
}

// ExecuteBlock runs match + materialize for one LogBlock.
func ExecuteBlock(r *logblock.Reader, q *Query, opts ExecOptions, stats *ExecStats) ([]schema.Row, error) {
	plan, err := PlanBlock(r.Meta, q, opts)
	if err != nil {
		stats.BlocksExamined++
		return nil, err
	}
	defer plan.Release()
	matched, err := plan.Match(r, stats)
	if err != nil {
		return nil, err
	}
	if q.CountStar && q.GroupBy == "" {
		// Counting needs no materialization; the caller reads the
		// match count from the returned row count.
		n := matched.Count()
		return make([]schema.Row, n), nil
	}
	if n := q.RowCap(); n > 0 {
		matched.KeepFirst(n)
	}
	return Materialize(r, matched, EffectiveColumns(q, r.Meta.Schema))
}
