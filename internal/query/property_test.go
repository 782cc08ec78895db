package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"logstore/internal/bitutil"
	"logstore/internal/index/inverted"
	"logstore/internal/index/sma"
	"logstore/internal/logblock"
	"logstore/internal/schema"
)

// The property: MatchBlock must be observationally identical to a scalar
// row-at-a-time reference — bit-identical match sets and identical
// ExecStats — over random schemas, blocks, and predicates, with data
// skipping both on and off, and both must equal the row-by-row EvalRow
// truth. The reference plans the way planBlock does (one interval per
// int64 column) but decides everything from boxed values and the
// predicates as written: which rows an interval holds for, which index
// leaves a probe reads, whether every row of a column satisfies it.

// refFilter is one conjunct of the reference plan: a predicate as
// written, or (fold) every int64 comparison on one column.
type refFilter struct {
	col   int
	preds []Pred
	fold  bool
}

func (f *refFilter) holds(v schema.Value) bool {
	for _, p := range f.preds {
		if !p.EvalRow(v) {
			return false
		}
	}
	return true
}

// bounds folds the comparisons the plain way: the largest lower bound
// and the smallest upper bound, empty when a strict comparison sits at
// the end of the domain or the bounds cross.
func (f *refFilter) bounds() (lo, hi int64, empty bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	for _, p := range f.preds {
		x := p.Val.I
		l, h := int64(math.MinInt64), int64(math.MaxInt64)
		switch p.Op {
		case sma.EQ:
			l, h = x, x
		case sma.GE:
			l = x
		case sma.LE:
			h = x
		case sma.GT:
			if x == math.MaxInt64 {
				empty = true
			} else {
				l = x + 1
			}
		case sma.LT:
			if x == math.MinInt64 {
				empty = true
			} else {
				h = x - 1
			}
		}
		lo, hi = max(lo, l), min(hi, h)
	}
	return lo, hi, empty || lo > hi
}

// refuted and implied answer from one SMA, for rows rows.
func (f *refFilter) refuted(s *sma.SMA) bool {
	if !f.fold {
		return !f.preds[0].Match && !s.MayMatch(f.preds[0].Op, f.preds[0].Val)
	}
	lo, hi, empty := f.bounds()
	return s.Count == 0 || empty || hi < s.MinI || lo > s.MaxI
}

func (f *refFilter) implied(s *sma.SMA, rows int) bool {
	if !f.fold || s.Count != int64(rows) {
		return false
	}
	lo, hi, empty := f.bounds()
	return !empty && lo <= s.MinI && s.MaxI <= hi
}

func refPlan(m *logblock.Meta, q *Query, fold bool) ([]refFilter, error) {
	var out []refFilter
next:
	for _, p := range q.Preds {
		ci := m.Schema.ColumnIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("query: column %q not in LogBlock schema", p.Col)
		}
		foldable := fold && !p.Match && p.Op != sma.NE &&
			p.Val.Kind == schema.Int64 && m.Schema.Columns[ci].Type == schema.Int64
		if foldable {
			for i := range out {
				if out[i].fold && out[i].col == ci {
					out[i].preds = append(out[i].preds, p)
					continue next
				}
			}
		}
		out = append(out, refFilter{col: ci, preds: []Pred{p}, fold: foldable})
	}
	return out, nil
}

// refVerifyScan is the scalar reference for verifyScan: boxed values,
// Pred.EvalRow per row, bit-at-a-time candidate probing. It must mirror
// verifyScan's skip accounting exactly.
func refVerifyScan(r *logblock.Reader, f *refFilter, acc *bitutil.Bitset, opts ExecOptions, stats *ExecStats) error {
	m := r.Meta
	cm := m.Columns[f.col]
	for bi := 0; bi < m.NumBlocks; bi++ {
		start, end := m.BlockRowRange(bi)
		any := false
		for i := start; i < end; i++ {
			if acc.Test(i) {
				any = true
				break
			}
		}
		if !any {
			stats.ColumnBlocksSkipped++
			continue
		}
		if opts.DataSkipping && f.refuted(cm.Blocks[bi].SMA) {
			stats.ColumnBlocksSkipped++
			for i := start; i < end; i++ {
				acc.Clear(i)
			}
			continue
		}
		if opts.DataSkipping && f.implied(cm.Blocks[bi].SMA, cm.Blocks[bi].RowCount) {
			stats.ColumnBlocksSkipped++
			continue
		}
		vec, err := r.BlockVector(f.col, bi)
		if err != nil {
			return err
		}
		stats.ColumnBlocksScanned++
		for i := start; i < end; i++ {
			if acc.Test(i) && !f.holds(vec.Value(i-start)) {
				acc.Clear(i)
			}
		}
	}
	return nil
}

// refBKDProbe is a BKD range probe without the tree: the rows an
// interval holds for, and the leaves a value-sorted forest of leafSize
// entries per leaf has with a key range meeting [lo, hi].
func refBKDProbe(f *refFilter, rows []schema.Row, leafSize int) (*bitutil.Bitset, int) {
	bs := bitutil.NewBitset(len(rows))
	vals := make([]int64, len(rows))
	for i, row := range rows {
		vals[i] = row[f.col].I
		if f.holds(row[f.col]) {
			bs.Set(i)
		}
	}
	lo, hi, empty := f.bounds()
	if empty {
		return bs, 0
	}
	slices.Sort(vals)
	leaves := 0
	for s := 0; s < len(vals); s += leafSize {
		leaf := vals[s:min(s+leafSize, len(vals))]
		if leaf[len(leaf)-1] >= lo && leaf[0] <= hi {
			leaves++
		}
	}
	return bs, leaves
}

func refFilterPtrs(fs []refFilter) []*refFilter {
	out := make([]*refFilter, len(fs))
	for i := range fs {
		out[i] = &fs[i]
	}
	return out
}

// refMatchBlock is the scalar reference for MatchBlock: with skipping
// off every predicate is a scan; with it on, the column SMAs refute the
// LogBlock or drop implied intervals, indexes resolve what they can,
// and the rest is scanned.
func refMatchBlock(d *propData, q *Query, opts ExecOptions, stats *ExecStats) (*bitutil.Bitset, error) {
	r, m := d.r, d.r.Meta
	stats.BlocksExamined++
	acc := bitutil.NewBitset(m.RowCount)
	filters, err := refPlan(m, q, opts.DataSkipping)
	if err != nil {
		return nil, err
	}
	var scan []*refFilter
	if !opts.DataSkipping {
		filters, scan = nil, refFilterPtrs(filters)
	}
	for i := range filters {
		if filters[i].refuted(m.Columns[filters[i].col].SMA) {
			stats.BlocksSkippedBySMA++
			return acc, nil
		}
	}
	acc.SetAll()
	for i := range filters {
		f := &filters[i]
		if f.implied(m.Columns[f.col].SMA, m.RowCount) {
			stats.PredsImpliedBySMA += len(f.preds)
			continue
		}
		p := f.preds[0]
		switch kind := m.Columns[f.col].Index; {
		case kind == schema.IndexBKD && f.fold:
			bs, leaves := refBKDProbe(f, d.rows, d.leafSize)
			stats.IndexLookups++
			stats.IndexLeavesScanned += leaves
			acc.And(bs)
		case kind == schema.IndexInverted && (p.Match || (p.Op == sma.EQ && p.Val.Kind == schema.String)):
			// The inverted index has its own reference tests; probe it.
			ix, err := r.InvertedIndex(f.col)
			if err != nil {
				return nil, err
			}
			stats.IndexLookups++
			bs, err := invertedLookup(ix, &p, bitutil.NewBitset(m.RowCount))
			if err != nil {
				return nil, err
			}
			acc.And(bs)
			if acc.Any() && !p.Match {
				if err := refVerifyScan(r, f, acc, opts, stats); err != nil {
					return nil, err
				}
			}
		default:
			scan = append(scan, f)
			continue
		}
		if !acc.Any() {
			return acc, nil
		}
	}
	for _, f := range scan {
		if err := refVerifyScan(r, f, acc, opts, stats); err != nil {
			return nil, err
		}
		if !acc.Any() {
			return acc, nil
		}
	}
	stats.RowsMatched += acc.Count()
	return acc, nil
}

// propData is one random LogBlock with what the reference needs to
// know about how it was built.
type propData struct {
	r        *logblock.Reader
	rows     []schema.Row
	leafSize int
}

// randomDataset builds a random schema + rows + reader. One trial in
// five has logblock.MinIndexedRows rows or one fewer, the sizes either
// side of index admission. One trial in four, the code column's SMAs
// claim fewer rows than the column holds — what a column with an
// invalid row looks like to the planner — so nothing on that column
// may be implied.
func randomDataset(t *testing.T, rng *rand.Rand) *propData {
	t.Helper()
	intIndexes := []schema.IndexKind{schema.IndexNone, schema.IndexBKD}
	strIndexes := []schema.IndexKind{schema.IndexNone, schema.IndexInverted}
	sch := &schema.Schema{
		Name: "prop",
		Columns: []schema.Column{
			{Name: "tenant_id", Type: schema.Int64, Index: intIndexes[rng.Intn(2)]},
			{Name: "ts", Type: schema.Int64, Index: intIndexes[rng.Intn(2)]},
			{Name: "code", Type: schema.Int64, Index: intIndexes[rng.Intn(2)]},
			{Name: "api", Type: schema.String, Index: strIndexes[rng.Intn(2)]},
			{Name: "msg", Type: schema.String, Index: strIndexes[rng.Intn(2)]},
		},
		TenantCol: "tenant_id",
		TimeCol:   "ts",
	}
	vocab := []string{"get user", "put object", "delete bucket", "list keys", "auth denied", "timeout waiting upstream"}
	n := 1 + rng.Intn(500)
	if rng.Intn(5) == 0 { // either side of index admission
		n = logblock.MinIndexedRows - rng.Intn(2)
	}
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{
			schema.IntValue(7),        // builders pack one tenant per LogBlock
			schema.IntValue(int64(i)), // time-ordered
			schema.IntValue(int64(rng.Intn(20) - 5)),
			schema.StringValue(vocab[rng.Intn(3)]),
			schema.StringValue(fmt.Sprintf("%s seq %d", vocab[rng.Intn(len(vocab))], rng.Intn(50))),
		}
	}
	d := &propData{rows: rows, leafSize: 2 + rng.Intn(64)}
	built, err := logblock.Build(sch, rows, logblock.BuildOptions{BlockRows: 16 + rng.Intn(300), BKDLeafSize: d.leafSize})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if d.r, err = logblock.OpenReader(logblock.BytesFetcher(packed)); err != nil {
		t.Fatal(err)
	}
	if rng.Intn(4) == 0 {
		cm := d.r.Meta.Columns[sch.ColumnIndex("code")]
		cm.SMA.Count--
		for _, bh := range cm.Blocks {
			bh.SMA.Count--
		}
	}
	return d
}

// randomPreds draws one to three conjuncts: comparisons on int and
// string columns (sometimes out of range, sometimes kind-mismatched),
// MATCH queries with terms and prefixes, and — what the planner folds —
// windows on one column (sometimes contradictory, sometimes holding an
// equality inside or outside), the constant tenant column, and
// constants at the ends of the int64 domain.
func randomPreds(rng *rand.Rand, nrows int) []Pred {
	ops := []sma.Op{sma.EQ, sma.NE, sma.LT, sma.LE, sma.GT, sma.GE}
	op := func() sma.Op { return ops[rng.Intn(len(ops))] }
	intCol := func() string { return []string{"ts", "code", "tenant_id"}[rng.Intn(3)] }
	tsVal := func() schema.Value { return schema.IntValue(int64(rng.Intn(nrows+20) - 10)) }
	switch rng.Intn(10) {
	case 0: // int comparison in/around range
		return []Pred{{Col: intCol(), Op: op(), Val: schema.IntValue(int64(rng.Intn(40) - 10))}}
	case 1: // int comparison far out of range: SMA refutes or implies
		return []Pred{{Col: "code", Op: op(), Val: schema.IntValue(int64(1000 + rng.Intn(100)))}}
	case 2: // string comparison
		vals := []string{"get user", "put object", "delete bucket", "zzz missing"}
		lit := vals[rng.Intn(len(vals))]
		return []Pred{{Col: "api", Op: op(), Val: schema.StringValue(lit), Terms: inverted.Tokenize(lit)}}
	case 3: // kind mismatch: never matches, never folds
		if rng.Intn(2) == 0 {
			return []Pred{{Col: "api", Op: op(), Val: schema.IntValue(3)}}
		}
		return []Pred{{Col: "code", Op: op(), Val: schema.StringValue("get user")}}
	case 4: // MATCH terms
		terms := [][]string{{"timeout"}, {"auth", "denied"}, {"seq"}, {"nosuchtoken"}}
		return []Pred{{Col: "msg", Match: true, Terms: terms[rng.Intn(len(terms))]}}
	case 5: // MATCH with a prefix
		return []Pred{{Col: "msg", Match: true, Terms: []string{"seq"}, Prefixes: []string{[]string{"time", "de", "up"}[rng.Intn(3)]}}}
	case 6: // time window, one time in five contradictory
		a, b := tsVal(), tsVal()
		if (a.I > b.I) != (rng.Intn(5) == 0) {
			a, b = b, a
		}
		return []Pred{{Col: "ts", Op: sma.GE, Val: a}, {Col: "ts", Op: sma.LE, Val: b}}
	case 7: // an equality and a strict window on one column, any order
		ps := []Pred{
			{Col: "ts", Op: sma.GT, Val: tsVal()},
			{Col: "ts", Op: sma.EQ, Val: tsVal()},
			{Col: "ts", Op: sma.LT, Val: tsVal()},
		}
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		return ps
	case 8: // the constant column: always implied or refuted
		return []Pred{{Col: "tenant_id", Op: op(), Val: schema.IntValue(int64(6 + rng.Intn(3)))}}
	default: // the ends of the domain
		ends := []int64{math.MinInt64, math.MaxInt64}
		return []Pred{{Col: intCol(), Op: op(), Val: schema.IntValue(ends[rng.Intn(2)])}}
	}
}

func bitsetsEqual(a, b *bitutil.Bitset) bool {
	if a.Len() != b.Len() || a.Count() != b.Count() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Test(i) != b.Test(i) {
			return false
		}
	}
	return true
}

func TestMatchBlockPropertyVsScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var total ExecStats
	var unindexed, indexed int // trials on either side of index admission
	for trial := 0; trial < 400; trial++ {
		d := randomDataset(t, rng)
		r, rows := d.r, d.rows
		switch len(rows) {
		case logblock.MinIndexedRows - 1:
			unindexed++
		case logblock.MinIndexedRows:
			indexed++
		}
		q := &Query{Table: "prop", Star: true}
		for n := rng.Intn(4); n > 0; n-- {
			q.Preds = append(q.Preds, randomPreds(rng, len(rows))...)
		}
		for _, skipping := range []bool{true, false} {
			opts := ExecOptions{DataSkipping: skipping}
			var vecStats, refStats ExecStats
			got, err := MatchBlock(r, q, opts, &vecStats)
			if err != nil {
				t.Fatalf("trial %d skipping=%v: MatchBlock: %v", trial, skipping, err)
			}
			want, err := refMatchBlock(d, q, opts, &refStats)
			if err != nil {
				t.Fatalf("trial %d skipping=%v: reference: %v", trial, skipping, err)
			}
			if !bitsetsEqual(got, want) {
				t.Fatalf("trial %d skipping=%v: match sets differ (%d vs %d rows)\nquery: %s",
					trial, skipping, got.Count(), want.Count(), q)
			}
			if vecStats != refStats {
				t.Fatalf("trial %d skipping=%v: stats differ\nvectorized: %+v\nreference:  %+v\nquery: %s",
					trial, skipping, vecStats, refStats, q)
			}
			total.Add(vecStats)
			// Cross-check against ground truth: every row evaluated with
			// the scalar Pred.EvalRow over the original input rows.
			sch := r.Meta.Schema
			for i, row := range rows {
				wantRow := true
				for _, p := range q.Preds {
					if !p.EvalRow(row[sch.ColumnIndex(p.Col)]) {
						wantRow = false
						break
					}
				}
				// With skipping on, MATCH hits resolved purely through the
				// inverted index follow analyzer semantics, which EvalRow
				// mirrors; both paths must agree with the truth.
				if got.Test(i) != wantRow {
					t.Fatalf("trial %d skipping=%v row %d: matched=%v want %v\nrow: %v\nquery: %s",
						trial, skipping, i, got.Test(i), wantRow, row, q)
				}
			}
		}
	}
	// The trials must have reached every level of the ladder.
	if total.BlocksSkippedBySMA == 0 || total.PredsImpliedBySMA == 0 || total.IndexLookups == 0 ||
		total.IndexLeavesScanned <= total.IndexLookups || total.ColumnBlocksSkipped == 0 ||
		total.ColumnBlocksScanned == 0 || total.RowsMatched == 0 {
		t.Fatalf("a skipping level was never exercised: %+v", total)
	}
	if unindexed == 0 || indexed == 0 {
		t.Fatalf("%d trials of MinIndexedRows-1 rows and %d of MinIndexedRows, want both", unindexed, indexed)
	}
}

// TestImpliedNeedsFullSMA pins the condition under which an SMA may
// answer "every row": it must have summarized every row.
func TestImpliedNeedsFullSMA(t *testing.T) {
	r, rows := buildBlock(t, 300, 64)
	requireIndexed(t, r)
	q, err := Parse("SELECT log FROM request_log WHERE tenant_id = 42 AND latency >= 0")
	if err != nil {
		t.Fatal(err)
	}
	var full ExecStats
	if _, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &full); err != nil {
		t.Fatal(err)
	}
	if full.PredsImpliedBySMA != 2 || full.IndexLookups != 0 || full.ColumnBlocksScanned != 0 || full.RowsMatched != len(rows) {
		t.Fatalf("fully summarized columns: %+v, want both comparisons implied and nothing read", full)
	}
	r.Meta.Columns[r.Meta.Schema.ColumnIndex("latency")].SMA.Count--
	var short ExecStats
	bs, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &short)
	if err != nil {
		t.Fatal(err)
	}
	if short.PredsImpliedBySMA != 1 || short.IndexLookups != 1 || bs.Count() != len(rows) {
		t.Fatalf("latency SMA one row short: %+v (%d rows), want its comparison probed, not implied", short, bs.Count())
	}
}

// TestIndexColumnsEqualsProbedSet: the columns IndexColumns names are
// the indexes MatchBlock parses on a cold reader — all of them when no
// probe came back empty (an empty one ends the match early), and never
// one IndexColumns did not name.
func TestIndexColumnsEqualsProbedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	exact := 0
	for trial := 0; trial < 200; trial++ {
		d := randomDataset(t, rng)
		q := &Query{Table: "prop", Star: true}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			q.Preds = append(q.Preds, randomPreds(rng, len(d.rows))...)
		}
		opts := ExecOptions{DataSkipping: true}
		plan, err := PlanBlock(d.r.Meta, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		named := plan.IndexColumns(nil)
		var stats ExecStats
		bs, err := plan.Match(d.r, &stats)
		if err != nil {
			t.Fatal(err)
		}
		var loaded []int
		for ci := range d.r.Meta.Columns {
			if d.r.IndexLoaded(ci) {
				loaded = append(loaded, ci)
			}
		}
		slices.Sort(named)
		for _, ci := range loaded {
			if !slices.Contains(named, ci) {
				t.Fatalf("trial %d: MatchBlock read index %d, IndexColumns named %v\nquery: %s", trial, ci, named, q)
			}
		}
		if bs.Any() {
			if !slices.Equal(named, loaded) {
				t.Fatalf("trial %d: IndexColumns named %v, MatchBlock read %v\nquery: %s", trial, named, loaded, q)
			}
			if len(named) > 0 {
				exact++
			}
		}
		plan.Release()
	}
	if exact == 0 {
		t.Fatal("no trial probed an index and matched rows")
	}
}
