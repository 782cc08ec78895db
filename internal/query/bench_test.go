package query

import (
	"fmt"
	"testing"

	"logstore/internal/bitutil"
	"logstore/internal/index/inverted"
	"logstore/internal/index/sma"
	"logstore/internal/logblock"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// Scan-path micro-benchmarks (the perf trajectory recorded in
// BENCH_scan.json by `make bench`): predicate evaluation and
// materialization over one in-memory LogBlock, exercising decompression,
// block decode, and the bitset candidate machinery without any OSS or
// cache layers in the way.

const benchRows = 64 * 1024

// benchReader builds a 64k-row request_log LogBlock and opens a reader
// over the packed bytes. Indexes are suppressed so predicate evaluation
// always takes the residual-scan path being measured.
func benchReader(tb testing.TB) *logblock.Reader {
	tb.Helper()
	sch := schema.RequestLogSchema()
	rows := make([]schema.Row, benchRows)
	apis := []string{"/v1/get", "/v1/put", "/v1/list", "/v1/delete", "/admin/stats"}
	for i := range rows {
		rows[i] = schema.Row{
			schema.IntValue(7),
			schema.IntValue(int64(1000 + i)),
			schema.StringValue(fmt.Sprintf("10.0.%d.%d", i/251%251, i%251)),
			schema.StringValue(apis[i%len(apis)]),
			schema.IntValue(int64(i * 37 % 1000)),
			schema.StringValue("false"),
			schema.StringValue(fmt.Sprintf("request %d served", i)),
		}
	}
	built, err := logblock.Build(sch, rows, logblock.BuildOptions{NoIndexes: true})
	if err != nil {
		tb.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		tb.Fatal(err)
	}
	r, err := logblock.OpenReader(logblock.BytesFetcher(packed))
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// mapVectorCache is an unbounded decoded-vector cache.
type mapVectorCache map[string]any

func (c mapVectorCache) Get(key string) (any, bool)         { v, ok := c[key]; return v, ok }
func (c mapVectorCache) Put(key string, value any, _ int64) { c[key] = value }
func (c mapVectorCache) Contains(key string) bool           { _, ok := c[key]; return ok }

// warmReader returns benchReader's LogBlock with a decoded-vector cache
// holding every column block cols needs.
func warmReader(tb testing.TB, matched *bitutil.Bitset, cols []int) *logblock.Reader {
	tb.Helper()
	r := benchReader(tb)
	r.SetVectorCache(mapVectorCache{}, "warm")
	if _, err := Materialize(r, matched, cols); err != nil {
		tb.Fatal(err)
	}
	return r
}

func benchQuery(preds ...Pred) *Query {
	return &Query{Table: "request_log", Star: true, Preds: preds}
}

// BenchmarkScanInt64Pred measures the int64 residual scan: one
// comparison predicate over the latency column, selecting ~half the
// rows, data skipping on (block SMAs cannot refute an interleaved
// distribution, so every column block is decoded and scanned).
func BenchmarkScanInt64Pred(b *testing.B) {
	r := benchReader(b)
	q := benchQuery(Pred{Col: "latency", Op: sma.GE, Val: schema.IntValue(500)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats ExecStats
		matched, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &stats)
		if err != nil {
			b.Fatal(err)
		}
		if c := matched.Count(); c == 0 || c == benchRows {
			b.Fatalf("degenerate match count %d", c)
		}
	}
}

// BenchmarkScanStringEq measures the string residual scan over the
// dictionary-encoded api column.
func BenchmarkScanStringEq(b *testing.B) {
	r := benchReader(b)
	q := benchQuery(Pred{Col: "api", Op: sma.EQ, Val: schema.StringValue("/v1/put"), Terms: inverted.Tokenize("/v1/put")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats ExecStats
		matched, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &stats)
		if err != nil {
			b.Fatal(err)
		}
		if matched.Count() != benchRows/5 {
			b.Fatalf("unexpected match count %d", matched.Count())
		}
	}
}

// BenchmarkScanConjunction measures a two-predicate conjunction (int64
// range + string equality), the paper's retrieval-template shape.
func BenchmarkScanConjunction(b *testing.B) {
	r := benchReader(b)
	q := benchQuery(
		Pred{Col: "latency", Op: sma.GE, Val: schema.IntValue(900)},
		Pred{Col: "api", Op: sma.EQ, Val: schema.StringValue("/v1/put"), Terms: inverted.Tokenize("/v1/put")},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats ExecStats
		if _, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &stats); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIndexedReader builds a 16k-row, fully indexed request_log
// LogBlock: 32 BKD leaves per numeric column, one row every 10 s.
func benchIndexedReader(tb testing.TB) *logblock.Reader {
	tb.Helper()
	rows := make([]schema.Row, 16*1024)
	for i := range rows {
		rows[i] = schema.Row{
			schema.IntValue(7),
			schema.IntValue(int64(1_000_000 + i*10_000)),
			schema.StringValue(fmt.Sprintf("10.0.%d.%d", i/251%251, i%251)),
			schema.StringValue("/v1/get"),
			schema.IntValue(int64(i * 37 % 1000)),
			schema.StringValue("false"),
			schema.StringValue(fmt.Sprintf("request %d served", i)),
		}
	}
	built, err := logblock.Build(schema.RequestLogSchema(), rows, logblock.BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		tb.Fatal(err)
	}
	r, err := logblock.OpenReader(logblock.BytesFetcher(packed))
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func benchMatch(b *testing.B, r *logblock.Reader, q *Query, wantRows, wantLookups int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats ExecStats
		matched, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &stats)
		if err != nil {
			b.Fatal(err)
		}
		if matched.Count() != wantRows || stats.IndexLookups != wantLookups {
			b.Fatalf("%d rows by %d index lookups, want %d by %d", matched.Count(), stats.IndexLookups, wantRows, wantLookups)
		}
	}
}

// BenchmarkMatchTimeSlice measures the retrieval template's window: one
// tenant, one hour out of 45, resolved by one probe of the ts index
// that decodes two boundary leaves out of 32.
func BenchmarkMatchTimeSlice(b *testing.B) {
	r := benchIndexedReader(b)
	from := int64(1_000_000 + 5000*10_000)
	benchMatch(b, r, benchQuery(
		Pred{Col: "tenant_id", Op: sma.EQ, Val: schema.IntValue(7)},
		Pred{Col: "ts", Op: sma.GE, Val: schema.IntValue(from)},
		Pred{Col: "ts", Op: sma.LE, Val: schema.IntValue(from + 3_600_000)},
	), 361, 1)
}

// BenchmarkMatchFullHistory measures a window the column SMA implies:
// the tenant and both ts comparisons cost nothing, and the one probe
// left is the latency threshold.
func BenchmarkMatchFullHistory(b *testing.B) {
	r := benchIndexedReader(b)
	benchMatch(b, r, benchQuery(
		Pred{Col: "tenant_id", Op: sma.EQ, Val: schema.IntValue(7)},
		Pred{Col: "ts", Op: sma.GE, Val: schema.IntValue(0)},
		Pred{Col: "ts", Op: sma.LE, Val: schema.IntValue(r.Meta.MaxTS)},
		Pred{Col: "latency", Op: sma.GE, Val: schema.IntValue(900)},
	), 1642, 1)
}

// benchMatched returns a match set selecting every stride-th row.
func benchMatched(n, stride int) *bitutil.Bitset {
	bs := bitutil.NewBitset(n)
	for i := 0; i < n; i += stride {
		bs.Set(i)
	}
	return bs
}

// BenchmarkMaterialize measures projecting two columns (one int64, one
// string) for a 1-in-16 match set.
func BenchmarkMaterialize(b *testing.B) {
	r := benchReader(b)
	matched := benchMatched(benchRows, 16)
	cols := []int{r.Meta.Schema.ColumnIndex("latency"), r.Meta.Schema.ColumnIndex("log")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Materialize(r, matched, cols)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != benchRows/16 {
			b.Fatalf("unexpected row count %d", len(rows))
		}
	}
}

// BenchmarkMaterializeWarm measures the same projection over vectors
// already in a decoded-vector cache, as on a warm query: no decode, so
// what is left is filling the cells.
func BenchmarkMaterializeWarm(b *testing.B) {
	sch := schema.RequestLogSchema()
	matched := benchMatched(benchRows, 16)
	cols := []int{sch.ColumnIndex("latency"), sch.ColumnIndex("log")}
	r := warmReader(b, matched, cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Materialize(r, matched, cols)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != benchRows/16 {
			b.Fatalf("unexpected row count %d", len(rows))
		}
	}
}

// BenchmarkMaterializeSparse measures the same projection for a sparse
// (1-in-4096) match set, where skipping untouched column blocks is the
// dominant effect.
func BenchmarkMaterializeSparse(b *testing.B) {
	r := benchReader(b)
	matched := benchMatched(benchRows, 4096)
	cols := []int{r.Meta.Schema.ColumnIndex("latency"), r.Meta.Schema.ColumnIndex("log")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Materialize(r, matched, cols); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountStar measures the COUNT(*) path: match + count, no
// materialization.
func BenchmarkCountStar(b *testing.B) {
	r := benchReader(b)
	q := &Query{
		Table:     "request_log",
		CountStar: true,
		Preds:     []Pred{{Col: "latency", Op: sma.LT, Val: schema.IntValue(250)}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats ExecStats
		rows, err := ExecuteBlock(r, q, ExecOptions{DataSkipping: true}, &stats)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows counted")
		}
	}
}

// BenchmarkParse parses the six query shapes of workload.GenerateQueries
// in turn: ns/op and allocs/op are per statement.
func BenchmarkParse(b *testing.B) {
	specs := workload.GenerateQueries(workload.QuerySetConfig{
		Tenants: 1, PerTenant: 6,
		HistoryStartMS: 1604995200000, HistoryEndMS: 1604995200000 + 48*3600_000, Seed: 1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(specs[i%len(specs)].SQL); err != nil {
			b.Fatal(err)
		}
	}
}
