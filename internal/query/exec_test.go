package query

import (
	"fmt"
	"math/rand"
	"testing"

	"logstore/internal/logblock"
	"logstore/internal/schema"
)

// buildBlock creates a single-tenant LogBlock with deterministic but
// varied data, returning the reader and the raw (time-sorted) rows.
func buildBlock(t testing.TB, n int, blockRows int) (*logblock.Reader, []schema.Row) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	rows := make([]schema.Row, n)
	for i := range rows {
		fail := "false"
		if rng.Intn(8) == 0 {
			fail = "true"
		}
		rows[i] = schema.Row{
			schema.IntValue(42),
			schema.IntValue(int64(1000 + i)),
			schema.StringValue(fmt.Sprintf("192.168.%d.%d", rng.Intn(2), 1+rng.Intn(30))),
			schema.StringValue(fmt.Sprintf("/api/v%d/query", rng.Intn(3))),
			schema.IntValue(int64(1 + rng.Intn(500))),
			schema.StringValue(fail),
			schema.StringValue(fmt.Sprintf("request served shard=%d attempt=%d", rng.Intn(4), i)),
		}
	}
	built, err := logblock.Build(schema.RequestLogSchema(), rows, logblock.BuildOptions{BlockRows: blockRows})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		t.Fatal(err)
	}
	r, err := logblock.OpenReader(logblock.BytesFetcher(packed))
	if err != nil {
		t.Fatal(err)
	}
	return r, rows
}

// bruteForce returns the row ids matching the query by full evaluation.
func bruteForce(q *Query, sch *schema.Schema, rows []schema.Row) []int {
	var out []int
	for i, r := range rows {
		if q.EvalRowAll(sch, r) {
			out = append(out, i)
		}
	}
	return out
}

var execQueries = []string{
	"SELECT log FROM request_log WHERE tenant_id = 42",
	"SELECT log FROM request_log WHERE tenant_id = 42 AND ts >= 1100 AND ts <= 1300",
	"SELECT log FROM request_log WHERE tenant_id = 42 AND ip = '192.168.0.7'",
	"SELECT log FROM request_log WHERE tenant_id = 42 AND latency >= 400",
	"SELECT log FROM request_log WHERE tenant_id = 42 AND latency < 10 AND fail = 'true'",
	"SELECT log FROM request_log WHERE tenant_id = 42 AND fail = 'false' AND ip = '192.168.1.3' AND latency >= 100",
	"SELECT log FROM request_log WHERE tenant_id = 42 AND log MATCH 'shard 2'",
	"SELECT log FROM request_log WHERE tenant_id = 42 AND latency != 250",
	"SELECT log FROM request_log WHERE tenant_id = 99",
	"SELECT log FROM request_log WHERE tenant_id = 42 AND ts > 5000",
	"SELECT ip, latency FROM request_log WHERE tenant_id = 42 AND api = '/api/v1/query' AND latency <= 20",
}

func TestMatchBlockAgainstBruteForce(t *testing.T) {
	r, rows := buildBlock(t, 3000, 256)
	sch := schema.RequestLogSchema()
	for _, sql := range execQueries {
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Validate(sch); err != nil {
			t.Fatal(err)
		}
		want := bruteForce(q, sch, rows)
		for _, skipping := range []bool{true, false} {
			var stats ExecStats
			bs, err := MatchBlock(r, q, ExecOptions{DataSkipping: skipping}, &stats)
			if err != nil {
				t.Fatalf("%q (skip=%v): %v", sql, skipping, err)
			}
			got := bs.Slice()
			if len(got) != len(want) {
				t.Fatalf("%q (skip=%v): %d matches, brute force %d", sql, skipping, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%q (skip=%v): row id mismatch at %d: %d vs %d", sql, skipping, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDataSkippingDoesLessWork(t *testing.T) {
	r, _ := buildBlock(t, 5000, 256)
	q, err := Parse("SELECT log FROM request_log WHERE tenant_id = 42 AND ts >= 1100 AND ts <= 1200 AND latency >= 400")
	if err != nil {
		t.Fatal(err)
	}
	var withStats, withoutStats ExecStats
	if _, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &withStats); err != nil {
		t.Fatal(err)
	}
	if _, err := MatchBlock(r, q, ExecOptions{DataSkipping: false}, &withoutStats); err != nil {
		t.Fatal(err)
	}
	if withStats.ColumnBlocksScanned >= withoutStats.ColumnBlocksScanned {
		t.Errorf("skipping scanned %d column blocks, baseline %d",
			withStats.ColumnBlocksScanned, withoutStats.ColumnBlocksScanned)
	}
	if withStats.IndexLookups == 0 {
		t.Error("skipping path should use indexes")
	}
	if withoutStats.IndexLookups != 0 {
		t.Error("baseline should not use indexes")
	}
}

func TestWholeBlockSMASkip(t *testing.T) {
	r, _ := buildBlock(t, 1000, 128)
	// tenant_id = 7 refutes via the tenant column SMA (constant 42).
	q, err := Parse("SELECT log FROM request_log WHERE tenant_id = 7")
	if err != nil {
		t.Fatal(err)
	}
	var stats ExecStats
	bs, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Any() {
		t.Error("no rows should match")
	}
	if stats.BlocksSkippedBySMA != 1 {
		t.Errorf("BlocksSkippedBySMA = %d", stats.BlocksSkippedBySMA)
	}
	if stats.ColumnBlocksScanned != 0 {
		t.Errorf("skipped block still scanned %d column blocks", stats.ColumnBlocksScanned)
	}
}

func TestExecuteBlockProjection(t *testing.T) {
	r, rows := buildBlock(t, 500, 128)
	sch := schema.RequestLogSchema()
	q, err := Parse("SELECT ip, latency FROM request_log WHERE tenant_id = 42 AND latency >= 490")
	if err != nil {
		t.Fatal(err)
	}
	var stats ExecStats
	got, err := ExecuteBlock(r, q, ExecOptions{DataSkipping: true}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(q, sch, rows)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	ipIdx, latIdx := sch.ColumnIndex("ip"), sch.ColumnIndex("latency")
	for i, rowID := range want {
		if !got[i][0].Equal(rows[rowID][ipIdx]) || !got[i][1].Equal(rows[rowID][latIdx]) {
			t.Fatalf("row %d projection mismatch: %v", i, got[i])
		}
	}
}

// TestLimitCapsBlockContribution: a plain LIMIT n makes a LogBlock
// contribute its first n matched rows and nothing else — the rows the
// merged result would have kept anyway — while ORDER BY, GROUP BY and
// COUNT(*) still see every match.
func TestLimitCapsBlockContribution(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	opts := ExecOptions{DataSkipping: true}
	capped := 0
	for trial := 0; trial < 100; trial++ {
		d := randomDataset(t, rng)
		q := &Query{Table: "prop", Select: []string{"msg", "code"}}
		for n := rng.Intn(3); n > 0; n-- {
			q.Preds = append(q.Preds, randomPreds(rng, len(d.rows))...)
		}
		var stats ExecStats
		all, err := ExecuteBlock(d.r, q, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
		q.Limit = 1 + rng.Intn(40)
		got, err := ExecuteBlock(d.r, q, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
		want := all[:min(q.Limit, len(all))]
		if len(got) != len(want) {
			t.Fatalf("trial %d: LIMIT %d gave %d of %d rows\nquery: %s", trial, q.Limit, len(got), len(all), q)
		}
		for i := range got {
			if !got[i][0].Equal(want[i][0]) || !got[i][1].Equal(want[i][1]) {
				t.Fatalf("trial %d: row %d is %v, want %v\nquery: %s", trial, i, got[i], want[i], q)
			}
		}
		if len(got) < len(all) {
			capped++
		}
		q.OrderBy = "code"
		if got, err = ExecuteBlock(d.r, q, opts, &stats); err != nil || len(got) != len(all) {
			t.Fatalf("trial %d: ORDER BY with LIMIT materialized %d of %d rows (err %v)", trial, len(got), len(all), err)
		}
	}
	if capped == 0 {
		t.Fatal("no trial had more matches than its LIMIT")
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM request_log WHERE tenant_id = 42 LIMIT 3",
		"SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 42 GROUP BY ip LIMIT 3",
	} {
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if q.RowCap() != 0 {
			t.Errorf("%s: row cap %d, want none", sql, q.RowCap())
		}
	}
}

func TestExecuteBlockCount(t *testing.T) {
	r, rows := buildBlock(t, 800, 100)
	sch := schema.RequestLogSchema()
	q, err := Parse("SELECT COUNT(*) FROM request_log WHERE tenant_id = 42 AND fail = 'true'")
	if err != nil {
		t.Fatal(err)
	}
	var stats ExecStats
	got, err := ExecuteBlock(r, q, ExecOptions{DataSkipping: true}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(bruteForce(q, sch, rows)) {
		t.Fatalf("count = %d, brute force %d", len(got), len(bruteForce(q, sch, rows)))
	}
}

func TestMatchUnknownColumn(t *testing.T) {
	r, _ := buildBlock(t, 100, 50)
	q := &Query{Table: "request_log", Star: true,
		Preds: []Pred{{Col: "ghost", Op: 0, Val: schema.IntValue(1)}}}
	var stats ExecStats
	if _, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &stats); err == nil {
		t.Error("unknown predicate column should error")
	}
	if _, err := MatchBlock(r, q, ExecOptions{DataSkipping: false}, &stats); err == nil {
		t.Error("unknown predicate column should error without skipping too")
	}
}

func TestResultMergeAndFinalize(t *testing.T) {
	sch := schema.RequestLogSchema()
	q, err := Parse("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 GROUP BY ip ORDER BY count DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	a := NewResult(q, sch)
	a.AddRow(q, schema.Row{schema.StringValue("10.0.0.1")})
	a.AddRow(q, schema.Row{schema.StringValue("10.0.0.1")})
	a.AddRow(q, schema.Row{schema.StringValue("10.0.0.2")})
	b := NewResult(q, sch)
	b.AddRow(q, schema.Row{schema.StringValue("10.0.0.3")})
	b.AddRow(q, schema.Row{schema.StringValue("10.0.0.1")})
	a.Merge(b)
	if err := a.Finalize(q); err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != 2 {
		t.Fatalf("groups = %+v", a.Groups)
	}
	if a.Groups[0].Key.S != "10.0.0.1" || a.Groups[0].Count != 3 {
		t.Errorf("top group = %+v", a.Groups[0])
	}
}

func TestResultCountMerge(t *testing.T) {
	sch := schema.RequestLogSchema()
	q, _ := Parse("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
	a := NewResult(q, sch)
	a.Count = 5
	b := NewResult(q, sch)
	b.Count = 7
	a.Merge(b)
	a.Merge(nil)
	if a.Count != 12 {
		t.Errorf("Count = %d", a.Count)
	}
	if len(a.Columns) != 1 || a.Columns[0] != "count" {
		t.Errorf("Columns = %v", a.Columns)
	}
}

func TestResultOrderByColumnAndLimit(t *testing.T) {
	sch := schema.RequestLogSchema()
	q, err := Parse("SELECT ip, latency FROM request_log WHERE tenant_id = 1 ORDER BY latency DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	r := NewResult(q, sch)
	for _, lat := range []int64{5, 99, 42} {
		r.AddRow(q, schema.Row{schema.StringValue("ip"), schema.IntValue(lat)})
	}
	if err := r.Finalize(q); err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][1].I != 99 || r.Rows[1][1].I != 42 {
		t.Fatalf("rows = %+v", r.Rows)
	}
	// ORDER BY a column outside the projection fails.
	q2, _ := Parse("SELECT ip FROM request_log ORDER BY latency")
	r2 := NewResult(q2, sch)
	if err := r2.Finalize(q2); err == nil {
		t.Error("ORDER BY outside projection should fail at Finalize")
	}
}

func BenchmarkMatchBlockSkipping(b *testing.B) {
	r, _ := buildBlock(b, 20000, 4096)
	q, err := Parse("SELECT log FROM request_log WHERE tenant_id = 42 AND ts >= 2000 AND ts <= 3000 AND latency >= 400")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats ExecStats
		if _, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &stats); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchBlockFullScan(b *testing.B) {
	r, _ := buildBlock(b, 20000, 4096)
	q, err := Parse("SELECT log FROM request_log WHERE tenant_id = 42 AND ts >= 2000 AND ts <= 3000 AND latency >= 400")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats ExecStats
		if _, err := MatchBlock(r, q, ExecOptions{DataSkipping: false}, &stats); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMatchPrefixAgainstBruteForce(t *testing.T) {
	r, rows := buildBlock(t, 2000, 256)
	sch := schema.RequestLogSchema()
	for _, sql := range []string{
		"SELECT log FROM request_log WHERE tenant_id = 42 AND log MATCH 'serv*'",
		"SELECT log FROM request_log WHERE tenant_id = 42 AND log MATCH 'request shard*'",
		"SELECT log FROM request_log WHERE tenant_id = 42 AND api MATCH 'v1*'",
	} {
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(q, sch, rows)
		for _, skipping := range []bool{true, false} {
			var stats ExecStats
			bs, err := MatchBlock(r, q, ExecOptions{DataSkipping: skipping}, &stats)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			got := bs.Slice()
			if len(got) != len(want) {
				t.Fatalf("%q (skip=%v): %d matches, brute force %d", sql, skipping, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%q: row mismatch", sql)
				}
			}
		}
	}
}
