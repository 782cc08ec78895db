package logblock_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"logstore/internal/index/inverted"
	"logstore/internal/logblock"
	"logstore/internal/query"
	"logstore/internal/schema"
)

// TestCompactIndexFixtureQueries holds testdata/compact_index.lgb, 12
// rows of tenant 9 in two column blocks whose inverted indexes hold
// whole values beside tokens, to the same rows packed now with every
// index (BuildIndexed: 12 rows are below MinIndexedRows, so Build
// would write none). Under the queries of the builder's
// TestParentLayoutBlockQueriesAndCompacts — six predicates, and
// equality with every value of every string column, upper-cased too,
// and with each of its tokens — both objects must return the rows a
// filter over the materialized rows keeps, the same rows as each other
// and the same ExecStats, through the indexes and by scanning; the
// indexed run must probe an index.
func TestCompactIndexFixtureQueries(t *testing.T) {
	raw, err := os.ReadFile("testdata/compact_index.lgb")
	if err != nil {
		t.Fatal(err)
	}
	r := open(t, raw)
	rows, err := r.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 || r.Meta.Tenant != 9 || r.Meta.NumBlocks != 2 {
		t.Fatalf("fixture: %d rows, tenant %d, %d blocks", len(rows), r.Meta.Tenant, r.Meta.NumBlocks)
	}
	sch := r.Meta.Schema
	built, err := logblock.BuildIndexed(sch, rows, logblock.BuildOptions{BlockRows: r.Meta.BlockRows})
	now := open(t, pack(t, built, err))
	// Every index of the fixture is there now too, but the constant
	// tenant column's.
	for ci, cm := range r.Meta.Columns {
		indexed := cm.Index != schema.IndexNone
		if indexed && cm.IndexFormat != logblock.IndexFormatCompact || now.HasIndex(ci) != (indexed && ci != sch.TenantIdx()) {
			t.Fatalf("column %d: fixture index kind %d format %d, an index packed now: %v", ci, cm.Index, cm.IndexFormat, now.HasIndex(ci))
		}
	}

	ipCol, logCol, failCol, latCol, tsCol := sch.ColumnIndex("ip"), sch.ColumnIndex("log"),
		sch.ColumnIndex("fail"), sch.ColumnIndex("latency"), sch.TimeIdx()
	ip, lat, ts := rows[0][ipCol].S, rows[3][latCol].I, rows[5][tsCol].I
	type check struct {
		where string
		keep  func(schema.Row) bool
	}
	checks := []check{
		{fmt.Sprintf("ip = '%s'", ip), func(row schema.Row) bool { return row[ipCol].S == ip }},
		{"log MATCH 'served'", func(row schema.Row) bool {
			return strings.Contains(strings.ToLower(row[logCol].S), "served")
		}},
		{"log MATCH 'serv*'", func(row schema.Row) bool {
			return strings.Contains(strings.ToLower(row[logCol].S), "serv")
		}},
		{"fail = 'false'", func(row schema.Row) bool { return strings.EqualFold(row[failCol].S, "false") }},
		{fmt.Sprintf("latency >= %d", lat), func(row schema.Row) bool { return row[latCol].I >= lat }},
		{fmt.Sprintf("ts >= %d AND ts <= %d", ts, ts+3), func(row schema.Row) bool {
			return row[tsCol].I >= ts && row[tsCol].I <= ts+3
		}},
	}
	equalities := len(checks)
	for ci, col := range sch.Columns {
		if col.Type != schema.String {
			continue
		}
		for _, row := range rows {
			v := row[ci].S
			for _, lit := range append([]string{v, strings.ToUpper(v)}, inverted.Tokenize(v)...) {
				checks = append(checks, check{
					fmt.Sprintf("%s = '%s'", col.Name, strings.ReplaceAll(lit, "'", "''")),
					func(row schema.Row) bool { return row[ci].S == lit },
				})
			}
		}
	}
	for i, tc := range checks {
		q := parse(t, "SELECT * FROM request_log WHERE tenant_id = 9 AND ts >= 0 AND ts <= 99999 AND "+tc.where)
		want := 0
		for _, row := range rows {
			if tc.keep(row) {
				want++
			}
		}
		if want == 0 && i < equalities {
			t.Fatalf("%s matches no fixture row; the test would prove nothing", tc.where)
		}
		for _, skipping := range []bool{true, false} {
			var stats, nowStats query.ExecStats
			opts := query.ExecOptions{DataSkipping: skipping}
			got, err := query.ExecuteBlock(r, q, opts, &stats)
			if err != nil {
				t.Fatalf("%s (skipping=%v): %v", tc.where, skipping, err)
			}
			if len(got) != want {
				t.Errorf("%s (skipping=%v): %d rows, want %d", tc.where, skipping, len(got), want)
			}
			fresh, err := query.ExecuteBlock(now, q, opts, &nowStats)
			if err != nil {
				t.Fatalf("%s (skipping=%v) over the rows packed now: %v", tc.where, skipping, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(fresh) || stats != nowStats {
				t.Errorf("%s (skipping=%v): fixture answers %v (%+v), rows packed now %v (%+v)",
					tc.where, skipping, got, stats, fresh, nowStats)
			}
			if skipping && stats.IndexLookups == 0 && (i < equalities || stats.BlocksSkippedBySMA == 0) {
				t.Errorf("%s: the indexed run probed no index", tc.where)
			}
			if !skipping && (stats.IndexLookups != 0 || stats.ColumnBlocksScanned == 0) {
				t.Errorf("%s: the scanning run made %d index lookups and scanned %d column blocks",
					tc.where, stats.IndexLookups, stats.ColumnBlocksScanned)
			}
		}
	}
}
