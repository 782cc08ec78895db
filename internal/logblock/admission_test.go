package logblock_test

import (
	"fmt"
	"slices"
	"testing"

	"logstore/internal/logblock"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// One tenant's history as query_cold holds it: 48 hours, whatever the
// number of rows.
const (
	admissionStartMS = int64(1_700_000_000_000)
	admissionSpanMS  = int64(48 * 3600_000)
)

// admissionRows returns n rows of tenant 0 spread over the history.
func admissionRows(n int) []schema.Row {
	g := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: 1, Seed: 7, StartMS: admissionStartMS, StepMS: admissionSpanMS / int64(n),
	})
	return g.Batch(n)
}

// admissionQueries returns the six query shapes of
// workload.GenerateQueries over tenant 0's history.
func admissionQueries(tb testing.TB) []*query.Query {
	tb.Helper()
	var out []*query.Query
	for _, spec := range workload.GenerateQueries(workload.QuerySetConfig{
		Tenants: 1, PerTenant: 6, HistoryStartMS: admissionStartMS,
		HistoryEndMS: admissionStartMS + admissionSpanMS, Seed: 7,
	}) {
		out = append(out, parse(tb, spec.SQL))
	}
	return out
}

func parse(tb testing.TB, sql string) *query.Query {
	tb.Helper()
	q, err := query.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

func pack(tb testing.TB, built *logblock.Built, err error) []byte {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		tb.Fatal(err)
	}
	return packed
}

func open(tb testing.TB, packed []byte) *logblock.Reader {
	tb.Helper()
	r, err := logblock.OpenReader(logblock.BytesFetcher(packed))
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestIndexAdmissionBoundary builds the LogBlocks either side of
// MinIndexedRows — one row short has no index part, MinIndexedRows has
// every index but the constant tenant column's — and checks that each
// answers the six workload query shapes, an equality on a stored
// address, a MATCH, a prefix MATCH and a string != with the rows a scan
// of every predicate (no data skipping) finds, and that the indexed
// block probes its indexes on the way.
func TestIndexAdmissionBoundary(t *testing.T) {
	sch := schema.RequestLogSchema()
	for _, n := range []int{logblock.MinIndexedRows - 1, logblock.MinIndexedRows} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			rows := admissionRows(n)
			built, err := logblock.Build(sch, rows, logblock.BuildOptions{})
			r := open(t, pack(t, built, err))
			wantIndexed := n >= logblock.MinIndexedRows
			for ci, col := range sch.Columns {
				want := wantIndexed && col.Index != schema.IndexNone && ci != sch.TenantIdx()
				if r.HasIndex(ci) != want || (r.Meta.Columns[ci].Index != schema.IndexNone) != want {
					t.Fatalf("column %s: index part %v, index kind %d; want an index: %v",
						col.Name, r.HasIndex(ci), r.Meta.Columns[ci].Index, want)
				}
			}
			qs := admissionQueries(t)
			scope := fmt.Sprintf("SELECT log FROM request_log WHERE tenant_id = 0 AND ts >= %d AND ts <= %d AND ",
				admissionStartMS, admissionStartMS+admissionSpanMS)
			for _, where := range []string{
				fmt.Sprintf("ip = '%s'", rows[0][sch.ColumnIndex("ip")].S),
				"log MATCH 'slow query'",
				"log MATCH 'cache sha*'",
				"api != '/healthz'",
			} {
				qs = append(qs, parse(t, scope+where))
			}
			var probes int
			for _, q := range qs {
				var stats query.ExecStats
				got, err := query.MatchBlock(r, q, query.ExecOptions{DataSkipping: true}, &stats)
				if err != nil {
					t.Fatal(err)
				}
				want, err := query.MatchBlock(r, q, query.ExecOptions{}, &query.ExecStats{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Slice(), want.Slice()) {
					t.Errorf("%s: rows %v, a scan finds %v", q, got.Slice(), want.Slice())
				}
				probes += stats.IndexLookups
			}
			if (probes > 0) != wantIndexed {
				t.Errorf("%d index lookups over %d queries; want some: %v", probes, len(qs), wantIndexed)
			}
		})
	}
}

// vectorCache is an unbounded decoded-vector cache.
type vectorCache map[string]any

func (c vectorCache) Get(key string) (any, bool)         { v, ok := c[key]; return v, ok }
func (c vectorCache) Put(key string, value any, _ int64) { c[key] = value }
func (c vectorCache) Contains(key string) bool           { _, ok := c[key]; return ok }

// BenchmarkIndexAdmission is what MinIndexedRows is chosen by: the CPU
// of matching one LogBlock of R rows with data skipping on, when the
// block has every index (index) and when it has none, so that each
// predicate the SMAs leave is a scan (scan), for each of the six
// workload query shapes. A cold query opens the block from its bytes
// and decodes what it reads; a warm one matches over a reader kept
// open, its indexes parsed and its column blocks in a decoded-vector
// cache. It reports the packed object's size beside the time.
func BenchmarkIndexAdmission(b *testing.B) {
	sch := schema.RequestLogSchema()
	qs := admissionQueries(b)
	for _, n := range []int{32, 64, 128, 256, 512, 1024} {
		rows := admissionRows(n)
		indexed, err := logblock.BuildIndexed(sch, rows, logblock.BuildOptions{})
		withIndexes := pack(b, indexed, err)
		bare, err := logblock.Build(sch, rows, logblock.BuildOptions{NoIndexes: true})
		without := pack(b, bare, err)
		for shape, q := range qs {
			for _, v := range []struct {
				name string
				obj  []byte
			}{{"index", withIndexes}, {"scan", without}} {
				match := func(b *testing.B, r *logblock.Reader) {
					var stats query.ExecStats
					if _, err := query.MatchBlock(r, q, query.ExecOptions{DataSkipping: true}, &stats); err != nil {
						b.Fatal(err)
					}
				}
				b.Run(fmt.Sprintf("rows=%d/shape=%d/%s/cold", n, shape, v.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						match(b, open(b, v.obj))
					}
					b.ReportMetric(float64(len(v.obj)), "objectB")
				})
				b.Run(fmt.Sprintf("rows=%d/shape=%d/%s/warm", n, shape, v.name), func(b *testing.B) {
					r := open(b, v.obj)
					r.SetVectorCache(vectorCache{}, "warm")
					match(b, r)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						match(b, r)
					}
				})
			}
		}
	}
}
