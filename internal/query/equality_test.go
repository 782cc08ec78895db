package query

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"logstore/internal/bitutil"
	"logstore/internal/index/inverted"
	"logstore/internal/logblock"
	"logstore/internal/schema"
)

// equalityValues are string cells a token-only index could mistake:
// case variants, values with no tokens, non-ASCII and invalid UTF-8,
// permuted octets, and values that are another value's token alone.
var equalityValues = []string{
	"192.168.2.36", "192.168.36.2", "192.168.2.3", "192", "36", "2",
	"GET /api", "get /API", "get api", "GET", "api",
	"", "--", "--- ::", " ",
	"Größe überschritten", "GRÖSSE", "größe", "用户登录 失败", "İstanbul", "istanbul",
	"bad\xffbyte", "bad byte", "it's", "a-b", "a b", "b a",
}

// TestStringEqualityMatchesOracle: a string equality answered through
// the inverted index (the literal's rarest token, then the stored
// values) finds exactly the rows the scalar evaluation finds, on every
// column and every literal — each stored value, upper-cased, each of
// its tokens, and values no row holds — and the index is probed
// whenever the column SMA leaves the LogBlock in play.
func TestStringEqualityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	rows := make([]schema.Row, 700)
	pick := func() string { return equalityValues[rng.Intn(len(equalityValues))] }
	for i := range rows {
		rows[i] = schema.Row{
			schema.IntValue(1),
			schema.IntValue(int64(i)),
			schema.StringValue(pick()),
			schema.StringValue(pick() + " " + pick()),
			schema.IntValue(int64(rng.Intn(100))),
			schema.StringValue([]string{"false", "FALSE", "true"}[rng.Intn(3)]),
			schema.StringValue(fmt.Sprintf("%s served %d", pick(), rng.Intn(9))),
		}
	}
	sch := schema.RequestLogSchema()
	built, err := logblock.Build(sch, rows, logblock.BuildOptions{BlockRows: 128})
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
	requireIndexed(t, r)
	for ci, col := range sch.Columns {
		if col.Type != schema.String {
			continue
		}
		if f := r.Meta.Columns[ci].IndexFormat; f != logblock.IndexFormatTokens {
			t.Fatalf("column %s has index format %d", col.Name, f)
		}
		lits := slices.Clone(equalityValues)
		for _, row := range rows[:50] {
			v := row[ci].S
			lits = append(lits, v, strings.ToUpper(v), "zz"+v)
			lits = append(lits, inverted.Tokenize(v)...)
		}
		for _, lit := range lits {
			sql := fmt.Sprintf("SELECT * FROM request_log WHERE %s = '%s'", col.Name, strings.ReplaceAll(lit, "'", "''"))
			q, err := Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			var stats ExecStats
			got, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &stats)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteForce(q, sch, rows); !slices.Equal(got.Slice(), want) {
				t.Fatalf("%s: %d rows %v, the scalar oracle %d %v", sql, got.Count(), got.Slice(), len(want), want)
			}
			if stats.IndexLookups != 1 && stats.BlocksSkippedBySMA == 0 {
				t.Fatalf("%s: %d index lookups", sql, stats.IndexLookups)
			}
		}
	}
}

// TestTenantPredicateReadsNoIndex: a LogBlock holds one tenant, so its
// tenant column has no index part, and a tenant predicate is answered
// by the column SMA alone — no index lookup, no column block scanned.
func TestTenantPredicateReadsNoIndex(t *testing.T) {
	r, _ := buildBlock(t, 3000, 512)
	requireIndexed(t, r)
	tenant := r.Meta.Schema.TenantIdx()
	if cm := r.Meta.Columns[tenant]; cm.Index != schema.IndexNone || r.Manifest.IndexExtent(tenant) != (logblock.Extent{}) {
		t.Fatalf("tenant column: index kind %d, extent %+v", cm.Index, r.Manifest.IndexExtent(tenant))
	}
	for _, tc := range []struct {
		where string
		all   bool // every row matches, else none
	}{
		{"tenant_id = 42", true},
		{"tenant_id >= 40 AND tenant_id < 50", true},
		{"tenant_id = 7", false},
		{"tenant_id > 42", false},
	} {
		where := tc.where
		q, err := Parse("SELECT log FROM request_log WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanBlock(r.Meta, q, ExecOptions{DataSkipping: true})
		if err != nil {
			t.Fatal(err)
		}
		if cols := plan.IndexColumns(nil); len(cols) != 0 {
			t.Errorf("%s: plan reads the indexes of columns %v", where, cols)
		}
		plan.Release()
		var stats ExecStats
		got, err := MatchBlock(r, q, ExecOptions{DataSkipping: true}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		want := bitutil.NewBitset(r.Meta.RowCount)
		if tc.all {
			want.SetAll()
		}
		if !slices.Equal(got.Slice(), want.Slice()) || stats.IndexLookups != 0 || stats.ColumnBlocksScanned != 0 {
			t.Errorf("%s: %d rows, %d index lookups, %d column blocks scanned; want %d rows and no reads",
				where, got.Count(), stats.IndexLookups, stats.ColumnBlocksScanned, want.Count())
		}
	}
}
