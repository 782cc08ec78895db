package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"logstore/internal/bitutil"
	"logstore/internal/index/sma"
	"logstore/internal/logblock"
	"logstore/internal/schema"
)

// kernelValues are the strings the string-kernel property runs over:
// empty, prefix-related, differing only in case or in a high byte,
// non-ASCII and invalid UTF-8.
var kernelValues = []string{
	"", "a", "ab", "abc", "abd", "b", "B", "Ab", "a b", "a\x00", "\x00",
	"\u00e9", "e\u0301", "ä ö", "日本", "\xff", "\xff\xfe", "\xc3", "\xc3(", "\x7f", "\x80",
	"timeout waiting upstream", "auth denied", "seq 7",
}

// compareBytesString is the byte order the string kernels used before
// they compared strings directly: bytes.Compare against a string.
func compareBytesString(b []byte, s string) int {
	n := min(len(b), len(s))
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

func TestStringOrderUnchanged(t *testing.T) {
	for _, a := range kernelValues {
		for _, b := range kernelValues {
			if got, want := strings.Compare(a, b), compareBytesString([]byte(a), b); got != want {
				t.Fatalf("strings.Compare(%q, %q) = %d, the old byte order says %d", a, b, got, want)
			}
		}
	}
}

// kernelVectors decodes kernelValues once each (a plain block: no
// repeats to share) and eight times over (a dictionary block), and
// returns the vectors with the rows in them.
func kernelVectors(t *testing.T) (plain, dict *logblock.StringVector, plainRows, dictRows []string) {
	t.Helper()
	sch := &schema.Schema{
		Name: "k",
		Columns: []schema.Column{
			{Name: "tenant_id", Type: schema.Int64},
			{Name: "ts", Type: schema.Int64},
			{Name: "s", Type: schema.String},
		},
		TenantCol: "tenant_id",
		TimeCol:   "ts",
	}
	decode := func(vals []string) *logblock.StringVector {
		rows := make([]schema.Row, len(vals))
		for i, v := range vals {
			rows[i] = schema.Row{schema.IntValue(1), schema.IntValue(int64(i)), schema.StringValue(v)}
		}
		built, err := logblock.Build(sch, rows, logblock.BuildOptions{NoIndexes: true})
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
		vec, err := r.BlockVector(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		return vec.Strs
	}
	plainRows = kernelValues
	for i := 0; i < 8; i++ {
		dictRows = append(dictRows, kernelValues...)
	}
	plain, dict = decode(plainRows), decode(dictRows)
	if len(plain.Arena) != len(strings.Join(plainRows, "")) {
		t.Fatalf("plain block arena is %d bytes, want one copy of every row", len(plain.Arena))
	}
	if len(dict.Arena) != len(plain.Arena) {
		t.Fatalf("dictionary block arena is %d bytes, want each distinct value once (%d)", len(dict.Arena), len(plain.Arena))
	}
	return plain, dict, plainRows, dictRows
}

// TestEvalStringsMatchesBoxed: every operator and MATCH, on a plain and
// a dictionary block, narrows exactly the candidate rows for which the
// boxed Pred.EvalRow — schema.Value.Compare for the comparisons — says
// the predicate holds, at any row offset.
func TestEvalStringsMatchesBoxed(t *testing.T) {
	plain, dict, plainRows, dictRows := kernelVectors(t)
	var preds []Pred
	for _, op := range []sma.Op{sma.EQ, sma.NE, sma.LT, sma.LE, sma.GT, sma.GE} {
		for _, v := range append(kernelValues, "aa", "zzz", "\xff\xff") {
			preds = append(preds, Pred{Col: "s", Op: op, Val: schema.StringValue(v)})
		}
		preds = append(preds, Pred{Col: "s", Op: op, Val: schema.IntValue(3)})
	}
	preds = append(preds,
		Pred{Col: "s", Match: true, Terms: []string{"timeout"}},
		Pred{Col: "s", Match: true, Terms: []string{"auth", "denied"}},
		Pred{Col: "s", Match: true, Terms: []string{"seq"}, Prefixes: []string{"7"}},
		Pred{Col: "s", Match: true, Prefixes: []string{"up"}},
		Pred{Col: "s", Match: true, Terms: []string{"a"}},
		Pred{Col: "s", Match: true, Terms: []string{"é"}},
	)
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name string
		sv   *logblock.StringVector
		rows []string
	}{{"plain", plain, plainRows}, {"dict", dict, dictRows}} {
		for _, p := range preds {
			start := rng.Intn(70)
			acc := bitutil.NewBitset(start + len(tc.rows) + rng.Intn(70))
			for i := 0; i < acc.Len(); i++ {
				if rng.Intn(4) != 0 {
					acc.Set(i)
				}
			}
			want := make([]bool, acc.Len())
			for i := range want {
				want[i] = acc.Test(i)
				if j := i - start; want[i] && j >= 0 && j < len(tc.rows) {
					want[i] = p.EvalRow(schema.StringValue(tc.rows[j]))
				}
			}
			EvalStrings(p, tc.sv, acc, start)
			for i, w := range want {
				if acc.Test(i) != w {
					t.Fatalf("%s block, %s, bit %d (row %d): got %v, want %v", tc.name, p, i, i-start, acc.Test(i), w)
				}
			}
		}
	}
}

// TestMaterializeStringsAllocateNothing: with the vectors cached, a
// string column costs Materialize no allocation at all — projecting
// {latency, log} allocates exactly what projecting {latency} does,
// whatever the number of matched rows.
func TestMaterializeStringsAllocateNothing(t *testing.T) {
	sch := schema.RequestLogSchema()
	lat, log := sch.ColumnIndex("latency"), sch.ColumnIndex("log")
	r := warmReader(t, benchMatched(benchRows, 1), []int{lat, log})
	for _, stride := range []int{1, 16, 4096} {
		matched := benchMatched(benchRows, stride)
		allocs := func(cols []int) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := Materialize(r, matched, cols); err != nil {
					t.Fatal(err)
				}
			})
		}
		ints, both := allocs([]int{lat}), allocs([]int{lat, log})
		if both != ints {
			t.Fatalf("1-in-%d rows: {latency, log} costs %v allocations, {latency} %v", stride, both, ints)
		}
		rows, err := Materialize(r, matched, []int{lat, log})
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if want := fmt.Sprintf("request %d served", i*stride); row[1].S != want {
				t.Fatalf("1-in-%d rows: row %d log is %q, want %q", stride, i, row[1].S, want)
			}
		}
	}
}
