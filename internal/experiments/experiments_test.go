package experiments

import (
	"bytes"
	"strings"
	"testing"

	"logstore/internal/logblock"
)

// tinyScale keeps experiment smoke tests fast.
func tinyScale() Scale {
	return Scale{
		Tenants:          100,
		Rows:             12_000,
		QueryTenants:     3,
		QueriesPerTenant: 6,
		TotalRate:        1_000_000,
		Workers:          4,
		ShardsPerWorker:  3,
		Seed:             1,
	}
}

func TestTablePrint(t *testing.T) {
	tb := &Table{
		Name:    "demo",
		Comment: "line1\nline2",
		Header:  []string{"x", "y"},
		Rows:    [][]float64{{1, 2.5}, {3, 40000000}},
	}
	var buf bytes.Buffer
	tb.Print(&buf)
	out := buf.String()
	for _, want := range []string{"# demo", "# line1", "# line2", "x\ty", "1\t2.5", "3\t40000000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tb := Fig1()
	if len(tb.Rows) != 48 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Working-hours throughput must exceed the overnight trough.
	at := func(hour float64) float64 {
		for _, r := range tb.Rows {
			if r[0] == hour {
				return r[1]
			}
		}
		t.Fatalf("hour %v missing", hour)
		return 0
	}
	if at(14) <= at(4)*1.5 {
		t.Errorf("diurnal curve too flat: 14h=%v 4h=%v", at(14), at(4))
	}
}

func TestFig2Zipf(t *testing.T) {
	tb := Fig2(tinyScale())
	if len(tb.Rows) != 100 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Monotone decreasing sizes with a heavy head.
	if tb.Rows[0][1] <= tb.Rows[50][1]*10 {
		t.Errorf("skew too weak: head %v vs rank-50 %v", tb.Rows[0][1], tb.Rows[50][1])
	}
	for i := 1; i < len(tb.Rows); i++ {
		if tb.Rows[i][1] > tb.Rows[i-1][1] {
			t.Fatalf("sizes not monotone at rank %d", i+1)
		}
	}
}

func TestFig11Sampled(t *testing.T) {
	tb := Fig11(tinyScale())
	if len(tb.Rows) != 100 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var total float64
	for _, r := range tb.Rows {
		total += r[1]
	}
	if total < 100_000 {
		t.Errorf("sample volume = %v", total)
	}
}

func TestFig12Shapes(t *testing.T) {
	a, b, c := Fig12(tinyScale())
	if len(a.Rows) != len(thetas) || len(b.Rows) != len(thetas) || len(c.Rows) != len(thetas) {
		t.Fatal("row counts wrong")
	}
	last := len(a.Rows) - 1
	// (a) at θ=0.99: none < maxflow; maxflow carries (nearly) all demand.
	if a.Rows[last][1] >= a.Rows[last][3] {
		t.Errorf("θ=0.99 throughput: none %v !< maxflow %v", a.Rows[last][1], a.Rows[last][3])
	}
	// (b) at θ=0.99: none latency far above maxflow.
	if b.Rows[last][1] < b.Rows[last][3]*3 {
		t.Errorf("θ=0.99 latency: none %v vs maxflow %v — gap too small", b.Rows[last][1], b.Rows[last][3])
	}
	// (c) at θ=0.99: maxflow uses fewer or equal routes than greedy,
	// and none uses zero.
	if c.Rows[last][1] != 0 {
		t.Errorf("none added routes: %v", c.Rows[last][1])
	}
	if c.Rows[last][3] > c.Rows[last][2] {
		t.Errorf("θ=0.99 routes: maxflow %v > greedy %v", c.Rows[last][3], c.Rows[last][2])
	}
}

func TestFig13Shapes(t *testing.T) {
	a, b := Fig13(tinyScale())
	last := len(a.Rows) - 1
	if a.Rows[last][2] >= a.Rows[last][1] {
		t.Errorf("θ=0.99 shard stddev not reduced: before %v after %v", a.Rows[last][1], a.Rows[last][2])
	}
	if b.Rows[last][2] >= b.Rows[last][1] {
		t.Errorf("θ=0.99 worker stddev not reduced: before %v after %v", b.Rows[last][1], b.Rows[last][2])
	}
}

func TestFig14Shapes(t *testing.T) {
	s := tinyScale()
	a, b, c := Fig14(s)
	if len(a.Rows) != s.Workers*s.ShardsPerWorker {
		t.Fatalf("fig14a rows = %d", len(a.Rows))
	}
	if len(b.Rows) != s.Workers || len(c.Rows) != s.Workers {
		t.Fatalf("fig14b/c rows = %d/%d", len(b.Rows), len(c.Rows))
	}
	// Hottest shard's accesses drop after balancing.
	if a.Rows[0][2] >= a.Rows[0][1] {
		t.Errorf("hot shard accesses not reduced: %v -> %v", a.Rows[0][1], a.Rows[0][2])
	}
	// Worker load is flatter after: max/min ratio shrinks.
	ratio := func(col int) float64 {
		return b.Rows[0][col] / b.Rows[len(b.Rows)-1][col]
	}
	if ratio(2) >= ratio(1) {
		t.Errorf("worker imbalance not reduced: before %v after %v", ratio(1), ratio(2))
	}
	// Utilization stays within [0, 1].
	for _, r := range c.Rows {
		if r[1] < 0 || r[1] > 1 || r[2] < 0 || r[2] > 1 {
			t.Fatalf("utilization out of range: %+v", r)
		}
	}
}

// fig15Scale is tinyScale with fewer tenants and more rows, so that
// every LogBlock of the three tenants Figure 15 queries is larger than
// the tail an open reads, and has indexes: only then does skipping a
// column block save a fetch, and the comparison of wall times measure
// skipping rather than noise.
func fig15Scale() Scale {
	s := tinyScale()
	s.Tenants, s.Rows = 10, 48_000
	return s
}

func TestFig15Shape(t *testing.T) {
	s := fig15Scale()
	ds, err := buildQueryDataset(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range ds.topOrder[:s.QueryTenants] {
		for _, b := range ds.catalog.Blocks(tenant) {
			if b.Bytes <= logblock.TailSize {
				t.Fatalf("tenant %d's LogBlock %s is %d bytes, within one open's tail read", tenant, b.Path, b.Bytes)
			}
			if b.Rows < logblock.MinIndexedRows {
				t.Fatalf("tenant %d's LogBlock %s has %d rows, too few for indexes", tenant, b.Path, b.Rows)
			}
		}
	}
	tb, err := Fig15(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Aggregate: with-skipping must decode fewer column blocks and beat
	// without-skipping overall.
	var with, without, scanned, scannedWithout float64
	for _, r := range tb.Rows {
		with += r[2]
		without += r[3]
		scanned += r[8]
		scannedWithout += r[9]
	}
	if scanned >= scannedWithout {
		t.Errorf("data skipping decoded no fewer column blocks: %v with, %v without", scanned, scannedWithout)
	}
	if with >= without {
		t.Errorf("data skipping did not help: with=%vms without=%vms", with, without)
	}
}

func TestFig16Shape(t *testing.T) {
	tb, err := Fig16(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	var local, pref, serial, warm float64
	for _, r := range tb.Rows {
		local += r[1]
		pref += r[2]
		serial += r[3]
		warm += r[4]
	}
	if !(local < pref && pref < serial) {
		t.Errorf("ordering broken: local=%v prefetch=%v serial=%v", local, pref, serial)
	}
	if warm >= pref {
		t.Errorf("warm cache (%v) not faster than cold (%v)", warm, pref)
	}
}

func TestFig17Shape(t *testing.T) {
	tb, err := Fig17(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Every quantile improves after optimizations.
	for _, r := range tb.Rows {
		if r[2] >= r[1] {
			t.Errorf("quantile %v: after (%v) not better than before (%v)", r[0], r[2], r[1])
		}
	}
}

func TestAblationBlockSize(t *testing.T) {
	tb, err := AblationBlockSize(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Larger blocks pack smaller (less per-block overhead) but skip
	// fewer column blocks.
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if first[1] <= last[1] {
		t.Errorf("512-row blocks (%v B) should pack larger than 65536-row blocks (%v B)", first[1], last[1])
	}
	if first[4] <= last[4] {
		t.Errorf("small blocks should skip more: %v vs %v", first[4], last[4])
	}
}

func TestAblationCodec(t *testing.T) {
	tb, err := AblationCodec(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	none, lz4, zstd := tb.Rows[0][1], tb.Rows[1][1], tb.Rows[2][1]
	if !(zstd < lz4 && lz4 < none) {
		t.Errorf("size ordering broken: none=%v lz4=%v zstd=%v", none, lz4, zstd)
	}
}

func TestAblationIndexes(t *testing.T) {
	tb, err := AblationIndexes(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	withIdx, withoutIdx := tb.Rows[0], tb.Rows[1]
	if withIdx[1] <= withoutIdx[1] {
		t.Errorf("indexes should cost space: %v vs %v", withIdx[1], withoutIdx[1])
	}
	if withIdx[3] >= withoutIdx[3] {
		t.Errorf("indexes should speed selective queries: %v vs %v", withIdx[3], withoutIdx[3])
	}
}

func TestFigHeteroShape(t *testing.T) {
	tb := FigHetero(tinyScale())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	none, maxflow := tb.Rows[0], tb.Rows[2]
	// Capacity-blind routing overloads some worker; max-flow stays at
	// or below the α watermark and delivers at least as much.
	if none[2] <= 1.0 {
		t.Errorf("heterogeneity should overload a worker without control: peak=%v", none[2])
	}
	if maxflow[2] > 0.87 {
		t.Errorf("max-flow peak utilization %v exceeds α", maxflow[2])
	}
	if maxflow[1] < none[1] {
		t.Errorf("max-flow throughput %v below uncontrolled %v", maxflow[1], none[1])
	}
}
