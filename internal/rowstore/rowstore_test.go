package rowstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"logstore/internal/schema"
)

func row(tenant, ts int64, msg string) schema.Row {
	return schema.Row{
		schema.IntValue(tenant),
		schema.IntValue(ts),
		schema.StringValue("192.168.0.1"),
		schema.StringValue("/api"),
		schema.IntValue(10),
		schema.StringValue("false"),
		schema.StringValue(msg),
	}
}

func newStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := New(schema.RequestLogSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidatesSchema(t *testing.T) {
	if _, err := New(&schema.Schema{Name: "x"}, Options{}); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestAppendAndScan(t *testing.T) {
	s := newStore(t, Options{})
	for i := 0; i < 10; i++ {
		if err := s.Append(row(int64(i%3), int64(100+i), fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	s.Scan(func(r schema.Row) bool {
		got = append(got, r[6].S)
		return true
	})
	if len(got) != 10 || got[0] != "m0" || got[9] != "m9" {
		t.Fatalf("Scan = %v", got)
	}
	rows, bytes, sealed := s.Stats()
	if rows != 10 || bytes <= 0 || sealed != 0 {
		t.Errorf("Stats = %d, %d, %d", rows, bytes, sealed)
	}
}

func TestAppendValidatesBatch(t *testing.T) {
	s := newStore(t, Options{})
	bad := schema.Row{schema.IntValue(1)}
	if err := s.Append(row(1, 1, "ok"), bad); err == nil {
		t.Fatal("invalid row accepted")
	}
	// Batch aborted atomically: nothing applied.
	rows, _, _ := s.Stats()
	if rows != 0 {
		t.Errorf("partial batch applied: %d rows", rows)
	}
}

func TestSegmentRolloverByRows(t *testing.T) {
	s := newStore(t, Options{MaxSegmentRows: 4})
	for i := 0; i < 10; i++ {
		if err := s.Append(row(1, int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	_, _, sealed := s.Stats()
	if sealed != 2 {
		t.Errorf("sealed = %d, want 2 (4+4+2 active)", sealed)
	}
	segs := s.Sealed()
	if len(segs) != 2 || segs[0].Len() != 4 || segs[1].Len() != 4 {
		t.Errorf("segment shapes wrong: %d segments", len(segs))
	}
	if segs[0].ID >= segs[1].ID {
		t.Error("segment ids must increase")
	}
}

func TestSegmentRolloverByBytes(t *testing.T) {
	s := newStore(t, Options{MaxSegmentBytes: 300})
	for i := 0; i < 20; i++ {
		if err := s.Append(row(1, int64(i), "some log message payload")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, sealed := s.Stats(); sealed == 0 {
		t.Error("byte threshold never sealed")
	}
	for _, seg := range s.Sealed() {
		if seg.Bytes > 300+200 { // one row of slack beyond the limit
			t.Errorf("segment %d holds %d bytes", seg.ID, seg.Bytes)
		}
	}
}

func TestSegmentTimeBounds(t *testing.T) {
	s := newStore(t, Options{})
	ts := []int64{50, 10, 90, 30}
	for _, v := range ts {
		if err := s.Append(row(1, v, "x")); err != nil {
			t.Fatal(err)
		}
	}
	seg := s.Seal()
	if seg == nil || seg.MinTS != 10 || seg.MaxTS != 90 {
		t.Fatalf("seal = %+v", seg)
	}
	// Sealing an empty active returns nil.
	if s.Seal() != nil {
		t.Error("empty seal should be nil")
	}
}

func TestRelease(t *testing.T) {
	s := newStore(t, Options{MaxSegmentRows: 2})
	for i := 0; i < 6; i++ {
		if err := s.Append(row(1, int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	segs := s.Sealed()
	if len(segs) != 2 {
		t.Fatalf("sealed = %d", len(segs))
	}
	s.Release(segs[0].ID)
	rows, _, sealed := s.Stats()
	if sealed != 1 || rows != 4 {
		t.Errorf("after release: rows=%d sealed=%d", rows, sealed)
	}
	s.Release(9999) // unknown id: no-op
	if _, _, sealed := s.Stats(); sealed != 1 {
		t.Error("unknown release changed state")
	}
	// Released rows are no longer scanned.
	count := 0
	s.Scan(func(schema.Row) bool { count++; return true })
	if count != 4 {
		t.Errorf("Scan after release = %d rows", count)
	}
}

func TestScanTenantFiltering(t *testing.T) {
	s := newStore(t, Options{MaxSegmentRows: 3})
	for i := 0; i < 12; i++ {
		if err := s.Append(row(int64(i%2), int64(i*10), fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	s.ScanTenant(1, 30, 90, func(r schema.Row) bool {
		got = append(got, r[1].I)
		return true
	})
	// tenant 1 rows: ts 10,30,50,70,90,110; in [30,90]: 30,50,70,90.
	want := []int64{30, 50, 70, 90}
	if len(got) != len(want) {
		t.Fatalf("ScanTenant = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanTenant = %v, want %v", got, want)
		}
	}
}

func TestScanTenantSegmentSkipping(t *testing.T) {
	// Segments outside the time range must be skipped wholesale; we
	// verify via early termination counting.
	s := newStore(t, Options{MaxSegmentRows: 5})
	for i := 0; i < 20; i++ {
		if err := s.Append(row(1, int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	var visited int
	s.ScanTenant(1, 100, 200, func(schema.Row) bool {
		visited++
		return true
	})
	if visited != 0 {
		t.Errorf("visited %d rows outside any segment range", visited)
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := newStore(t, Options{})
	for i := 0; i < 10; i++ {
		if err := s.Append(row(1, int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	s.Scan(func(schema.Row) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
	count = 0
	s.ScanTenant(1, 0, 100, func(schema.Row) bool { count++; return false })
	if count != 1 {
		t.Errorf("tenant early stop visited %d", count)
	}
}

func TestClose(t *testing.T) {
	s := newStore(t, Options{})
	if err := s.Append(row(1, 1, "x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Append(row(1, 2, "y")); err != ErrClosed {
		t.Errorf("Append after close = %v", err)
	}
	// Data stays readable.
	count := 0
	s.Scan(func(schema.Row) bool { count++; return true })
	if count != 1 {
		t.Error("resident data lost on close")
	}
}

func TestConcurrentAppendScan(t *testing.T) {
	s := newStore(t, Options{MaxSegmentRows: 64})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := s.Append(row(int64(w), int64(i), "m")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	stop := make(chan struct{})
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Scan(func(schema.Row) bool { return true })
			s.ScanTenant(2, 0, 1000, func(schema.Row) bool { return true })
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	rows, _, _ := s.Stats()
	if rows != 2000 {
		t.Errorf("rows = %d, want 2000", rows)
	}
}

func BenchmarkAppend(b *testing.B) {
	s, err := New(schema.RequestLogSchema(), Options{MaxSegmentRows: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	r := row(1, 1, "benchmark log message with realistic payload length for sizing")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
		if i%100000 == 0 { // keep memory bounded
			for _, seg := range s.Sealed() {
				s.Release(seg.ID)
			}
		}
	}
}

func TestTenantIndexMatchesScan(t *testing.T) {
	plain := newStore(t, Options{MaxSegmentRows: 7})
	indexed := newStore(t, Options{MaxSegmentRows: 7, TenantIndex: true})
	for i := 0; i < 100; i++ {
		r := row(int64(i%5), int64(i), fmt.Sprintf("m%d", i))
		if err := plain.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := indexed.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for tenant := int64(0); tenant < 6; tenant++ {
		var a, b []string
		plain.ScanTenant(tenant, 10, 80, func(r schema.Row) bool {
			a = append(a, r[6].S)
			return true
		})
		indexed.ScanTenant(tenant, 10, 80, func(r schema.Row) bool {
			b = append(b, r[6].S)
			return true
		})
		if len(a) != len(b) {
			t.Fatalf("tenant %d: plain %d rows, indexed %d", tenant, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tenant %d row %d: %q vs %q", tenant, i, a[i], b[i])
			}
		}
	}
	// Early stop works through the indexed path.
	count := 0
	indexed.ScanTenant(1, 0, 100, func(schema.Row) bool { count++; return false })
	if count != 1 {
		t.Errorf("indexed early stop visited %d", count)
	}
}

func BenchmarkScanTenantPlain(b *testing.B) {
	benchScanTenant(b, false)
}

func BenchmarkScanTenantIndexed(b *testing.B) {
	benchScanTenant(b, true)
}

func benchScanTenant(b *testing.B, indexed bool) {
	s, err := New(schema.RequestLogSchema(), Options{MaxSegmentRows: 10000, TenantIndex: indexed})
	if err != nil {
		b.Fatal(err)
	}
	// 100 tenants x 1000 rows; query one mid-size tenant.
	for i := 0; i < 100000; i++ {
		if err := s.Append(row(int64(i%100), int64(i), "payload message")); err != nil {
			b.Fatal(err)
		}
	}
	s.Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.ScanTenant(42, 0, 1<<40, func(schema.Row) bool { n++; return true })
		if n == 0 {
			b.Fatal("no rows")
		}
	}
}

// TestScanTenantReportsCoveredSegments: the scan names every segment
// resident at its snapshot — sealed and active, scanned, time-skipped or
// holding none of the tenant's rows — nothing once they are released,
// and segment ids are not reused, not even by another store.
func TestScanTenantReportsCoveredSegments(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		s := newStore(t, Options{MaxSegmentRows: 4, TenantIndex: indexed})
		if got := s.ScanTenant(1, 0, 1000, func(schema.Row) bool { return true }); got != nil {
			t.Fatalf("empty store covered %v", got)
		}
		for i := 0; i < 10; i++ { // two sealed segments (ts 0-3, 4-7) and an active one (8-9)
			if err := s.Append(row(int64(i%2), int64(i), "x")); err != nil {
				t.Fatal(err)
			}
		}
		want := []uint64{s.Sealed()[0].ID, s.Sealed()[1].ID, s.Sealed()[1].ID + 1}
		seen := 0
		got := s.ScanTenant(1, 4, 7, func(schema.Row) bool { seen++; return true })
		if !slices.Equal(got, want) || seen != 2 {
			t.Fatalf("indexed=%v: covered %v, saw %d rows; want %v and 2", indexed, got, seen, want)
		}
		// A tenant with no rows anywhere still gets the full snapshot.
		if got := s.ScanTenant(9, 0, 1000, func(schema.Row) bool { return true }); !slices.Equal(got, want) {
			t.Fatalf("indexed=%v: absent tenant covered %v, want %v", indexed, got, want)
		}
		s.Release(want[0])
		if got := s.ScanTenant(1, 0, 1000, func(schema.Row) bool { return true }); !slices.Equal(got, want[1:]) {
			t.Fatalf("indexed=%v: after release covered %v, want %v", indexed, got, want[1:])
		}

		other := newStore(t, Options{})
		if err := other.Append(row(1, 1, "x")); err != nil {
			t.Fatal(err)
		}
		if id := other.Seal().ID; id == 0 || slices.Contains(want, id) {
			t.Fatalf("a second store's first segment got id %d; the first store used %v", id, want)
		}
	}
}

// TestAppendBatchAllocations: applying a committed batch builds nothing
// per row — a 200-row batch costs the allocations a 1-row batch does.
func TestAppendBatchAllocations(t *testing.T) {
	s := newStore(t, Options{})
	batch := func(n int) []byte {
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = row(int64(i%7), int64(i), fmt.Sprintf("message %d", i))
		}
		return EncodeBatch(nil, rows)
	}
	one, many := batch(1), batch(200)
	apply := func(b []byte) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := s.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, a200 := apply(one), apply(many); a1 != a200 {
		t.Errorf("a 1-row batch costs %.0f allocations, a 200-row batch %.0f", a1, a200)
	}
}

// TestBatchSplitAcrossSeal: a batch that straddles a seal lands partly
// in each segment, each segment's Bytes is the schema.Row.Size of its
// rows, and every row reads back once, in order.
func TestBatchSplitAcrossSeal(t *testing.T) {
	s := newStore(t, Options{MaxSegmentRows: 4})
	var rows []schema.Row
	for i := 0; i < 6; i++ {
		rows = append(rows, row(int64(i%2), int64(100-i), fmt.Sprintf("m%d", i)))
	}
	if err := s.Append(rows[:3]...); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rows[3:]...); err != nil { // one row to the first segment, two to the next
		t.Fatal(err)
	}
	sealed := s.Sealed()
	if len(sealed) != 1 || sealed[0].Len() != 4 {
		t.Fatalf("sealed %d segments, want one of 4 rows", len(sealed))
	}
	size := func(rs []schema.Row) (n int64) {
		for _, r := range rs {
			n += int64(r.Size())
		}
		return n
	}
	if seg := sealed[0]; seg.Bytes != size(rows[:4]) || seg.MinTS != 97 || seg.MaxTS != 100 {
		t.Errorf("sealed segment: %d bytes over [%d, %d]; want %d over [97, 100]", seg.Bytes, seg.MinTS, seg.MaxTS, size(rows[:4]))
	}
	if _, bytes, _ := s.Stats(); bytes != size(rows) {
		t.Errorf("resident bytes = %d, want %d", bytes, size(rows))
	}
	var got []string
	s.Scan(func(r schema.Row) bool { got = append(got, fmt.Sprint(r)); return true })
	for i, r := range rows {
		if i >= len(got) || got[i] != fmt.Sprint(r) {
			t.Fatalf("Scan = %q, want the appended rows in order", got)
		}
	}
	dst := make([]schema.Row, 4)
	for k := range dst {
		dst[k] = make(schema.Row, len(rows[0]))
	}
	sealed[0].Decode([]int32{3, 0, 2, 1}, dst)
	for k, i := range []int{3, 0, 2, 1} {
		if fmt.Sprint(dst[k]) != fmt.Sprint(rows[i]) {
			t.Fatalf("Decode position %d = %v, want %v", i, dst[k], rows[i])
		}
	}
}

// TestSelectionDecodeColumns: a selection decodes any columns of any of
// its rows — projected, repeated, out of schema order, ints only — and
// leaves the store's rows as they were.
func TestSelectionDecodeColumns(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		s := newStore(t, Options{MaxSegmentRows: 5, TenantIndex: indexed})
		var want []schema.Row
		for i := 0; i < 23; i++ {
			r := row(int64(i%3), int64(i), fmt.Sprintf("log line %d", i))
			r[4] = schema.IntValue(int64(i * 10))
			if err := s.Append(r); err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 && i >= 4 && i <= 20 {
				want = append(want, r)
			}
		}
		sel, covered := s.SelectTenant(2, 4, 20)
		if sel.Len() != len(want) || len(covered) != 5 {
			t.Fatalf("indexed=%v: selected %d rows over %d segments, want %d over 5", indexed, sel.Len(), len(covered), len(want))
		}
		idx := make([]int32, sel.Len())
		for k := range idx {
			idx[k] = int32(len(idx) - 1 - k) // backwards
		}
		for _, cols := range [][]int{{6, 1, 6}, {4}, {1, 0}} {
			dst := make([]schema.Row, len(idx))
			for k := range dst {
				dst[k] = make(schema.Row, len(cols))
			}
			sel.Decode(idx, cols, dst)
			for k, i := range idx {
				for j, c := range cols {
					if !dst[k][j].Equal(want[i][c]) {
						t.Fatalf("indexed=%v cols %v: row %d cell %d = %v, want %v", indexed, cols, i, j, dst[k][j], want[i][c])
					}
				}
			}
		}
	}
}
