package sma

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"logstore/internal/schema"
)

func TestIntAggregates(t *testing.T) {
	s := New(schema.Int64)
	for _, v := range []int64{5, -3, 10, 0} {
		s.AddInt(v)
	}
	if s.Count != 4 || s.MinI != -3 || s.MaxI != 10 {
		t.Fatalf("got count=%d min=%d max=%d", s.Count, s.MinI, s.MaxI)
	}
}

func TestStringAggregates(t *testing.T) {
	s := New(schema.String)
	for _, v := range []string{"banana", "apple", "cherry"} {
		s.AddString(v)
	}
	if s.Count != 3 || s.MinS != "apple" || s.MaxS != "cherry" {
		t.Fatalf("got count=%d min=%q max=%q", s.Count, s.MinS, s.MaxS)
	}
}

func TestAddTyped(t *testing.T) {
	s := New(schema.Int64)
	s.Add(schema.IntValue(7))
	if s.MinI != 7 || s.MaxI != 7 {
		t.Error("Add(int) broken")
	}
	s2 := New(schema.String)
	s2.Add(schema.StringValue("x"))
	if s2.MinS != "x" {
		t.Error("Add(string) broken")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	for _, tc := range []func(){
		func() { New(schema.Int64).AddString("x") },
		func() { New(schema.String).AddInt(1) },
		func() {
			a, b := New(schema.Int64), New(schema.String)
			b.AddString("x")
			a.Merge(b)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc()
		}()
	}
}

func TestMerge(t *testing.T) {
	a := New(schema.Int64)
	a.AddInt(5)
	a.AddInt(10)
	b := New(schema.Int64)
	b.AddInt(-1)
	b.AddInt(7)
	a.Merge(b)
	if a.Count != 4 || a.MinI != -1 || a.MaxI != 10 {
		t.Fatalf("merge: count=%d min=%d max=%d", a.Count, a.MinI, a.MaxI)
	}
	// Merging into empty adopts the other side.
	c := New(schema.Int64)
	c.Merge(a)
	if c.Count != 4 || c.MinI != -1 || c.MaxI != 10 {
		t.Fatal("merge into empty broken")
	}
	// Merging empty/nil is a no-op.
	c.Merge(New(schema.Int64))
	c.Merge(nil)
	if c.Count != 4 {
		t.Fatal("merge of empty should be a no-op")
	}
	// String merge.
	x := New(schema.String)
	x.AddString("m")
	y := New(schema.String)
	y.AddString("a")
	y.AddString("z")
	x.Merge(y)
	if x.MinS != "a" || x.MaxS != "z" || x.Count != 3 {
		t.Fatal("string merge broken")
	}
}

func TestMayMatchInt(t *testing.T) {
	s := New(schema.Int64)
	s.AddInt(10)
	s.AddInt(20) // range [10, 20]
	cases := []struct {
		op   Op
		v    int64
		want bool
	}{
		{EQ, 15, true}, {EQ, 10, true}, {EQ, 20, true}, {EQ, 9, false}, {EQ, 21, false},
		{NE, 15, true}, {NE, 10, true},
		{LT, 10, false}, {LT, 11, true}, {LT, 100, true},
		{LE, 9, false}, {LE, 10, true},
		{GT, 20, false}, {GT, 19, true}, {GT, 0, true},
		{GE, 21, false}, {GE, 20, true},
	}
	for _, c := range cases {
		if got := s.MayMatch(c.op, schema.IntValue(c.v)); got != c.want {
			t.Errorf("[10,20] %v %d: MayMatch = %v, want %v", c.op, c.v, got, c.want)
		}
	}
	// NE on a constant column is skippable only for that constant.
	k := New(schema.Int64)
	k.AddInt(5)
	k.AddInt(5)
	if k.MayMatch(NE, schema.IntValue(5)) {
		t.Error("NE 5 on constant-5 column should be skippable")
	}
	if !k.MayMatch(NE, schema.IntValue(6)) {
		t.Error("NE 6 on constant-5 column should match")
	}
}

func TestMayMatchString(t *testing.T) {
	s := New(schema.String)
	s.AddString("false") // constant column, the paper's fig-8 example
	s.AddString("false")
	if s.MayMatch(EQ, schema.StringValue("true")) {
		t.Error("fail='true' should be skippable on an all-false block")
	}
	if !s.MayMatch(EQ, schema.StringValue("false")) {
		t.Error("fail='false' must match")
	}
}

func TestMayMatchEdgeCases(t *testing.T) {
	empty := New(schema.Int64)
	if empty.MayMatch(EQ, schema.IntValue(0)) {
		t.Error("empty SMA should never match")
	}
	s := New(schema.Int64)
	s.AddInt(5)
	// Kind-confused predicate must not cause a false skip.
	if !s.MayMatch(EQ, schema.StringValue("5")) {
		t.Error("kind mismatch must be conservative (no skip)")
	}
	// Unknown op: conservative.
	if !s.MayMatch(Op(99), schema.IntValue(5)) {
		t.Error("unknown op must be conservative")
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if Op(42).String() != "op(42)" {
		t.Errorf("unknown op String() = %q", Op(42).String())
	}
}

func TestRoundTripInt(t *testing.T) {
	f := func(vals []int64) bool {
		s := New(schema.Int64)
		for _, v := range vals {
			s.AddInt(v)
		}
		raw := s.AppendTo(nil)
		got, n, err := Decode(raw)
		if err != nil || n != len(raw) {
			return false
		}
		return got.Kind == s.Kind && got.Count == s.Count &&
			got.MinI == s.MinI && got.MaxI == s.MaxI
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTripString(t *testing.T) {
	f := func(vals []string) bool {
		s := New(schema.String)
		for _, v := range vals {
			s.AddString(v)
		}
		raw := s.AppendTo(nil)
		got, n, err := Decode(raw)
		if err != nil || n != len(raw) {
			return false
		}
		return got.Kind == s.Kind && got.Count == s.Count &&
			got.MinS == s.MinS && got.MaxS == s.MaxS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, _, err := Decode([]byte{99}); err == nil {
		t.Error("bad kind should error")
	}
	s := New(schema.String)
	s.AddString("hello")
	raw := s.AppendTo(nil)
	for cut := 1; cut < len(raw); cut++ {
		if _, _, err := Decode(raw[:cut]); err == nil {
			t.Errorf("truncation to %d should error", cut)
		}
	}
}

// Property: MayMatch never reports false for a predicate some summarized
// value actually satisfies (no false skips — the data-skipping safety
// invariant).
func TestNoFalseSkips(t *testing.T) {
	ops := []Op{EQ, NE, LT, LE, GT, GE}
	f := func(vals []int64, probe int64, opIdx uint8) bool {
		if len(vals) == 0 {
			return true
		}
		op := ops[int(opIdx)%len(ops)]
		s := New(schema.Int64)
		for _, v := range vals {
			s.AddInt(v)
		}
		anyMatch := false
		for _, v := range vals {
			var m bool
			switch op {
			case EQ:
				m = v == probe
			case NE:
				m = v != probe
			case LT:
				m = v < probe
			case LE:
				m = v <= probe
			case GT:
				m = v > probe
			case GE:
				m = v >= probe
			}
			if m {
				anyMatch = true
				break
			}
		}
		// If some value matches, MayMatch must be true.
		return !anyMatch || s.MayMatch(op, schema.IntValue(probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRangeAnswersBothWays(t *testing.T) {
	s := New(schema.Int64)
	for _, v := range []int64{10, 20, 30} {
		s.AddInt(v)
	}
	for _, tc := range []struct {
		lo, hi    int64
		may, all3 bool
	}{
		{0, 100, true, true},
		{10, 30, true, true},
		{11, 30, true, false},
		{10, 29, true, false},
		{31, 40, false, false},
		{0, 9, false, false},
		{25, 15, false, false}, // empty interval
		{math.MinInt64, math.MaxInt64, true, true},
	} {
		if got := s.MayMatchRange(tc.lo, tc.hi); got != tc.may {
			t.Errorf("MayMatchRange(%d, %d) = %v", tc.lo, tc.hi, got)
		}
		if got := s.AllMatchRange(tc.lo, tc.hi, 3); got != tc.all3 {
			t.Errorf("AllMatchRange(%d, %d, 3) = %v", tc.lo, tc.hi, got)
		}
		// One row the SMA never saw could hold anything.
		if s.AllMatchRange(tc.lo, tc.hi, 4) {
			t.Errorf("AllMatchRange(%d, %d) held for 4 rows from a 3-row SMA", tc.lo, tc.hi)
		}
	}
	empty := New(schema.Int64)
	if empty.MayMatchRange(0, 10) || empty.AllMatchRange(0, 10, 0) {
		t.Error("an empty SMA matched")
	}
}

func TestTruncate(t *testing.T) {
	long := "0123456789abcdef" // exactly BoundLen bytes
	for _, tc := range []struct {
		name     string
		vals     []string
		min, max string
	}{
		{"short values stay whole", []string{"192.168.0.7", "10.0.0.1"}, "10.0.0.1", "192.168.0.7"},
		{"a value of exactly BoundLen bytes", []string{long}, long, long},
		{"one byte past the cut", []string{long + "X", long + "Y"}, long, "0123456789abcdeg"},
		{"0xFF at the cut carries", []string{"!", "0123456789abcde\xffzz"}, "!", "0123456789abcdf"},
		{"0xFF bytes before the cut carry", []string{"!", "012345678901\xff\xff\xff\xff!"}, "!", "012345678902"},
		{"a max of all 0xFF stays whole", []string{"a", strings.Repeat("\xff", 20)}, "a", strings.Repeat("\xff", 20)},
		{"a long min is cut, a short max kept", []string{"request served code=200", "z"}, "request served c", "z"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(schema.String)
			for _, v := range tc.vals {
				s.AddString(v)
			}
			s.Truncate()
			if s.MinS != tc.min || s.MaxS != tc.max || s.Count != int64(len(tc.vals)) {
				t.Fatalf("truncated to [%q, %q] of %d, want [%q, %q]", s.MinS, s.MaxS, s.Count, tc.min, tc.max)
			}
		})
	}
	i := New(schema.Int64)
	i.AddInt(-3)
	i.AddInt(1 << 40)
	before := *i
	if i.Truncate(); *i != before {
		t.Fatalf("an int SMA changed: %+v", i)
	}
}

// TestTruncatedMayMatch: bounds cut by Truncate still skip what lies
// outside them, and never refute a predicate some row satisfies; NE is
// refuted only when every row equals the value.
func TestTruncatedMayMatch(t *testing.T) {
	s := New(schema.String)
	s.AddString("apple pie with cream")
	s.AddString("banana bread, warm, sliced")
	s.Truncate()
	for _, tc := range []struct {
		op   Op
		v    string
		want bool
	}{
		{EQ, "aardvark", false},
		{EQ, "zebra", false},
		{EQ, "apple pie with cream", true},
		{EQ, "banana bread, warm, sliced", true},
		{EQ, "apple pie with cr", true}, // between the cut bounds: kept
		{LT, "apple", false},
		{LT, "apple pie with cream", true}, // the cut min is below it
		{GE, "c", false},
		{GE, "banana bread, warm, sliced", true},
		{GE, "banana bread, wz", false},
		{GE, "banana bread, warm, sliced!", true}, // below the incremented max
		{NE, "apple pie with cream", true},
	} {
		if got := s.MayMatch(tc.op, schema.StringValue(tc.v)); got != tc.want {
			t.Errorf("MayMatch(%s %q) over [%q, %q] = %v, want %v", tc.op, tc.v, s.MinS, s.MaxS, got, tc.want)
		}
	}

	// Every row equal: NE is refuted for a value that keeps its bytes,
	// and never for one that was cut, whose bounds differ.
	for _, v := range []string{"0123456789abcdef", "0123456789abcdefghij", strings.Repeat("\xff", 18)} {
		s := New(schema.String)
		s.AddString(v)
		s.AddString(v)
		s.Truncate()
		if refuted, whole := !s.MayMatch(NE, schema.StringValue(v)), len(v) <= BoundLen; refuted != whole {
			t.Errorf("every row %q: NE refuted %v, want %v", v, refuted, whole)
		}
	}

	// No false skips over random values near the cut, 0xFF bytes
	// included.
	rng := rand.New(rand.NewSource(16))
	alphabet := []byte{'a', 'b', 0xfe, 0xff}
	randValue := func() string {
		b := make([]byte, rng.Intn(2*BoundLen))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for trial := 0; trial < 3000; trial++ {
		vals := make([]string, 1+rng.Intn(4))
		s := New(schema.String)
		for i := range vals {
			vals[i] = randValue()
			s.AddString(vals[i])
		}
		s.Truncate()
		probe := randValue()
		if rng.Intn(3) == 0 {
			probe = vals[rng.Intn(len(vals))]
		}
		for _, op := range []Op{EQ, NE, LT, LE, GT, GE} {
			some := false
			for _, v := range vals {
				some = some || map[Op]bool{EQ: v == probe, NE: v != probe, LT: v < probe,
					LE: v <= probe, GT: v > probe, GE: v >= probe}[op]
			}
			if some && !s.MayMatch(op, schema.StringValue(probe)) {
				t.Fatalf("values %q truncated to [%q, %q]: %s %q refuted, yet a row satisfies it",
					vals, s.MinS, s.MaxS, op, probe)
			}
		}
	}
}
