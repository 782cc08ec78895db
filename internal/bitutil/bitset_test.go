package bitutil

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if b.Any() {
		t.Fatal("new bitset should be empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	for _, i := range []int{0, 64, 129} {
		if !b.Test(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Test(1) || b.Test(63) || b.Test(128) {
		t.Error("unexpected bits set")
	}
	if got := b.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	b.Clear(64)
	if b.Test(64) {
		t.Error("bit 64 should be cleared")
	}
	if got := b.Count(); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
}

func TestBitsetOutOfRange(t *testing.T) {
	b := NewBitset(10)
	b.Set(-1)
	b.Set(10)
	b.Set(100)
	if b.Any() {
		t.Error("out-of-range Set should be a no-op")
	}
	if b.Test(-1) || b.Test(10) {
		t.Error("out-of-range Test should be false")
	}
}

func TestBitsetSetAllRespectsLength(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000} {
		b := NewBitset(n)
		b.SetAll()
		if got := b.Count(); got != n {
			t.Errorf("n=%d: Count after SetAll = %d", n, got)
		}
	}
}

func TestBitsetBoolean(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	and := a.Clone()
	and.And(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 == 0
		if and.Test(i) != want {
			t.Errorf("And bit %d = %v, want %v", i, and.Test(i), want)
		}
	}
	or := a.Clone()
	or.Or(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 || i%3 == 0
		if or.Test(i) != want {
			t.Errorf("Or bit %d = %v, want %v", i, or.Test(i), want)
		}
	}
	an := a.Clone()
	an.AndNot(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 != 0
		if an.Test(i) != want {
			t.Errorf("AndNot bit %d = %v, want %v", i, an.Test(i), want)
		}
	}
}

func TestBitsetMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And on different lengths should panic")
		}
	}()
	NewBitset(10).And(NewBitset(20))
}

func TestBitsetForEachOrderAndEarlyStop(t *testing.T) {
	b := NewBitset(256)
	want := []int{3, 64, 65, 200, 255}
	for _, i := range want {
		b.Set(i)
	}
	got := b.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
	var visited int
	b.ForEach(func(i int) bool {
		visited++
		return visited < 2
	})
	if visited != 2 {
		t.Errorf("early stop visited %d bits, want 2", visited)
	}
}

func TestBitsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(500)
		b := NewBitset(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		got, err := BitsetFromBytes(b.Bytes())
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if got.Len() != b.Len() || got.Count() != b.Count() {
			t.Fatalf("round trip mismatch: len %d/%d count %d/%d",
				got.Len(), b.Len(), got.Count(), b.Count())
		}
		for i := 0; i < n; i++ {
			if got.Test(i) != b.Test(i) {
				t.Fatalf("bit %d mismatch after round trip", i)
			}
		}
	}
}

func TestBitsetFromBytesTruncated(t *testing.T) {
	b := NewBitset(100)
	b.SetAll()
	raw := b.Bytes()
	if _, err := BitsetFromBytes(raw[:4]); err == nil {
		t.Error("truncated header should error")
	}
	if _, err := BitsetFromBytes(raw[:len(raw)-1]); err == nil {
		t.Error("truncated body should error")
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		buf := AppendUvarint(nil, v)
		got, n, err := Uvarint(buf)
		return err == nil && n == len(buf) && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(v int64) bool {
		buf := AppendVarint(nil, v)
		got, n, err := Varint(buf)
		return err == nil && n == len(buf) && got == v
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestVarintErrors(t *testing.T) {
	if _, _, err := Uvarint(nil); err == nil {
		t.Error("empty uvarint should error")
	}
	if _, _, err := Uvarint([]byte{0x80}); err == nil {
		t.Error("truncated uvarint should error")
	}
	if _, _, err := Varint([]byte{0x80}); err == nil {
		t.Error("truncated varint should error")
	}
}

func TestLenBytesRoundTrip(t *testing.T) {
	f := func(p []byte, s string) bool {
		var buf []byte
		buf = AppendLenBytes(buf, p)
		buf = AppendLenString(buf, s)
		gp, n1, err := LenBytes(buf)
		if err != nil || len(gp) != len(p) || string(gp) != string(p) {
			return false
		}
		gs, _, err := LenString(buf[n1:])
		return err == nil && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLenBytesTruncated(t *testing.T) {
	buf := AppendLenBytes(nil, []byte("hello world"))
	if _, _, err := LenBytes(buf[:3]); err == nil {
		t.Error("truncated payload should error")
	}
}

func BenchmarkBitsetAnd(b *testing.B) {
	x := NewBitset(1 << 16)
	y := NewBitset(1 << 16)
	x.SetAll()
	for i := 0; i < y.Len(); i += 7 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkBitsetForEach(b *testing.B) {
	x := NewBitset(1 << 16)
	for i := 0; i < x.Len(); i += 9 {
		x.Set(i)
	}
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		x.ForEach(func(j int) bool { sum += j; return true })
	}
	_ = sum
}

func TestBitsetKeepFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		b := NewBitset(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		all := b.Slice()
		keep := rng.Intn(len(all) + 3)
		b.KeepFirst(keep)
		if want := all[:min(keep, len(all))]; !slices.Equal(b.Slice(), want) {
			t.Fatalf("KeepFirst(%d) of %v = %v", keep, all, b.Slice())
		}
	}
}
