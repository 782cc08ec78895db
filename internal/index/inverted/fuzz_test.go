package inverted

import (
	"slices"
	"strings"
	"testing"
)

// FuzzInvertedOpen feeds arbitrary bytes to Open and runs the lookup
// surface over whatever parses: corrupt dictionaries must surface as
// errors, never as panics or runaway allocations. The checked-in
// seed-front-coded entries are what AppendTo writes; seed-dict and
// seed-truncated are the encoding before it, which Open must refuse or
// survive. The same bytes, cut into values, also go through the
// builder, whose index must answer as the reference map of each term's
// rows does.
func FuzzInvertedOpen(f *testing.F) {
	b := NewBuilder()
	b.Add(0, "alpha beta")
	b.Add(1, "beta gamma delta")
	b.Add(2, "alpha")
	f.Add(b.Build())
	f.Add([]byte("alpha beta\x00beta gamma delta\x00alpha")) // the same rows, as builderMade cuts them
	f.Add(NewBuilder().Build())
	f.Add([]byte{})
	// Term count far beyond the offset table actually present.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		builderMade(t, data)
		ix, err := Open(data)
		if err != nil {
			return
		}
		_, _ = ix.Lookup("alpha")
		_, _ = ix.Lookup("")
		_, _ = ix.LookupPrefix("a", 64)
		_, _ = ix.LookupAll([]string{"alpha", "beta"}, 64)
		if bs, err := ix.LookupBitset("beta", 64); err == nil && bs.Len() != 64 {
			t.Fatalf("LookupBitset returned %d bits, want 64", bs.Len())
		}
		// Every term sorts at or after "\x00" and has "" as prefix
		// only vacuously: walk the whole dictionary once.
		_, _ = ix.LookupPrefix("\x00", 64)
	})
}

// builderMade cuts data at every 0x00 byte into values, one row each,
// indexes them with the builder, and checks that the index answers
// every lookup as the reference does.
func builderMade(t *testing.T, data []byte) {
	if len(data) > 4096 {
		return
	}
	values := strings.Split(string(data), "\x00")
	b := NewBuilder()
	for row, v := range values {
		b.Add(uint32(row), v)
	}
	got, err := Open(b.Build())
	if err != nil {
		t.Fatalf("builder-made index does not open: %v", err)
	}
	want := referenceIndex(values)
	if got.TermCount() != len(want) {
		t.Fatalf("%d terms, reference %d", got.TermCount(), len(want))
	}
	probes := append([]string{"", "a", "\xff"}, values...)
	for _, v := range values {
		probes = append(probes, Tokenize(v)...)
	}
	for _, p := range probes {
		assertSameLookups(t, got, want, p, len(values))
	}
}

// assertSameLookups checks that an index answers Lookup, LookupBitset,
// LookupPrefix and LookupAll for probe as the reference over the same
// rows does.
func assertSameLookups(t *testing.T, got *Index, want refIndex, probe string, rows int) {
	t.Helper()
	g, err := got.Lookup(probe)
	if w := want.lookup(probe); err != nil || !slices.Equal(g, w) {
		t.Fatalf("Lookup(%q) = %v, %v; reference %v", probe, g, err, w)
	}
	gb, err := got.LookupBitset(probe, rows)
	if w := bitset(want.lookup(probe), rows); err != nil || !slices.Equal(gb.Slice(), w.Slice()) {
		t.Fatalf("LookupBitset(%q) = %v, %v; reference %v", probe, gb, err, w)
	}
	for _, n := range []int{len(probe), len(probe) / 2, 1} {
		prefix := probe[:min(n, len(probe))]
		gp, err := got.LookupPrefix(prefix, rows)
		if w := want.lookupPrefix(prefix, rows); err != nil || !slices.Equal(gp.Slice(), w.Slice()) {
			t.Fatalf("LookupPrefix(%q) = %v, %v; reference %v", prefix, gp, err, w)
		}
	}
	terms := Tokenize(probe)
	ga, err := got.LookupAll(terms, rows)
	if w := want.lookupAll(terms, rows); err != nil || !slices.Equal(ga.Slice(), w.Slice()) {
		t.Fatalf("LookupAll(%q) = %v, %v; reference %v", terms, ga, err, w)
	}
}
