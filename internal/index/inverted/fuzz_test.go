package inverted

import (
	"slices"
	"strings"
	"testing"
)

// FuzzInvertedOpen feeds arbitrary bytes to Open and to OpenLegacy and
// runs the lookup surface over whatever parses: corrupt dictionaries
// must surface as errors, never as panics or runaway allocations. The
// checked-in seed-dict and seed-truncated entries are the legacy
// encoding; the seed-front-coded ones are what AppendTo writes now.
// The same bytes, cut into values, also go through the builder and
// the legacy reference encoder, whose indexes must answer alike.
func FuzzInvertedOpen(f *testing.F) {
	b := NewBuilder()
	b.Add(0, "alpha beta")
	b.Add(1, "beta gamma delta")
	b.Add(2, "alpha")
	f.Add(b.Build())
	f.Add(referenceBuild([]string{"alpha beta", "beta gamma delta", "alpha"}))
	f.Add(NewBuilder().Build())
	f.Add([]byte{})
	// Term count far beyond the offset table actually present.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		builderMade(t, data)
		for _, open := range []func([]byte) (*Index, error){Open, OpenLegacy} {
			ix, err := open(data)
			if err != nil {
				continue
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
		}
	})
}

// builderMade cuts data at every 0x00 byte into values, one row each,
// indexes them with the builder and with the legacy reference encoder,
// and checks that the two indexes answer every lookup alike.
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
	want, err := OpenLegacy(referenceBuild(values))
	if err != nil {
		t.Fatalf("reference index does not open: %v", err)
	}
	if got.TermCount() != want.TermCount() {
		t.Fatalf("%d terms, reference %d", got.TermCount(), want.TermCount())
	}
	probes := append([]string{"", "a", "\xff"}, values...)
	for _, v := range values {
		probes = append(probes, Tokenize(v)...)
	}
	for _, p := range probes {
		assertSameLookups(t, got, want, p, len(values))
	}
}

// assertSameLookups checks that two indexes over the same rows answer
// Lookup, LookupBitset, LookupPrefix and LookupAll alike for probe.
func assertSameLookups(t *testing.T, got, want *Index, probe string, rows int) {
	t.Helper()
	g, gerr := got.Lookup(probe)
	w, werr := want.Lookup(probe)
	if gerr != nil || werr != nil || !slices.Equal(g, w) {
		t.Fatalf("Lookup(%q) = %v, %v; reference %v, %v", probe, g, gerr, w, werr)
	}
	gb, gerr := got.LookupBitset(probe, rows)
	wb, werr := want.LookupBitset(probe, rows)
	if gerr != nil || werr != nil || !slices.Equal(gb.Slice(), wb.Slice()) {
		t.Fatalf("LookupBitset(%q) = %v, %v; reference %v, %v", probe, gb, gerr, wb, werr)
	}
	for _, n := range []int{len(probe), len(probe) / 2, 1} {
		gp, gerr := got.LookupPrefix(probe[:min(n, len(probe))], rows)
		wp, werr := want.LookupPrefix(probe[:min(n, len(probe))], rows)
		if gerr != nil || werr != nil || !slices.Equal(gp.Slice(), wp.Slice()) {
			t.Fatalf("LookupPrefix(%q) = %v, %v; reference %v, %v", probe[:min(n, len(probe))], gp, gerr, wp, werr)
		}
	}
	terms := Tokenize(probe)
	ga, gerr := got.LookupAll(terms, rows)
	wa, werr := want.LookupAll(terms, rows)
	if gerr != nil || werr != nil || !slices.Equal(ga.Slice(), wa.Slice()) {
		t.Fatalf("LookupAll(%q) = %v, %v; reference %v, %v", terms, ga, gerr, wa, werr)
	}
}
