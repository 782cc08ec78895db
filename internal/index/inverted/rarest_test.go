package inverted

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"logstore/internal/bitutil"
)

// rarestProbes are equality literals for a column of values: each
// value as stored and upper-cased, values with no tokens, non-ASCII
// ones, permuted octets, one token of another row alone, and terms no
// row holds.
func rarestProbes(values []string) []string {
	probes := []string{"", "--", "--- ::", "zzzz", "192.168.2.36", "192.168.36.2", "Größe", "用户登录", "request"}
	for _, v := range values {
		probes = append(probes, v, strings.ToUpper(v))
		probes = append(probes, Tokenize(v)...)
	}
	return probes
}

// TestLookupRarest holds LookupRarest, over the builder's index and
// over one that also holds whole values, as indexes written before
// tokens alone were indexed do, to its definition: every row when the literal has no tokens,
// no row when a token is missing, else the rows of one of its tokens —
// which must include each row holding all of them, so that verifying
// the candidates against the stored values finds exactly the rows
// equal to the literal.
func TestLookupRarest(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	values := randomColumn(rng, "mixed", 300)
	values = append(values, "192.168.2.36", "192.168.36.2", "192.168.2.36", "--", "", "Request", "request")
	b := NewBuilder()
	for row, v := range values {
		b.Add(uint32(row), v)
	}
	tokensOnly, err := Open(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	wholeValues, err := Open(buildTerms(values, wholeValueTerms))
	if err != nil {
		t.Fatal(err)
	}
	n := len(values)
	bs := bitutil.NewBitset(n)
	for _, ix := range []*Index{tokensOnly, wholeValues} {
		for _, probe := range rarestProbes(values) {
			terms := Tokenize(probe)
			bs.Reset(n)
			if err := ix.LookupRarest(bs, terms); err != nil {
				t.Fatalf("LookupRarest(%q): %v", terms, err)
			}
			var want []int // rows holding every term of the literal
			for row, v := range values {
				if toks := Tokenize(v); !slices.ContainsFunc(terms, func(term string) bool { return !slices.Contains(toks, term) }) {
					want = append(want, row)
				}
			}
			got := bs.Slice()
			if len(terms) == 0 {
				if len(got) != n {
					t.Fatalf("no terms (%q, whole values %v): %d rows, want all %d", probe, ix == wholeValues, len(got), n)
				}
				continue
			}
			if len(got) != 0 && !slices.ContainsFunc(terms, func(term string) bool {
				ids, _ := tokensOnly.Lookup(term)
				return slices.Equal(toInts(ids), got)
			}) {
				t.Fatalf("%q (whole values %v): rows %v are no term's", probe, ix == wholeValues, got)
			}
			for _, row := range want {
				if !bs.Test(row) {
					t.Fatalf("%q (whole values %v): row %d holds every term but is not a candidate", probe, ix == wholeValues, row)
				}
			}
			for row, v := range values {
				if v == probe && !bs.Test(row) {
					t.Fatalf("%q (whole values %v): equal row %d is not a candidate", probe, ix == wholeValues, row)
				}
			}
		}
	}
	for _, ix := range []*Index{tokensOnly, wholeValues} {
		for _, terms := range [][]string{Tokenize("192.168.2.36"), {"missing"}, nil} {
			if allocs := testing.AllocsPerRun(20, func() {
				if err := ix.LookupRarest(bs, terms); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("LookupRarest(%q) (whole values %v) allocates %.0f times", terms, ix == wholeValues, allocs)
			}
		}
	}
}

func toInts(ids []uint32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// TestMatchWithoutWholeValueTerms: MATCH looks up tokens and token
// prefixes, so an index without whole-value terms answers every MATCH
// as one with them does.
func TestMatchWithoutWholeValueTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, shape := range []string{"repeated", "distinct", "mixed"} {
		values := randomColumn(rng, shape, 500)
		b := NewBuilder()
		for row, v := range values {
			b.Add(uint32(row), v)
		}
		tokensOnly, err := Open(b.Build())
		if err != nil {
			t.Fatal(err)
		}
		wholeValues, err := Open(buildTerms(values, wholeValueTerms))
		if err != nil {
			t.Fatal(err)
		}
		var probes []string
		for _, v := range values[:100] {
			probes = append(probes, v, strings.ToUpper(v), "once "+v)
		}
		n := len(values)
		for _, probe := range probes {
			terms := Tokenize(probe)
			g, gerr := tokensOnly.LookupAll(terms, n)
			w, werr := wholeValues.LookupAll(terms, n)
			if gerr != nil || werr != nil || !slices.Equal(g.Slice(), w.Slice()) {
				t.Fatalf("%s: MATCH %q: %v, %v; with whole values %v, %v", shape, terms, g.Slice(), gerr, w.Slice(), werr)
			}
			for _, term := range terms {
				for _, k := range []int{1, (len(term) + 1) / 2, len(term)} {
					prefix := term[:k]
					g, gerr := tokensOnly.LookupPrefix(prefix, n)
					w, werr := wholeValues.LookupPrefix(prefix, n)
					if gerr != nil || werr != nil || !slices.Equal(g.Slice(), w.Slice()) {
						t.Fatalf("%s: MATCH %s*: %v, %v; with whole values %v, %v", shape, prefix, g.Slice(), gerr, w.Slice(), werr)
					}
				}
			}
		}
	}
}
