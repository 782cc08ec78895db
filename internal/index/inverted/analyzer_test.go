package inverted

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"logstore/internal/bitutil"
)

// referenceTerms is the analyzer's definition: the distinct tokens the
// query side's Tokenize gives for value.
func referenceTerms(value string) []string {
	set := map[string]bool{}
	for _, tok := range Tokenize(value) {
		set[tok] = true
	}
	return sortedKeys(set)
}

// wholeValueTerms is what the builder indexed before it indexed tokens
// only, and what the objects written then hold: the lower-cased value
// as a keyword term as well as its tokens.
func wholeValueTerms(value string) []string {
	set := map[string]bool{strings.ToLower(value): true}
	for _, tok := range Tokenize(value) {
		set[tok] = true
	}
	delete(set, "")
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// builderTerms is what the builder's single-pass analyzer emits for one
// value, and checks each term got exactly the one posting.
func builderTerms(t testing.TB, value string) []string {
	t.Helper()
	b := NewBuilder()
	b.Add(7, value)
	for id, term := range b.terms {
		if b.counts[id] != 1 || b.last[id] != 7 {
			t.Fatalf("value %q: term %q has %d postings, last row %d", value, term, b.counts[id], b.last[id])
		}
	}
	if len(b.pairs) != len(b.terms) {
		t.Fatalf("value %q: %d postings for %d terms", value, len(b.pairs), len(b.terms))
	}
	out := slices.Clone(b.terms)
	sort.Strings(out)
	return out
}

// checkAnalyzer holds the builder's single-pass analyzer to Tokenize,
// and Tokenize's ASCII fast path to the unicode analyzer it skips.
func checkAnalyzer(t testing.TB, value string) {
	t.Helper()
	if got, want := builderTerms(t, value), referenceTerms(value); !slices.Equal(got, want) {
		t.Fatalf("value %q: builder terms %q, Tokenize gives %q", value, got, want)
	}
	if got, want := Tokenize(value), tokenizeUnicode(value); !slices.Equal(got, want) {
		t.Fatalf("value %q: Tokenize gives %q, the unicode analyzer %q", value, got, want)
	}
}

// analyzerSeeds are the cases the fast path could plausibly get wrong:
// case folding, letter and digit classes beyond ASCII, runes whose
// lower-case form has another length or class, invalid UTF-8, and values
// with nothing to tokenize.
var analyzerSeeds = []string{
	"", " ", "--- :: ---", "a", "A", "Z9", "GET /API/v1/Query 200",
	"request served tenant=7 path=/healthz code=500",
	"192.168.0.1", "MiXeD_case-And_underscores", "tab\tnew\nline\x00nul\x7fdel",
	"Größe überschritten", "ÄÖÜ", "用户登录 失败", "İstanbul ıǅ", "K kelvin Ω ohm",
	"٣٤٥ arabic-indic digits", "x²y½", "ﬁligature", "Ǆ titlecase ǅ ǆ",
	"bad\xffbyte", "Caf\xc3", "\xc3\x28", "\xed\xa0\x80 surrogate", "\xf4\x90\x80\x80",
	"ascii then é", "é then ascii", "UPPER\xffLOWER",
}

func TestAnalyzerEquivalence(t *testing.T) {
	for _, s := range analyzerSeeds {
		checkAnalyzer(t, s)
	}
	alphabet := []string{
		"a", "b", "Z", "Q", "0", "7", " ", "-", "_", "/", "=", ".", "\t",
		"é", "Ä", "ß", "İ", "ı", "K", "Σ", "ς", "用", "户", "٣", "²", "ǅ",
		"\xff", "\xc3", "\xe2\x82", "\x80",
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			piece := alphabet[rng.Intn(len(alphabet))]
			if rng.Intn(3) == 0 {
				piece = alphabet[rng.Intn(13)] // keep a share of values pure ASCII
			}
			sb.WriteString(piece)
		}
		checkAnalyzer(t, sb.String())
	}
}

func FuzzAnalyzerEquivalence(f *testing.F) {
	for _, s := range analyzerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, value string) {
		checkAnalyzer(t, value)
	})
}

// refIndex is the reference an index is held to: each term's rows in
// ascending order.
type refIndex map[string][]uint32

// referenceIndex indexes values, one row each, under their analyzer
// terms. An index the builder writes must answer every lookup as it
// does.
func referenceIndex(values []string) refIndex {
	ref := refIndex{}
	for row, v := range values {
		for _, term := range referenceTerms(v) {
			ref[term] = append(ref[term], uint32(row))
		}
	}
	return ref
}

// lookup is Lookup: the rows of the lower-cased term.
func (r refIndex) lookup(term string) []uint32 {
	if ids := r[strings.ToLower(term)]; ids != nil {
		return ids
	}
	return []uint32{}
}

// bitset sets ids in a bitset of rows bits.
func bitset(ids []uint32, rows int) *bitutil.Bitset {
	bs := bitutil.NewBitset(rows)
	for _, id := range ids {
		bs.Set(int(id))
	}
	return bs
}

// lookupPrefix is LookupPrefix: the rows of every term with the
// lower-cased prefix, none for an empty one.
func (r refIndex) lookupPrefix(prefix string, rows int) *bitutil.Bitset {
	prefix = strings.ToLower(prefix)
	bs := bitutil.NewBitset(rows)
	for term, ids := range r {
		if prefix != "" && strings.HasPrefix(term, prefix) {
			bs.Or(bitset(ids, rows))
		}
	}
	return bs
}

// lookupAll is LookupAll: the rows holding every term, every row for
// no terms.
func (r refIndex) lookupAll(terms []string, rows int) *bitutil.Bitset {
	bs := bitutil.NewBitset(rows)
	bs.SetAll()
	for _, term := range terms {
		bs.And(bitset(r.lookup(term), rows))
	}
	return bs
}

// buildTerms indexes each value, one row each, under the terms analyze
// gives it, with the builder's dictionary and posting encodings.
// buildTerms(values, wholeValueTerms) is an index of the kind written
// before the builder indexed tokens only.
func buildTerms(values []string, analyze func(string) []string) []byte {
	b := NewBuilder()
	for row, v := range values {
		for _, term := range analyze(v) {
			b.addTerm([]byte(term), uint32(row))
		}
	}
	return b.Build()
}

func TestBuilderMatchesReferenceEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	words := []string{"request", "Served", "cache", "MISS", "shard", "tenant=7", "code=500",
		"/api/v1/query", "Größe", "用户", "bad\xff", "", "-"}
	b := NewBuilder()
	prefix := []byte("already in the member buffer")
	for round := 0; round < 50; round++ {
		values := make([]string, rng.Intn(200))
		for i := range values {
			var parts []string
			for n := rng.Intn(6); n > 0; n-- {
				parts = append(parts, words[rng.Intn(len(words))])
			}
			values[i] = strings.Join(parts, " ")
		}
		// One builder across rounds: Reset must leave nothing behind.
		b.Reset()
		for row, v := range values {
			b.Add(uint32(row), v)
		}
		got := b.AppendTo(slices.Clone(prefix))
		if !bytes.HasPrefix(got, prefix) {
			t.Fatal("AppendTo overwrote the bytes before it")
		}
		ix, err := Open(got[len(prefix):])
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ref := referenceIndex(values)
		if ix.TermCount() != len(ref) {
			t.Fatalf("round %d: %d terms, reference %d", round, ix.TermCount(), len(ref))
		}
		for _, probe := range append(words, values...) {
			assertSameLookups(t, ix, ref, probe, len(values))
		}
	}
}
