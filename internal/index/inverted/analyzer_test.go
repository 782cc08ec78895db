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

// referenceTerms is the analyzer's definition, spelled with the two
// functions the query side calls: the lower-cased value as a keyword
// term plus its tokens, empty terms dropped.
func referenceTerms(value string) []string {
	set := map[string]bool{strings.ToLower(value): true}
	for _, tok := range Tokenize(value) {
		set[tok] = true
	}
	delete(set, "")
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

func checkAnalyzer(t testing.TB, value string) {
	t.Helper()
	if got, want := builderTerms(t, value), referenceTerms(value); !slices.Equal(got, want) {
		t.Fatalf("value %q: builder terms %q, ToLower ∪ Tokenize gives %q", value, got, want)
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

// referenceBuild is the legacy index encoder, as it was before the
// builder kept postings as one pair list and before the dictionary was
// front-coded: a posting slice per term, sorted terms, entries after
// the offset table. OpenLegacy reads what it writes, and an index the
// builder writes must answer every lookup as this one does.
func referenceBuild(values []string) []byte {
	postings := make(map[string][]uint32)
	for row, v := range values {
		for _, term := range referenceTerms(v) {
			postings[term] = append(postings[term], uint32(row))
		}
	}
	terms := make([]string, 0, len(postings))
	for t := range postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	out := make([]byte, 4+4*len(terms))
	bitutil.PutUint32(out, uint32(len(terms)))
	var entries []byte
	for i, t := range terms {
		bitutil.PutUint32(out[4+4*i:], uint32(len(entries)))
		entries = bitutil.AppendLenString(entries, t)
		entries = bitutil.AppendUvarint(entries, uint64(len(postings[t])))
		prev := uint32(0)
		for _, id := range postings[t] {
			entries = bitutil.AppendUvarint(entries, uint64(id-prev))
			prev = id
		}
	}
	return append(out, entries...)
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
		ref, err := OpenLegacy(referenceBuild(values))
		if err != nil {
			t.Fatalf("round %d: reference: %v", round, err)
		}
		for _, probe := range append(words, values...) {
			assertSameLookups(t, ix, ref, probe, len(values))
		}
	}
}
