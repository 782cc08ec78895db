package inverted

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"logstore/internal/bitutil"
)

// randomColumn draws one string column of n rows in the given shape:
// "repeated" cycles a few values, so every term is dense; "distinct"
// gives each row a value of its own, so most terms are sparse; "mixed"
// draws words of every kind the analyzer branches on — mixed case,
// non-ASCII, invalid UTF-8, empty and separator-only values — with one
// term in every row and one in a single row.
func randomColumn(rng *rand.Rand, shape string, n int) []string {
	words := []string{"request", "Served", "REQUEST", "cache", "miss", "shard", "tenant=7", "code=500",
		"/api/v1/query", "Größe", "İstanbul", "用户登录", "bad\xffbyte", "Caf\xc3", "", "--- ::", "a", "ab", "abc"}
	values := make([]string, n)
	for i := range values {
		switch shape {
		case "repeated":
			values[i] = []string{"false", "TRUE", "false", "192.168.0.1"}[i%4]
		case "distinct":
			values[i] = fmt.Sprintf("request %d served by worker-%d in %dms", i, rng.Intn(1000), rng.Intn(1<<20))
		default:
			parts := []string{"everywhere"}
			for k := rng.Intn(5); k > 0; k-- {
				parts = append(parts, words[rng.Intn(len(words))])
			}
			if i == n/2 {
				parts = append(parts, "once")
			}
			values[i] = strings.Join(parts, " ")
			if rng.Intn(10) == 0 {
				values[i] = words[rng.Intn(len(words))] // empty or a single word alone
			}
		}
	}
	return values
}

// TestCompactMatchesLegacy builds random columns with the builder and
// holds the index to the reference, a map of each term's rows (it once
// compared against the encoding before the front-coded one): identical
// answers from Lookup, LookupBitset, LookupPrefix and LookupAll over
// every value, token and missing term — or, for the largest columns, a
// random sample of them — and their prefixes.
func TestCompactMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	sizes := []int{1, 2, 15, 16, 17, 33, 100, 1000, 5000}
	for i := 0; i < 3; i++ {
		sizes = append(sizes, 1+rng.Intn(5000))
	}
	b := NewBuilder()
	for _, n := range sizes {
		for _, shape := range []string{"repeated", "distinct", "mixed"} {
			values := randomColumn(rng, shape, n)
			b.Reset()
			for row, v := range values {
				b.Add(uint32(row), v)
			}
			got, err := Open(b.Build())
			if err != nil {
				t.Fatalf("%s/%d: %v", shape, n, err)
			}
			want := referenceIndex(values)
			if got.TermCount() != len(want) {
				t.Fatalf("%s/%d: %d terms, reference %d", shape, n, got.TermCount(), len(want))
			}
			probes := []string{"", "zzzz", "\x00", "\xff\xff", "everywhere", "once", "EVERYWHERE"}
			for _, v := range values {
				probes = append(probes, v, strings.ToUpper(v))
				probes = append(probes, Tokenize(v)...)
			}
			if len(probes) > 150 {
				rng.Shuffle(len(probes)-7, func(i, j int) { probes[7+i], probes[7+j] = probes[7+j], probes[7+i] })
				probes = probes[:150]
			}
			for _, p := range probes {
				assertSameLookups(t, got, want, p, n)
			}
		}
	}
}

// TestLookupAllocatesOnlyItsResult: finding a term, present or not, and
// setting its rows in a bitset allocates nothing.
func TestLookupAllocatesOnlyItsResult(t *testing.T) {
	values := randomColumn(rand.New(rand.NewSource(1)), "distinct", 2000)
	b := NewBuilder()
	for row, v := range values {
		b.Add(uint32(row), v)
	}
	ix, err := Open(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	bs := bitutil.NewBitset(len(values))
	for _, term := range []string{"request", "served", "missing", "1234", "worker"} {
		if allocs := testing.AllocsPerRun(20, func() {
			if err := ix.lookupInto(bs, term); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("lookup of %q allocates %.0f times", term, allocs)
		}
	}
}
