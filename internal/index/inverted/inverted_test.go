package inverted

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"logstore/internal/bitutil"
)

func TestTokenize(t *testing.T) {
	cases := map[string][]string{
		"hello world":             {"hello", "world"},
		"GET /api/v1/query?x=1":   {"get", "api", "v1", "query", "x", "1"},
		"192.168.0.1":             {"192", "168", "0", "1"},
		"":                        {},
		"   ":                     {},
		"MiXeD-CaSe_under tokens": {"mixed", "case", "under", "tokens"},
	}
	for in, want := range cases {
		got := Tokenize(in)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %v, want %v", in, got, want)
		}
	}
}

func buildSample(t *testing.T) (*Index, []string) {
	t.Helper()
	values := []string{
		"request served tenant=1",
		"cache miss on shard",
		"192.168.0.1",
		"request failed tenant=2",
		"slow query detected",
		"192.168.0.1",
	}
	b := NewBuilder()
	for i, v := range values {
		b.Add(uint32(i), v)
	}
	ix, err := Open(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return ix, values
}

func TestLookupToken(t *testing.T) {
	ix, _ := buildSample(t)
	ids, err := ix.Lookup("request")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint32{0, 3}) {
		t.Errorf("request -> %v, want [0 3]", ids)
	}
	ids, err = ix.Lookup("REQUEST") // case-insensitive lookup
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint32{0, 3}) {
		t.Errorf("REQUEST -> %v, want [0 3]", ids)
	}
}

// TestLookupRawValue: a whole value is not a term; its rows are found
// through its tokens, the rarest of which gives the candidates.
func TestLookupRawValue(t *testing.T) {
	ix, vals := buildSample(t)
	ids, err := ix.Lookup("192.168.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("raw ip is a term with rows %v", ids)
	}
	bs := bitutil.NewBitset(len(vals))
	if err := ix.LookupRarest(bs, Tokenize("192.168.0.1")); err != nil {
		t.Fatal(err)
	}
	if got := bs.Slice(); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Errorf("raw ip's rarest token -> %v, want [2 5]", got)
	}
}

func TestLookupMissing(t *testing.T) {
	ix, _ := buildSample(t)
	ids, err := ix.Lookup("nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("missing term -> %v", ids)
	}
}

func TestLookupBitset(t *testing.T) {
	ix, vals := buildSample(t)
	bs, err := ix.LookupBitset("tenant", len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Test(0) || !bs.Test(3) || bs.Count() != 2 {
		t.Errorf("tenant bitset = %v", bs.Slice())
	}
}

func TestLookupAll(t *testing.T) {
	ix, vals := buildSample(t)
	bs, err := ix.LookupAll([]string{"request", "tenant", "1"}, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if bs.Count() != 1 || !bs.Test(0) {
		t.Errorf("AND query = %v, want [0]", bs.Slice())
	}
	// Empty term list matches everything.
	all, err := ix.LookupAll(nil, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if all.Count() != len(vals) {
		t.Errorf("empty AND = %d rows, want %d", all.Count(), len(vals))
	}
	// Early exit when intersection empties.
	none, err := ix.LookupAll([]string{"request", "nonexistent", "cache"}, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if none.Any() {
		t.Errorf("impossible AND matched %v", none.Slice())
	}
}

func TestEmptyIndex(t *testing.T) {
	ix, err := Open(NewBuilder().Build())
	if err != nil {
		t.Fatal(err)
	}
	if ix.TermCount() != 0 {
		t.Errorf("TermCount = %d", ix.TermCount())
	}
	ids, err := ix.Lookup("anything")
	if err != nil || len(ids) != 0 {
		t.Errorf("empty index lookup = %v, %v", ids, err)
	}
}

func TestEmptyValuesSkipped(t *testing.T) {
	b := NewBuilder()
	b.Add(0, "")
	b.Add(1, "actual")
	ix, err := Open(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if ix.TermCount() != 1 {
		t.Errorf("TermCount = %d, want 1 (empty values not indexed)", ix.TermCount())
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Error("nil input should error")
	}
	if _, err := Open([]byte{1, 2}); err == nil {
		t.Error("short input should error")
	}
	// Claim 1000 terms with no offset table.
	bad := []byte{0xE8, 0x03, 0, 0}
	if _, err := Open(bad); err == nil {
		t.Error("truncated offset table should error")
	}
}

// Property: the index agrees with brute-force substring-token search.
func TestIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		values := make([]string, n)
		b := NewBuilder()
		for i := range values {
			nw := 1 + rng.Intn(4)
			words := make([]string, nw)
			for j := range words {
				words[j] = vocab[rng.Intn(len(vocab))]
			}
			values[i] = strings.Join(words, " ")
			b.Add(uint32(i), values[i])
		}
		ix, err := Open(b.Build())
		if err != nil {
			t.Fatal(err)
		}
		for _, probe := range vocab {
			got, err := ix.Lookup(probe)
			if err != nil {
				t.Fatal(err)
			}
			var want []uint32
			for i, v := range values {
				for _, tok := range Tokenize(v) {
					if tok == probe {
						want = append(want, uint32(i))
						break
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("term %q: got %v, want %v", probe, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("term %q: got %v, want %v", probe, got, want)
				}
			}
		}
	}
}

func TestPostingsSortedProperty(t *testing.T) {
	f := func(raw []string) bool {
		b := NewBuilder()
		for i, v := range raw {
			b.Add(uint32(i), v)
		}
		ix, err := Open(b.Build())
		if err != nil {
			return false
		}
		// Every term's postings must be strictly ascending.
		terms, err := dictTerms(ix)
		if err != nil || len(terms) != ix.TermCount() {
			return false
		}
		for _, term := range terms {
			ids, err := ix.Lookup(term)
			if err != nil {
				return false
			}
			for j := 1; j < len(ids); j++ {
				if ids[j] <= ids[j-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLargeIndex(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 10000; i++ {
		b.Add(uint32(i), fmt.Sprintf("user%d action%d host%d", i%100, i%7, i%31))
	}
	ix, err := Open(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := ix.Lookup("user42")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 100 {
		t.Errorf("user42 -> %d postings, want 100", len(ids))
	}
	for _, id := range ids {
		if id%100 != 42 {
			t.Errorf("posting %d should not contain user42", id)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	values := make([]string, 5000)
	for i := range values {
		values[i] = fmt.Sprintf("request served tenant=%d path=/api/v%d latency=%d", i%100, i%3, i%500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder()
		for j, v := range values {
			bu.Add(uint32(j), v)
		}
		bu.Build()
	}
}

func BenchmarkLookup(b *testing.B) {
	bu := NewBuilder()
	for i := 0; i < 50000; i++ {
		bu.Add(uint32(i), fmt.Sprintf("user%d action%d", i%1000, i%7))
	}
	ix, err := Open(bu.Build())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Lookup("user500"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLookupPrefix(t *testing.T) {
	b := NewBuilder()
	values := []string{
		"error timeout upstream",
		"errand complete",
		"warning error rate high",
		"all good",
		"ERRATIC behaviour",
	}
	for i, v := range values {
		b.Add(uint32(i), v)
	}
	ix, err := Open(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	bs, err := ix.LookupPrefix("err", len(values))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{0: true, 1: true, 2: true, 4: true}
	if bs.Count() != len(want) {
		t.Fatalf("prefix err -> %v", bs.Slice())
	}
	for i := range want {
		if !bs.Test(i) {
			t.Errorf("row %d should match", i)
		}
	}
	// Exact word is also a prefix of itself.
	bs, err = ix.LookupPrefix("error", len(values))
	if err != nil {
		t.Fatal(err)
	}
	if bs.Count() != 2 || !bs.Test(0) || !bs.Test(2) {
		t.Errorf("prefix error -> %v", bs.Slice())
	}
	// No match and empty prefix.
	bs, _ = ix.LookupPrefix("zzz", len(values))
	if bs.Any() {
		t.Error("zzz matched")
	}
	bs, _ = ix.LookupPrefix("", len(values))
	if bs.Any() {
		t.Error("empty prefix matched")
	}
	// Case-insensitive.
	bs, _ = ix.LookupPrefix("ERR", len(values))
	if bs.Count() != len(want) {
		t.Errorf("uppercase prefix -> %v", bs.Slice())
	}
}

// dictTerms decodes every term of the dictionary, in order.
func dictTerms(ix *Index) ([]string, error) {
	var terms []string
	prev := ""
	for off := 0; len(terms) < ix.n; {
		shared, n, err := bitutil.Uvarint(ix.entries[off:])
		if err != nil {
			return nil, err
		}
		suffix, m, err := bitutil.LenBytes(ix.entries[off+n:])
		if err != nil {
			return nil, err
		}
		off += n + m
		h, n, err := bitutil.Uvarint(ix.entries[off:])
		if err != nil {
			return nil, err
		}
		off += n + int(h>>1)
		prev = prev[:shared] + string(suffix)
		terms = append(terms, prev)
	}
	return terms, nil
}
