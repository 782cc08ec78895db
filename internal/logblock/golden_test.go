package logblock

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"logstore/internal/bitutil"
	"logstore/internal/compress"
	"logstore/internal/index/inverted"
	"logstore/internal/schema"
)

// goldenRows is a fixed-seed row set that exercises what the builder
// branches on: timestamps out of order with ties (the stable sort),
// mixed-case and non-ASCII text, invalid UTF-8, empty and
// separator-only values (the analyzer), low- and high-cardinality
// string columns (dictionary vs. plain encoding).
func goldenRows(n int, seed int64) []schema.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]schema.Row, n)
	for i := range rows {
		fail := "false"
		if rng.Intn(10) == 0 {
			fail = "TRUE"
		}
		log := fmt.Sprintf("Request served code=%d attempt=%d by Worker-%d", 200+rng.Intn(3)*100, i, rng.Intn(4))
		switch {
		case i%7 == 3:
			log = fmt.Sprintf("Größe überschritten ID=Ä%d 用户登录 İstanbul", i)
		case i%11 == 5:
			log = ""
		case i%13 == 6:
			log = "--- :: ---"
		case i%17 == 8:
			log = fmt.Sprintf("bad\xffbyte Caf\xc3 row %d", i)
		}
		rows[i] = schema.Row{
			schema.IntValue(9),
			schema.IntValue(5000 + int64((i*7919)%n)/2),
			schema.StringValue(fmt.Sprintf("192.168.0.%d", 1+rng.Intn(20))),
			schema.StringValue(fmt.Sprintf("/API/v%d/Query", rng.Intn(3))),
			schema.IntValue(int64(1 + rng.Intn(500))),
			schema.StringValue(fail),
			schema.StringValue(log),
		}
	}
	return rows
}

// partHash is one manifest-addressed part: its name, size and FNV-64a.
type partHash struct {
	name string
	size int64
	fnv  uint64
}

// namedPart is one part of an object under the name a legacy manifest
// gave it.
type namedPart struct {
	name string
	ext  Extent
}

// namedParts lists r's parts in the order legacy manifests listed them:
// the meta, every index, then every column's blocks.
func namedParts(r *Reader) []namedPart {
	m := r.Manifest
	out := []namedPart{{"meta", m.Meta}}
	for col, ext := range m.Index {
		if ext != (Extent{}) {
			out = append(out, namedPart{fmt.Sprintf("index/%d", col), ext})
		}
	}
	for i, ext := range m.Data {
		out = append(out, namedPart{fmt.Sprintf("data/%d/%d", i/m.NumBlocks, i%m.NumBlocks), ext})
	}
	return out
}

func partHashes(t *testing.T, rows []schema.Row, opts BuildOptions) []partHash {
	t.Helper()
	built, err := Build(schema.RequestLogSchema(), rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := packAndOpen(t, built)
	var out []partHash
	for _, p := range namedParts(r) {
		raw, err := r.fetch.Fetch(p.ext.Offset, p.ext.Size)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(raw)
		out = append(out, partHash{p.name, int64(len(raw)), h.Sum64()})
	}
	return out
}

// TestPartsGolden pins every manifest-addressed part of two fixed-seed
// blocks. The LZ4 data parts (the int columns) are the bytes the
// four-member packer's parent commit (a575349, one tar member per part)
// produced for the same rows; the DEFLATE ones (the string columns)
// are those of DEFLATE's default level. The index parts are those of
// token-only inverted indexes (IndexFormatTokens) and compact BKD
// trees, with none on the one-tenant column, and the 40-row block,
// below MinIndexedRows, has none at all; the metas cut string bounds to
// sma.BoundLen bytes, and the 40-row block's, one column block, holds
// no block headers;
// TestParentLayoutFixture and TestTarLayoutFixture hold them to earlier
// ones by their answers. The builder's object keys are content hashes,
// so a silent change here would also re-key every re-drained segment.
func TestPartsGolden(t *testing.T) {
	cases := []struct {
		name string
		rows []schema.Row
		opts BuildOptions
		want []partHash
	}{
		{"rows=40", goldenRows(40, 15), BuildOptions{}, golden40},
		{"rows=400", goldenRows(400, 16), BuildOptions{BlockRows: 128}, golden400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := partHashes(t, tc.rows, tc.opts)
			ok := len(got) == len(tc.want)
			for i := 0; ok && i < len(got); i++ {
				ok = got[i] == tc.want[i]
			}
			if ok {
				return
			}
			var sb strings.Builder
			for _, p := range got {
				fmt.Fprintf(&sb, "\t{%q, %d, %#016x},\n", p.name, p.size, p.fnv)
			}
			t.Errorf("parts differ from the golden table; got:\n%s", sb.String())
			for i := 0; i < len(got) && i < len(tc.want); i++ {
				if got[i] != tc.want[i] {
					t.Errorf("first difference at part %d: got %+v, want %+v", i, got[i], tc.want[i])
					break
				}
			}
		})
	}
}

func openFixture(t *testing.T, file string) *Reader {
	t.Helper()
	old, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(BytesFetcher(old))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertSameButIndexes checks that an object written before inverted
// indexes held tokens only differs from one of the same rows written
// now in its indexes alone (assertSameParts), and that the indexes
// answer alike.
func assertSameButIndexes(t *testing.T, oldReader, newReader *Reader, rows []schema.Row) {
	t.Helper()
	assertSameParts(t, oldReader, newReader)
	assertIndexesAgree(t, newReader, oldReader, rows)
}

// assertSameParts checks that an object written by an older release
// holds what one of the same rows written now does, but for its
// indexes: the same manifest names but for the tenant column's index;
// the same data parts byte for byte but for DEFLATE ones, whose bytes
// follow the compression level, and the same rows from them all; the
// same meta but for the index formats and the tenant column's index
// kind.
func assertSameParts(t *testing.T, oldReader, newReader *Reader) {
	t.Helper()
	tenant := newReader.Meta.Schema.TenantIdx()
	tenantIndex := fmt.Sprintf("index/%d", tenant)
	parts, oldParts := namedParts(newReader), namedParts(oldReader)
	oldParts = slices.DeleteFunc(oldParts, func(p namedPart) bool { return p.name == tenantIndex })
	if !slices.EqualFunc(oldParts, parts, func(a, b namedPart) bool { return a.name == b.name }) {
		t.Fatalf("manifest names differ but for %s:\n parent %v\n now    %v", tenantIndex, oldParts, parts)
	}
	for i, p := range parts {
		if !strings.HasPrefix(p.name, "data/") {
			continue
		}
		was, err := oldReader.fetch.Fetch(oldParts[i].ext.Offset, oldParts[i].ext.Size)
		if err != nil {
			t.Fatal(err)
		}
		is, err := newReader.fetch.Fetch(p.ext.Offset, p.ext.Size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(was, is) && partCodec(t, is) != compress.Zstd {
			t.Errorf("part %s: %d bytes in the parent's object, %d now, or different content", p.name, len(was), len(is))
		}
	}
	for i := 0; i < newReader.Meta.RowCount; i++ {
		was, err := oldReader.ReadRow(i)
		if err != nil {
			t.Fatal(err)
		}
		is, err := newReader.ReadRow(i)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(was, is) {
			t.Errorf("row %d: %v in the parent's object, %v now", i, was, is)
		}
	}
	m := *oldReader.Meta
	m.Columns = slices.Clone(m.Columns)
	m.Columns[tenant].Index, m.Columns[tenant].IndexFormat = schema.IndexNone, IndexFormatLegacy
	for ci := range m.Columns {
		switch m.Columns[ci].Index {
		case schema.IndexInverted:
			m.Columns[ci].IndexFormat = IndexFormatTokens
		case schema.IndexBKD:
			m.Columns[ci].IndexFormat = IndexFormatCompact
		}
	}
	if !bytes.Equal(m.Encode(), newReader.Meta.Encode()) {
		t.Error("meta differs from the parent's by more than the index formats and the tenant column's index")
	}
}

// partCodec returns the codec of a data part: the byte after its
// validity bitset and encoding.
func partCodec(t *testing.T, part []byte) compress.Codec {
	t.Helper()
	_, n, err := bitutil.LenBytes(part)
	if err != nil || n+1 >= len(part) {
		t.Fatalf("data part of %d bytes has no header: %v", len(part), err)
	}
	return compress.Codec(part[n+1])
}

// equalRows returns the rows of column ci equal to lit, as the query
// planner finds them: the rows of lit's rarest token in ix, verified
// against the stored values.
func equalRows(t *testing.T, ix *inverted.Index, rows []schema.Row, ci int, lit string) []int {
	t.Helper()
	bs := bitutil.NewBitset(len(rows))
	if err := ix.LookupRarest(bs, inverted.Tokenize(lit)); err != nil {
		t.Fatal(err)
	}
	var out []int
	bs.ForEach(func(i int) bool {
		if rows[i][ci].S == lit {
			out = append(out, i)
		}
		return true
	})
	return out
}

// assertIndexesAgree checks that two readers over the same rows answer
// every index lookup alike: for an inverted index, an equality with
// every value, upper-cased value, token and half value (rarest token,
// then verify) and a MATCH of each (LookupAll of its tokens,
// LookupPrefix of every token's prefixes); for a BKD tree that both
// have, every range between two of the column's values, their
// neighbours and the ends of the domain.
func assertIndexesAgree(t *testing.T, got, want *Reader, rows []schema.Row) {
	t.Helper()
	n := got.Meta.RowCount
	stored := make([]schema.Row, n) // rows in row-id (time) order
	for i := range stored {
		var err error
		if stored[i], err = got.ReadRow(i); err != nil {
			t.Fatal(err)
		}
	}
	for ci, cm := range got.Meta.Columns {
		switch cm.Index {
		case schema.IndexInverted:
			gi, err := got.InvertedIndex(ci)
			if err != nil {
				t.Fatal(err)
			}
			wi, err := want.InvertedIndex(ci)
			if err != nil {
				t.Fatal(err)
			}
			probes := []string{"", "zzz", "--"}
			for _, r := range rows {
				v := r[ci].S
				probes = append(probes, v, strings.ToUpper(v), v[:len(v)/2])
				probes = append(probes, inverted.Tokenize(v)...)
			}
			for _, p := range probes {
				var oracle []int
				for i, r := range stored {
					if r[ci].S == p {
						oracle = append(oracle, i)
					}
				}
				if g, w := equalRows(t, gi, stored, ci, p), equalRows(t, wi, stored, ci, p); !slices.Equal(g, w) || !slices.Equal(g, oracle) {
					t.Fatalf("column %d = %q: rows %v; legacy %v; scan %v", ci, p, g, w, oracle)
				}
				terms := inverted.Tokenize(p)
				g, gerr := gi.LookupAll(terms, n)
				w, werr := wi.LookupAll(terms, n)
				if gerr != nil || werr != nil || !slices.Equal(g.Slice(), w.Slice()) {
					t.Fatalf("column %d MATCH %q = %v, %v; legacy %v, %v", ci, terms, g, gerr, w, werr)
				}
				for _, term := range terms {
					for k := 1; k <= len(term); k++ {
						g, gerr := gi.LookupPrefix(term[:k], n)
						w, werr := wi.LookupPrefix(term[:k], n)
						if gerr != nil || werr != nil || !slices.Equal(g.Slice(), w.Slice()) {
							t.Fatalf("column %d MATCH %s* = %v, %v; legacy %v, %v", ci, term[:k], g, gerr, w, werr)
						}
					}
				}
			}
		case schema.IndexBKD:
			gt, err := got.BKDIndex(ci)
			if err != nil {
				t.Fatal(err)
			}
			wt, err := want.BKDIndex(ci)
			if err != nil {
				t.Fatal(err)
			}
			bounds := []int64{math.MinInt64, math.MaxInt64}
			for _, r := range rows {
				v := r[ci].I
				bounds = append(bounds, v-1, v, v+1)
			}
			for _, lo := range bounds {
				for _, hi := range bounds {
					g, gl, gerr := gt.Range(lo, hi, n)
					w, wl, werr := wt.Range(lo, hi, n)
					if gerr != nil || werr != nil || gl != wl || !slices.Equal(g.Slice(), w.Slice()) {
						t.Fatalf("column %d Range(%d, %d) = %v in %d leaves, %v; legacy %v in %d, %v",
							ci, lo, hi, g, gl, gerr, w, wl, werr)
					}
				}
			}
		}
	}
}

var golden40 = []partHash{
	{"meta", 204, 0xd1221edde23bd50b},
	{"data/0/0", 26, 0x0b66aed9cd029156},
	{"data/1/0", 102, 0x0a54f27009783159},
	{"data/2/0", 113, 0x0cca433bc614ed19},
	{"data/3/0", 79, 0x1a52a790831b1d35},
	{"data/4/0", 100, 0x039ed8b4e9c82aca},
	{"data/5/0", 48, 0x523c2570a311083d},
	{"data/6/0", 328, 0xa8a674046d888661},
}

var golden400 = []partHash{
	{"meta", 698, 0xbee6a6cebc16564c},
	{"index/1", 414, 0x90a24a511f5d2aa1},
	{"index/2", 652, 0x42c43802cd118548},
	{"index/3", 282, 0x5786c981892652a8},
	{"index/4", 1084, 0xbf7b4b810b19bbb4},
	{"index/5", 106, 0x3e9e835dbf194ac9},
	{"index/6", 3228, 0x011d424aa03f51c0},
	{"data/0/0", 35, 0xde4b948df630dfca},
	{"data/0/1", 35, 0xde4b948df630dfca},
	{"data/0/2", 35, 0xde4b948df630dfca},
	{"data/0/3", 25, 0x8e64655bfb460e83},
	{"data/1/0", 287, 0x38065e7e6278fadc},
	{"data/1/1", 287, 0x2573a7e3ce54051c},
	{"data/1/2", 287, 0xd41b81dcad6ed15c},
	{"data/1/3", 54, 0x592e69fbb5a7d15a},
	{"data/2/0", 184, 0x189e92622e6b16e1},
	{"data/2/1", 188, 0x6bc1b3f77ea1af8c},
	{"data/2/2", 185, 0xb79438288710f624},
	{"data/2/3", 84, 0x5cb0d447ca7246a9},
	{"data/3/0", 116, 0x021b0b03359856f2},
	{"data/3/1", 118, 0xcad5a78aa5b1062d},
	{"data/3/2", 118, 0xbf1b2888cf618e7a},
	{"data/3/3", 61, 0xbd5f112d2d56f41d},
	{"data/4/0", 273, 0x47c404cec2e55f88},
	{"data/4/1", 277, 0x6ee797349655d3e8},
	{"data/4/2", 273, 0x3f33b2e9d372d8a0},
	{"data/4/3", 51, 0xb2ddba8707e8e00d},
	{"data/5/0", 58, 0xc06db862204573cb},
	{"data/5/1", 72, 0xd4cc7446709db223},
	{"data/5/2", 70, 0xbd384b1c30fe9c63},
	{"data/5/3", 44, 0x3d235177a7369470},
	{"data/6/0", 721, 0x78d1dd9a828a9cb4},
	{"data/6/1", 731, 0x25d6db23765f7c87},
	{"data/6/2", 732, 0xc945b6abb5f9242e},
	{"data/6/3", 226, 0xb2172a163132174c},
}

// TestBuildConcurrentDeterministic builds different blocks from several
// goroutines at once — each Build borrows pooled scratch — and checks
// every packed object against the one a lone Build produced: Build is
// deterministic (object keys are content hashes) and no scratch leaks
// from one block into another.
func TestBuildConcurrentDeterministic(t *testing.T) {
	sch := schema.RequestLogSchema()
	pack := func(i int) ([]byte, error) {
		built, err := Build(sch, goldenRows(20+37*i, int64(i)), BuildOptions{BlockRows: 64})
		if err != nil {
			return nil, err
		}
		return built.Pack()
	}
	const blocks = 8
	want := make([][]byte, blocks)
	for i := range want {
		var err error
		if want[i], err = pack(i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i := g; i < blocks; i += 2 { // every block built by two goroutines
					got, err := pack(i % blocks)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, want[i%blocks]) {
						t.Errorf("block %d built concurrently differs from the one built alone", i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCompactIndexFixture reads testdata/compact_index.lgb,
// goldenRows(12, 17) at BlockRows 8 packed by the last commit whose
// inverted indexes held whole values beside tokens (the footer layout,
// IndexFormatCompact), and holds it to the same rows packed now.
func TestCompactIndexFixture(t *testing.T) {
	rows := goldenRows(12, 17)
	oldReader := openFixture(t, "compact_index.lgb")
	for ci, cm := range oldReader.Meta.Columns {
		if cm.Index != schema.IndexNone && cm.IndexFormat != IndexFormatCompact {
			t.Fatalf("column %d of the fixture has index format %d", ci, cm.IndexFormat)
		}
	}
	assertSameButIndexes(t, oldReader, buildAndOpen(t, rows, BuildOptions{BlockRows: 8}), rows)
}
