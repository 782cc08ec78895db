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
	r := buildAndOpen(t, rows, opts)
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
// blocks. The data parts are the bytes the four-member packer's parent
// commit (a575349, one tar member per part) produced for the same rows:
// the packer may change the framing around the parts, never a data
// part. The meta and index parts are those of the compact index
// encoding (IndexFormatCompact); TestParentLayoutFixture holds them to
// the legacy ones by their answers. The builder's object keys are
// content hashes, so a silent change here would also re-key every
// re-drained segment.
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

// TestParentLayoutFixture reads two objects of goldenRows(12, 17) at
// BlockRows 8 packed by earlier commits — testdata/parent_layout.tar,
// with one tar member per part, and testdata/legacy_index.tar, with
// four members and the legacy index encoding — and checks them against
// the same rows packed now: the same manifest names; behind them the
// same data parts byte for byte; the same meta but for the index
// format; and indexes that answer every lookup alike.
func TestParentLayoutFixture(t *testing.T) {
	rows := goldenRows(12, 17)
	newReader := buildAndOpen(t, rows, BuildOptions{BlockRows: 8})
	for _, file := range []string{"parent_layout.tar", "legacy_index.tar"} {
		t.Run(file, func(t *testing.T) {
			old, err := os.ReadFile("testdata/" + file)
			if err != nil {
				t.Fatal(err)
			}
			oldReader, err := OpenReader(BytesFetcher(old))
			if err != nil {
				t.Fatal(err)
			}
			parts, oldParts := namedParts(newReader), namedParts(oldReader)
			if !slices.EqualFunc(oldParts, parts, func(a, b namedPart) bool { return a.name == b.name }) {
				t.Fatalf("manifest names differ:\n parent %v\n now    %v", oldParts, parts)
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
				if !bytes.Equal(was, is) {
					t.Errorf("part %s: %d bytes in the parent's object, %d now, or different content", p.name, len(was), len(is))
				}
			}
			// The meta differs only in the index format of each indexed
			// column.
			m := *oldReader.Meta
			m.Columns = slices.Clone(m.Columns)
			for ci := range m.Columns {
				if m.Columns[ci].IndexFormat != IndexFormatLegacy {
					t.Fatalf("column %d of the parent's object has index format %d", ci, m.Columns[ci].IndexFormat)
				}
				if m.Columns[ci].Index != schema.IndexNone {
					m.Columns[ci].IndexFormat = IndexFormatCompact
				}
			}
			if !bytes.Equal(m.Encode(), newReader.Meta.Encode()) {
				t.Error("meta differs from the parent's by more than the index format")
			}
			assertIndexesAgree(t, newReader, oldReader, rows)
		})
	}
}

// assertIndexesAgree checks that two readers over the same rows answer
// every index lookup alike: for an inverted index, Lookup,
// LookupBitset, LookupPrefix and LookupAll of every value, token and
// their prefixes; for a BKD tree, every range between two of the
// column's values, their neighbours and the ends of the domain.
func assertIndexesAgree(t *testing.T, got, want *Reader, rows []schema.Row) {
	t.Helper()
	n := got.Meta.RowCount
	for ci, col := range got.Meta.Schema.Columns {
		switch col.Index {
		case schema.IndexInverted:
			gi, err := got.InvertedIndex(ci)
			if err != nil {
				t.Fatal(err)
			}
			wi, err := want.InvertedIndex(ci)
			if err != nil {
				t.Fatal(err)
			}
			probes := []string{"", "zzz"}
			for _, r := range rows {
				v := r[ci].S
				probes = append(probes, v, v[:len(v)/2])
				for _, tok := range inverted.Tokenize(v) {
					probes = append(probes, tok, tok[:1])
				}
			}
			for _, p := range probes {
				g, gerr := gi.Lookup(p)
				w, werr := wi.Lookup(p)
				if gerr != nil || werr != nil || !slices.Equal(g, w) {
					t.Fatalf("column %d Lookup(%q) = %v, %v; legacy %v, %v", ci, p, g, gerr, w, werr)
				}
				for name, lookup := range map[string]func(*inverted.Index) (*bitutil.Bitset, error){
					"LookupBitset": func(ix *inverted.Index) (*bitutil.Bitset, error) { return ix.LookupBitset(p, n) },
					"LookupPrefix": func(ix *inverted.Index) (*bitutil.Bitset, error) { return ix.LookupPrefix(p, n) },
					"LookupAll": func(ix *inverted.Index) (*bitutil.Bitset, error) {
						return ix.LookupAll(inverted.Tokenize(p), n)
					},
				} {
					g, gerr := lookup(gi)
					w, werr := lookup(wi)
					if gerr != nil || werr != nil || !slices.Equal(g.Slice(), w.Slice()) {
						t.Fatalf("column %d %s(%q) = %v, %v; legacy %v, %v", ci, name, p, g, gerr, w, werr)
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
	{"meta", 322, 0x1fea5ac20e0b2ccf},
	{"index/0", 49, 0xccf415cb785cd7a4},
	{"index/1", 52, 0xdd090f182f585028},
	{"index/2", 267, 0x6b1be4fc8ea8fbff},
	{"index/3", 108, 0xa5b0f6da57960759},
	{"index/4", 91, 0x07dedc8b388d30a1},
	{"index/5", 27, 0xbbb2c5774a1d1f08},
	{"index/6", 1197, 0xa4ebeb331c841d87},
	{"data/0/0", 26, 0x0b66aed9cd029156},
	{"data/1/0", 102, 0x0a54f27009783159},
	{"data/2/0", 113, 0x0cca433bc614ed19},
	{"data/3/0", 79, 0x1a52a790831b1d35},
	{"data/4/0", 100, 0x039ed8b4e9c82aca},
	{"data/5/0", 45, 0xd50b87d0687ec2cd},
	{"data/6/0", 324, 0x94a660a03a6e4da0},
}

var golden400 = []partHash{
	{"meta", 744, 0xd0c521a22bea3b25},
	{"index/0", 411, 0x0e55e807dca00f14},
	{"index/1", 414, 0x90a24a511f5d2aa1},
	{"index/2", 1165, 0x8d9a4647eaa9b602},
	{"index/3", 468, 0x783a5a0f2c1ed5bf},
	{"index/4", 1084, 0xbf7b4b810b19bbb4},
	{"index/5", 106, 0x3e9e835dbf194ac9},
	{"index/6", 10760, 0x74d25854b4cc7163},
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
	{"data/6/0", 705, 0x5d2ff89366e1e01c},
	{"data/6/1", 713, 0x64d5392a5d109bba},
	{"data/6/2", 709, 0x74cea6c4edf82a17},
	{"data/6/3", 224, 0x443fe63c22f4da63},
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

// TestTarLayoutFixture reads testdata/four_member.tar, goldenRows(12,
// 17) at BlockRows 8 packed by the last commit that wrote a tar (four
// members, the compact index encoding), and checks that its parts are
// byte for byte the parts of the same rows packed now: the format
// change moved the framing, not a byte of any part.
func TestTarLayoutFixture(t *testing.T) {
	old, err := os.ReadFile("testdata/four_member.tar")
	if err != nil {
		t.Fatal(err)
	}
	oldReader, err := OpenReader(BytesFetcher(old))
	if err != nil {
		t.Fatal(err)
	}
	newReader := buildAndOpen(t, goldenRows(12, 17), BuildOptions{BlockRows: 8})
	parts, oldParts := namedParts(newReader), namedParts(oldReader)
	if len(parts) != len(oldParts) {
		t.Fatalf("%d parts in the tar, %d now", len(oldParts), len(parts))
	}
	for i, p := range parts {
		was, err := oldReader.fetch.Fetch(oldParts[i].ext.Offset, oldParts[i].ext.Size)
		if err != nil {
			t.Fatal(err)
		}
		is, err := newReader.fetch.Fetch(p.ext.Offset, p.ext.Size)
		if err != nil {
			t.Fatal(err)
		}
		if oldParts[i].name != p.name || !bytes.Equal(was, is) {
			t.Errorf("part %d: %s of %d bytes in the tar, %s of %d now, or different content", i, oldParts[i].name, len(was), p.name, len(is))
		}
	}
}
