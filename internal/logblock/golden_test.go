package logblock

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

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

func partHashes(t *testing.T, rows []schema.Row, opts BuildOptions) []partHash {
	t.Helper()
	r := buildAndOpen(t, rows, opts)
	var out []partHash
	for _, name := range r.Manifest.Names() {
		raw, err := r.ReadMember(name)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(raw)
		out = append(out, partHash{name, int64(len(raw)), h.Sum64()})
	}
	return out
}

// TestPartsGolden pins every manifest-addressed part of two fixed-seed
// blocks to the bytes the four-member packer's parent commit (a575349,
// one tar member per part) produced for the same rows: the packer may
// change the framing around the parts, never a part. The builder's
// object keys are content hashes, so a silent change here would also
// re-key every re-drained segment.
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

// TestParentLayoutFixture reads testdata/parent_layout.tar — goldenRows(12,
// 17) at BlockRows 8, packed by the parent commit with one tar member
// per part — and checks that the same rows packed now carry the same
// manifest names and, behind them, the same bytes: what changed is only
// where the parts lie.
func TestParentLayoutFixture(t *testing.T) {
	old, err := os.ReadFile("testdata/parent_layout.tar")
	if err != nil {
		t.Fatal(err)
	}
	oldReader, err := OpenReader(BytesFetcher(old))
	if err != nil {
		t.Fatal(err)
	}
	newReader := buildAndOpen(t, goldenRows(12, 17), BuildOptions{BlockRows: 8})
	names := newReader.Manifest.Names()
	if oldNames := oldReader.Manifest.Names(); !slices.Equal(oldNames, names) {
		t.Fatalf("manifest names differ:\n parent %v\n now    %v", oldNames, names)
	}
	for _, name := range names {
		was, err := oldReader.ReadMember(name)
		if err != nil {
			t.Fatal(err)
		}
		is, err := newReader.ReadMember(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(was, is) {
			t.Errorf("part %s: %d bytes in the parent's object, %d now, or different content", name, len(was), len(is))
		}
	}
}

var golden40 = []partHash{
	{"meta", 322, 0x995ede19110b6e5f},
	{"index/0", 88, 0x3944353298ab99e8},
	{"index/1", 91, 0x97ef465361afdc04},
	{"index/2", 633, 0x503f1e08eed7b859},
	{"index/3", 265, 0xc6d1954b7152690c},
	{"index/4", 90, 0xa0f0cb2c058439a2},
	{"index/5", 65, 0xd68a7907946c3d1a},
	{"index/6", 2575, 0x62b89dd4200e871d},
	{"data/0/0", 26, 0x0b66aed9cd029156},
	{"data/1/0", 102, 0x0a54f27009783159},
	{"data/2/0", 113, 0x0cca433bc614ed19},
	{"data/3/0", 79, 0x1a52a790831b1d35},
	{"data/4/0", 100, 0x039ed8b4e9c82aca},
	{"data/5/0", 45, 0xd50b87d0687ec2cd},
	{"data/6/0", 324, 0x94a660a03a6e4da0},
}

var golden400 = []partHash{
	{"meta", 744, 0x1230f5c37cff60f5},
	{"index/0", 1082, 0x4c4b02556a719a7a},
	{"index/1", 1085, 0x10db6f9847777517},
	{"index/2", 2536, 0xb3468b168d52e297},
	{"index/3", 1711, 0xf19299ad94b756ec},
	{"index/4", 1083, 0x10475358bcac65ed},
	{"index/5", 426, 0x709bc151b10b7357},
	{"index/6", 25206, 0xcedd82ed16783ef1},
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
