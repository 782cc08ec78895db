package logblock

import (
	"archive/tar"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"logstore/internal/compress"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

func makeRows(t testing.TB, tenant int64, n int, seed int64) []schema.Row {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([]schema.Row, n)
	for i := range rows {
		fail := "false"
		if rng.Intn(10) == 0 {
			fail = "true"
		}
		rows[i] = schema.Row{
			schema.IntValue(tenant),
			schema.IntValue(int64(1000 + i)),
			schema.StringValue(fmt.Sprintf("192.168.0.%d", 1+rng.Intn(20))),
			schema.StringValue(fmt.Sprintf("/api/v%d/query", rng.Intn(3))),
			schema.IntValue(int64(1 + rng.Intn(500))),
			schema.StringValue(fail),
			schema.StringValue(fmt.Sprintf("request served code=%d attempt=%d", 200+rng.Intn(3)*100, i)),
		}
	}
	return rows
}

func buildAndOpen(t testing.TB, rows []schema.Row, opts BuildOptions) *Reader {
	t.Helper()
	built, err := Build(schema.RequestLogSchema(), rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(BytesFetcher(packed))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuildValidation(t *testing.T) {
	sch := schema.RequestLogSchema()
	if _, err := Build(sch, nil, BuildOptions{}); err == nil {
		t.Error("empty rows should error")
	}
	// Mixed tenants must be rejected: one tenant per LogBlock.
	rows := makeRows(t, 1, 4, 1)
	rows[2][0] = schema.IntValue(2)
	if _, err := Build(sch, rows, BuildOptions{}); err == nil {
		t.Error("mixed tenants should error")
	}
	// Non-conforming row.
	rows = makeRows(t, 1, 4, 1)
	rows[1] = schema.Row{schema.IntValue(1)}
	if _, err := Build(sch, rows, BuildOptions{}); err == nil {
		t.Error("short row should error")
	}
	// Invalid schema.
	bad := &schema.Schema{Name: "x"}
	if _, err := Build(bad, makeRows(t, 1, 2, 1), BuildOptions{}); err == nil {
		t.Error("invalid schema should error")
	}
}

func TestMetaFields(t *testing.T) {
	rows := makeRows(t, 42, 1000, 2)
	r := buildAndOpen(t, rows, BuildOptions{BlockRows: 256})
	m := r.Meta
	if m.RowCount != 1000 {
		t.Errorf("RowCount = %d", m.RowCount)
	}
	if m.Tenant != 42 {
		t.Errorf("Tenant = %d", m.Tenant)
	}
	if m.MinTS != 1000 || m.MaxTS != 1999 {
		t.Errorf("TS range = [%d, %d], want [1000, 1999]", m.MinTS, m.MaxTS)
	}
	if m.NumBlocks != 4 {
		t.Errorf("NumBlocks = %d, want 4", m.NumBlocks)
	}
	if m.Codec != compress.Default {
		t.Errorf("Codec = %v", m.Codec)
	}
	// Per-column SMA sanity: tenant column is constant.
	tsma := m.Columns[0].SMA
	if tsma.MinI != 42 || tsma.MaxI != 42 || tsma.Count != 1000 {
		t.Errorf("tenant SMA = [%d, %d] count %d", tsma.MinI, tsma.MaxI, tsma.Count)
	}
	// Block row ranges.
	if s, e := m.BlockRowRange(0); s != 0 || e != 256 {
		t.Errorf("block 0 range [%d, %d)", s, e)
	}
	if s, e := m.BlockRowRange(3); s != 768 || e != 1000 {
		t.Errorf("block 3 range [%d, %d)", s, e)
	}
}

func TestRowsSortedByTime(t *testing.T) {
	// Shuffle input; the builder must sort by ts.
	rows := makeRows(t, 1, 500, 3)
	rand.New(rand.NewSource(9)).Shuffle(len(rows), func(i, j int) {
		rows[i], rows[j] = rows[j], rows[i]
	})
	r := buildAndOpen(t, rows, BuildOptions{BlockRows: 128})
	tsCol := r.Meta.Schema.TimeIdx()
	prev := int64(-1)
	for bi := 0; bi < r.Meta.NumBlocks; bi++ {
		vec, err := r.BlockVector(tsCol, bi)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vec.Ints.Vals {
			if v < prev {
				t.Fatalf("timestamps not sorted: %d after %d", v, prev)
			}
			prev = v
		}
	}
}

func TestRoundTripAllColumns(t *testing.T) {
	for _, codec := range []compress.Codec{compress.None, compress.LZ4, compress.Zstd} {
		rows := makeRows(t, 7, 777, 4)
		r := buildAndOpen(t, rows, BuildOptions{BlockRows: 100, Codec: codec})
		// Reconstruct every row and compare against the (sorted) input.
		// makeRows produces strictly increasing ts, so order is stable.
		for i := 0; i < r.Meta.RowCount; i += 97 {
			got, err := r.ReadRow(i)
			if err != nil {
				t.Fatalf("codec %v row %d: %v", codec, i, err)
			}
			for ci := range got {
				if !got[ci].Equal(rows[i][ci]) {
					t.Fatalf("codec %v row %d col %d: got %v, want %v",
						codec, i, ci, got[ci], rows[i][ci])
				}
			}
		}
	}
}

func TestReadRowOutOfRange(t *testing.T) {
	r := buildAndOpen(t, makeRows(t, 1, 10, 5), BuildOptions{})
	if _, err := r.ReadRow(-1); err == nil {
		t.Error("negative row should error")
	}
	if _, err := r.ReadRow(10); err == nil {
		t.Error("row beyond count should error")
	}
}

func TestIndexes(t *testing.T) {
	rows := makeRows(t, 1, 2000, 6)
	r := buildAndOpen(t, rows, BuildOptions{BlockRows: 512})
	sch := r.Meta.Schema

	// Inverted index on ip: equality via raw value term.
	ipCol := sch.ColumnIndex("ip")
	if !r.HasIndex(ipCol) {
		t.Fatal("ip column should be indexed")
	}
	ix, err := r.InvertedIndex(ipCol)
	if err != nil {
		t.Fatal(err)
	}
	probe := rows[0][ipCol].S
	bs, err := ix.LookupBitset(probe, r.Meta.RowCount)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, row := range rows {
		if row[ipCol].S == probe {
			want++
		}
	}
	if bs.Count() != want {
		t.Errorf("ip=%s matched %d rows, want %d", probe, bs.Count(), want)
	}

	// BKD index on latency: range query.
	latCol := sch.ColumnIndex("latency")
	tree, err := r.BKDIndex(latCol)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tree.Range(100, 200, r.Meta.RowCount)
	if err != nil {
		t.Fatal(err)
	}
	want = 0
	for _, row := range rows {
		if l := row[latCol].I; l >= 100 && l <= 200 {
			want++
		}
	}
	if got.Count() != want {
		t.Errorf("latency range matched %d, want %d", got.Count(), want)
	}

	// Wrong index type requests error.
	if _, err := r.InvertedIndex(latCol); err == nil {
		t.Error("InvertedIndex on numeric column should error")
	}
	if _, err := r.BKDIndex(ipCol); err == nil {
		t.Error("BKDIndex on string column should error")
	}
}

func TestNoIndexesOption(t *testing.T) {
	rows := makeRows(t, 1, 100, 7)
	built, err := Build(schema.RequestLogSchema(), rows, BuildOptions{NoIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range built.Meta.Columns {
		if built.Meta.Columns[ci].Index != schema.IndexNone {
			t.Errorf("column %d still has index kind %d", ci, built.Meta.Columns[ci].Index)
		}
	}
	if len(built.index) != 0 {
		t.Errorf("%d index bytes despite NoIndexes", len(built.index))
	}
	// SMAs are still present for skipping.
	if built.Meta.Columns[0].SMA.Count != 100 {
		t.Error("SMA missing under NoIndexes")
	}
}

// TestPackIsValidTarWithCorrectExtents checks the packer's contract:
// the object is a tar archive/tar reads, with exactly the members
// manifest, meta, index, data (no index member without indexes); every
// manifest extent lies inside the payload of the member its name
// belongs to; a member's extents tile it in order with no gap or
// overlap; and the object has exactly the size computed before packing.
func TestPackIsValidTarWithCorrectExtents(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    BuildOptions
		members []string
	}{
		{"indexed", BuildOptions{BlockRows: 128}, []string{MemberManifest, MemberMeta, memberIndex, memberData}},
		{"one block", BuildOptions{}, []string{MemberManifest, MemberMeta, memberIndex, memberData}},
		{"no indexes", BuildOptions{BlockRows: 128, NoIndexes: true}, []string{MemberManifest, MemberMeta, memberData}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			built, err := Build(schema.RequestLogSchema(), makeRows(t, 3, 300, 8), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := built.Pack()
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, _, total := built.layout(); len(packed) != total {
				t.Errorf("packed %d bytes, the layout computed beforehand said %d", len(packed), total)
			}

			// Walk the tar with the stdlib reader, recording where each
			// member's payload lies in the object.
			type span struct{ off, end int64 }
			payload := map[string]span{}
			var names []string
			var man *Manifest
			rd := bytes.NewReader(packed)
			tr := tar.NewReader(rd)
			for {
				hdr, err := tr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				off := int64(len(packed)) - int64(rd.Len())
				data, err := io.ReadAll(tr)
				if err != nil {
					t.Fatal(err)
				}
				if hdr.Typeflag != tar.TypeReg || hdr.Size != int64(len(data)) {
					t.Errorf("member %s: type %q, size %d, read %d bytes", hdr.Name, hdr.Typeflag, hdr.Size, len(data))
				}
				names = append(names, hdr.Name)
				payload[hdr.Name] = span{off, off + hdr.Size}
				if hdr.Name == MemberManifest {
					if man, err = DecodeManifest(data); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !slices.Equal(names, tc.members) {
				t.Fatalf("tar members %v, want %v", names, tc.members)
			}

			// Every extent inside its member; each member tiled exactly.
			next := map[string]int64{}
			for name, sp := range payload {
				next[name] = sp.off
			}
			sch := schema.RequestLogSchema()
			wantParts := 1 + len(sch.Columns)*built.Meta.NumBlocks
			if !tc.opts.NoIndexes {
				wantParts += len(sch.Columns) // RequestLogSchema indexes every column
			}
			if got := len(man.Names()); got != wantParts {
				t.Errorf("manifest has %d parts, want %d", got, wantParts)
			}
			for _, name := range man.Names() {
				member := name
				if i := strings.IndexByte(name, '/'); i >= 0 {
					member = name[:i]
				}
				sp, ok := payload[member]
				if !ok {
					t.Fatalf("part %s belongs to member %s, which the tar lacks", name, member)
				}
				ext, _ := man.Lookup(name)
				if ext.Offset != next[member] {
					t.Errorf("part %s at %d, previous part of %s ended at %d", name, ext.Offset, member, next[member])
				}
				if ext.Size < 0 || ext.Offset < sp.off || ext.Offset+ext.Size > sp.end {
					t.Errorf("part %s [%d, %d) outside member %s [%d, %d)", name, ext.Offset, ext.Offset+ext.Size, member, sp.off, sp.end)
				}
				next[member] = ext.Offset + ext.Size
			}
			for name, sp := range payload {
				if name != MemberManifest && next[name] != sp.end {
					t.Errorf("parts of member %s end at %d, its payload at %d", name, next[name], sp.end)
				}
			}

			// The reader sees through the extents what the builder made.
			r, err := OpenReader(BytesFetcher(packed))
			if err != nil {
				t.Fatal(err)
			}
			for ci := range sch.Columns {
				for bi := 0; bi < built.Meta.NumBlocks; bi++ {
					raw, err := r.ReadMember(DataMember(ci, bi))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(raw, built.DataPart(ci, bi)) {
						t.Errorf("data/%d/%d read through the manifest differs from the built part", ci, bi)
					}
				}
			}
		})
	}
}

// TestTarHeaderMatchesArchiveTar pins the hand-written header to the
// bytes archive/tar's writer emits for the same member.
func TestTarHeaderMatchesArchiveTar(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
	}{{MemberManifest, 0}, {MemberMeta, 322}, {memberIndex, 1 << 20}, {memberData, maxTarMember}} {
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		if err := tw.WriteHeader(&tar.Header{
			Name: tc.name, Mode: 0o644, Size: int64(tc.size), ModTime: time.Unix(0, 0), Format: tar.FormatUSTAR,
		}); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, tarBlock)
		putTarHeader(got, tc.name, tc.size)
		if want := buf.Bytes()[:tarBlock]; !bytes.Equal(got, want) {
			t.Errorf("%s/%d:\n got %q\nwant %q", tc.name, tc.size, got, want)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest()
	m.Add("meta", Extent{Offset: 512, Size: 99})
	m.Add("data/0/0", Extent{Offset: 1024, Size: 4096})
	m.Add("meta", Extent{Offset: 512, Size: 100}) // overwrite keeps order
	raw := m.Encode()
	if want := 4 + manifestEntrySize(len("meta")) + manifestEntrySize(len("data/0/0")); len(raw) != want {
		t.Errorf("encoded %d bytes, entry sizes add up to %d", len(raw), want)
	}
	got, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	names := got.Names()
	if len(names) != 2 || names[0] != "meta" || names[1] != "data/0/0" {
		t.Errorf("Names = %v", names)
	}
	if e, _ := got.Lookup("meta"); e.Size != 100 {
		t.Errorf("meta extent = %+v", e)
	}
	if _, ok := got.Lookup("missing"); ok {
		t.Error("missing member should not resolve")
	}
}

func TestManifestDecodeErrors(t *testing.T) {
	if _, err := DecodeManifest(nil); err == nil {
		t.Error("nil manifest should error")
	}
	m := NewManifest()
	m.Add("x", Extent{1, 2})
	raw := m.Encode()
	for cut := 4; cut < len(raw); cut++ {
		if _, err := DecodeManifest(raw[:cut]); err == nil {
			t.Errorf("truncation to %d should error", cut)
		}
	}
}

func TestMetaRoundTripAndErrors(t *testing.T) {
	rows := makeRows(t, 5, 200, 9)
	built, err := Build(schema.RequestLogSchema(), rows, BuildOptions{BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	raw := built.Meta.Encode()
	got, err := DecodeMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowCount != 200 || got.NumBlocks != 4 || got.Tenant != 5 {
		t.Errorf("meta round trip: %+v", got)
	}
	if len(got.Columns) != len(built.Meta.Columns) {
		t.Fatalf("column count mismatch")
	}
	for ci := range got.Columns {
		if got.Columns[ci].Index != built.Meta.Columns[ci].Index {
			t.Errorf("column %d index kind mismatch", ci)
		}
		if len(got.Columns[ci].Blocks) != 4 {
			t.Errorf("column %d block headers = %d", ci, len(got.Columns[ci].Blocks))
		}
	}
	// Corruptions.
	if _, err := DecodeMeta([]byte("WRONG")); err == nil {
		t.Error("bad magic should error")
	}
	for cut := len(Magic); cut < len(raw); cut += 11 {
		if _, err := DecodeMeta(raw[:cut]); err == nil {
			t.Errorf("truncation to %d should error", cut)
		}
	}
}

func TestBytesFetcherBounds(t *testing.T) {
	f := BytesFetcher([]byte("hello"))
	if _, err := f.Fetch(-1, 2); err == nil {
		t.Error("negative offset should error")
	}
	if _, err := f.Fetch(0, 10); err == nil {
		t.Error("oversized read should error")
	}
	got, err := f.Fetch(1, 3)
	if err != nil || string(got) != "ell" {
		t.Errorf("Fetch = %q, %v", got, err)
	}
}

func TestOpenReaderOnGarbage(t *testing.T) {
	if _, err := OpenReader(BytesFetcher(nil)); err == nil {
		t.Error("empty object should error")
	}
	if _, err := OpenReader(BytesFetcher(make([]byte, 2048))); err == nil {
		t.Error("zeroed object should error")
	}
}

func TestSingleRowBlock(t *testing.T) {
	rows := makeRows(t, 9, 1, 10)
	r := buildAndOpen(t, rows, BuildOptions{})
	if r.Meta.RowCount != 1 || r.Meta.NumBlocks != 1 {
		t.Fatalf("geometry: rows=%d blocks=%d", r.Meta.RowCount, r.Meta.NumBlocks)
	}
	got, err := r.ReadRow(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(rows[0][0]) {
		t.Error("single-row round trip broken")
	}
}

func TestCompressionReducesSize(t *testing.T) {
	rows := makeRows(t, 1, 5000, 11)
	rawBuilt, err := Build(schema.RequestLogSchema(), rows, BuildOptions{Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	zBuilt, err := Build(schema.RequestLogSchema(), rows, BuildOptions{Codec: compress.Zstd})
	if err != nil {
		t.Fatal(err)
	}
	rawPacked, _ := rawBuilt.Pack()
	zPacked, _ := zBuilt.Pack()
	if len(zPacked) >= len(rawPacked) {
		t.Errorf("compressed LogBlock (%d) not smaller than raw (%d)", len(zPacked), len(rawPacked))
	}
}

// BenchmarkBuildPack is the rows → packed object step of the archive
// loop at the three block sizes the benchmark workloads produce: 40
// rows (a paced tenant's 1 s archive tick), 400 and 4000 (hot tenants,
// compaction). Rows come from the workload generator so value shapes
// match the end-to-end benchmark. The distinct case gives every string
// cell of the 4000 rows a value its column never repeats, the worst
// case for a builder that analyzes each distinct value once.
func BenchmarkBuildPack(b *testing.B) {
	sch := schema.RequestLogSchema()
	for _, bc := range []struct {
		n        int
		distinct bool
	}{{40, false}, {400, false}, {4000, false}, {4000, true}} {
		name := fmt.Sprintf("rows=%d", bc.n)
		if bc.distinct {
			name += "-distinct"
		}
		b.Run(name, func(b *testing.B) {
			n := bc.n
			g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Seed: int64(n), StepMS: 25})
			rows := make([]schema.Row, n)
			var userBytes int
			for i := range rows {
				rows[i] = g.RowForTenant(7)
				if bc.distinct {
					for ci, col := range sch.Columns {
						if col.Type == schema.String {
							rows[i][ci] = schema.StringValue(fmt.Sprintf("%s %d", rows[i][ci].S, i))
						}
					}
				}
				userBytes += rows[i].Size()
			}
			var packedBytes int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				built, err := Build(sch, rows, BuildOptions{})
				if err != nil {
					b.Fatal(err)
				}
				packed, err := built.Pack()
				if err != nil {
					b.Fatal(err)
				}
				packedBytes = len(packed)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			b.ReportMetric(float64(packedBytes)/float64(userBytes), "packedB/userB")
		})
	}
}

func BenchmarkOpenReader(b *testing.B) {
	rows := makeRows(b, 1, 10000, 1)
	built, _ := Build(schema.RequestLogSchema(), rows, BuildOptions{})
	packed, _ := built.Pack()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenReader(BytesFetcher(packed)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMemberNames pins the manifest names — old objects carry them
// spelled by fmt — and their cost: every manifest lookup on the query
// path builds one, so a name is one allocation, the string itself.
func TestMemberNames(t *testing.T) {
	for _, col := range []int{0, 7, 10, 123456} {
		if got, want := IndexMember(col), fmt.Sprintf("index/%d", col); got != want {
			t.Errorf("IndexMember(%d) = %q, want %q", col, got, want)
		}
		for _, blk := range []int{0, 9, 10, 4095} {
			if got, want := DataMember(col, blk), fmt.Sprintf("data/%d/%d", col, blk); got != want {
				t.Errorf("DataMember(%d, %d) = %q, want %q", col, blk, got, want)
			}
		}
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = IndexMember(6) }); n > 1 {
		t.Errorf("IndexMember allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = DataMember(6, 12) }); n > 1 {
		t.Errorf("DataMember allocates %.0f times", n)
	}
	_ = sink
}
