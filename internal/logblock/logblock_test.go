package logblock

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"logstore/internal/bitutil"
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

	// Inverted index on ip: equality via the value's rarest token,
	// then the stored values.
	ipCol := sch.ColumnIndex("ip")
	if !r.HasIndex(ipCol) {
		t.Fatal("ip column should be indexed")
	}
	ix, err := r.InvertedIndex(ipCol)
	if err != nil {
		t.Fatal(err)
	}
	probe := rows[0][ipCol].S
	got := equalRows(t, ix, rows, ipCol, probe)
	var want []int
	for i, row := range rows {
		if row[ipCol].S == probe {
			want = append(want, i)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("ip=%s matched %d rows, want %d", probe, len(got), len(want))
	}
	if r.HasIndex(sch.TenantIdx()) {
		t.Error("the tenant column, one value in every row, has a BKD index")
	}

	// BKD index on latency: range query.
	latCol := sch.ColumnIndex("latency")
	tree, err := r.BKDIndex(latCol)
	if err != nil {
		t.Fatal(err)
	}
	inRange, _, err := tree.Range(100, 200, r.Meta.RowCount)
	if err != nil {
		t.Fatal(err)
	}
	wantInRange := 0
	for _, row := range rows {
		if l := row[latCol].I; l >= 100 && l <= 200 {
			wantInRange++
		}
	}
	if inRange.Count() != wantInRange {
		t.Errorf("latency range matched %d, want %d", inRange.Count(), wantInRange)
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

// TestPackIsValidTarWithCorrectExtents checks the packer's contract
// (the name is the one it had when the object was a tar): the parts,
// the manifest and the trailer tile the object exactly, with no gap and
// no overlap — every column block, then every index, then the meta, in
// the order the manifest lists them — so the object is exactly meta +
// index + data + manifest + trailer bytes; and the reader sees through
// the extents the bytes the builder made.
func TestPackIsValidTarWithCorrectExtents(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts BuildOptions
	}{
		{"indexed", BuildOptions{BlockRows: 128}},
		{"one block", BuildOptions{}},
		{"no indexes", BuildOptions{BlockRows: 128, NoIndexes: true}},
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
			r, err := OpenReader(BytesFetcher(packed))
			if err != nil {
				t.Fatal(err)
			}
			m := r.Manifest
			var manLen int
			for _, ext := range append(append(slices.Clone(m.Data), m.Index...), m.Meta) {
				if ext != (Extent{}) {
					manLen += 3 // kind, column and block fit one varint byte each here
					manLen += bitutil.UvarintLen(uint64(ext.Size))
				}
			}
			if want := len(built.meta) + len(built.index) + len(built.data) + manLen + trailerSize; len(packed) != want {
				t.Errorf("packed %d bytes; meta %d + index %d + data %d + manifest %d + trailer %d = %d",
					len(packed), len(built.meta), len(built.index), len(built.data), manLen, trailerSize, want)
			}

			// Walk the parts in object order: each starts where the one
			// before it ended.
			sch := schema.RequestLogSchema()
			var next int64
			tile := func(what string, ext Extent) {
				t.Helper()
				if ext.Offset != next || ext.Size <= 0 {
					t.Errorf("%s at [%d, +%d), the part before it ended at %d", what, ext.Offset, ext.Size, next)
				}
				next = ext.Offset + ext.Size
			}
			for ci := range sch.Columns {
				for bi := 0; bi < built.Meta.NumBlocks; bi++ {
					tile(fmt.Sprintf("block %d of column %d", bi, ci), m.DataExtent(ci, bi))
				}
			}
			if next != int64(len(built.data)) {
				t.Errorf("column blocks end at %d, data is %d bytes", next, len(built.data))
			}
			for ci := range sch.Columns {
				// RequestLogSchema indexes every column, but a LogBlock
				// holds one tenant, and a constant column gets no BKD.
				indexed := !tc.opts.NoIndexes && ci != sch.TenantIdx()
				if ext := m.IndexExtent(ci); indexed == (ext == Extent{}) {
					t.Errorf("column %d: index extent %+v with NoIndexes %v", ci, ext, tc.opts.NoIndexes)
				} else if indexed {
					tile(fmt.Sprintf("index of column %d", ci), ext)
				}
			}
			tile("meta", m.Meta)
			if end := int64(len(packed) - trailerSize - manLen); next != end {
				t.Errorf("parts end at %d, the manifest starts at %d", next, end)
			}
			if !hasTrailer(packed) {
				t.Error("the object does not end in the trailer magic")
			}
			if got, err := parseTrailer(packed, int64(len(packed))); err != nil || got != int64(manLen) {
				t.Errorf("trailer states a manifest of %d bytes (%v), want %d", got, err, manLen)
			}

			for ci := range sch.Columns {
				for bi := 0; bi < built.Meta.NumBlocks; bi++ {
					ext := m.DataExtent(ci, bi)
					if !bytes.Equal(packed[ext.Offset:ext.Offset+ext.Size], built.DataPart(ci, bi)) {
						t.Errorf("block %d of column %d read through the manifest differs from the built part", bi, ci)
					}
				}
			}
			if ext := m.Meta; !bytes.Equal(packed[ext.Offset:ext.Offset+ext.Size], built.meta) {
				t.Error("meta read through the manifest differs from the built one")
			}
		})
	}
}

// TestManifestRoundTrip decodes the manifest records the packer writes
// back into the parts' positions, and holds an absent part to the zero
// Extent.
func TestManifestRoundTrip(t *testing.T) {
	var raw []byte
	raw = appendRecord(raw, kindData, 0, 0, 10)
	raw = appendRecord(raw, kindData, 0, 1, 300)
	raw = appendRecord(raw, kindData, 1, 0, 5)
	raw = appendRecord(raw, kindData, 1, 1, 7)
	raw = appendRecord(raw, kindIndex, 1, 0, 20)
	raw = appendRecord(raw, kindMeta, 0, 0, 99)
	if want := 5*4 + 1 + 4; len(raw) != want {
		t.Errorf("encoded %d bytes, want %d (one size of two varint bytes)", len(raw), want)
	}
	m, err := decodeManifest(raw, 10+300+5+7+20+99)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		got, want Extent
	}{
		{m.DataExtent(0, 0), Extent{0, 10}},
		{m.DataExtent(0, 1), Extent{10, 300}},
		{m.DataExtent(1, 0), Extent{310, 5}},
		{m.DataExtent(1, 1), Extent{315, 7}},
		{m.IndexExtent(1), Extent{322, 20}},
		{m.Meta, Extent{342, 99}},
		{m.IndexExtent(0), Extent{}},
		{m.IndexExtent(2), Extent{}},
		{m.DataExtent(2, 0), Extent{}},
		{m.DataExtent(0, 2), Extent{}},
		{m.DataExtent(-1, 0), Extent{}},
	} {
		if tc.got != tc.want {
			t.Errorf("extent %+v, want %+v", tc.got, tc.want)
		}
	}
}

// TestManifestDecodeErrors: a manifest that does not tile the parts
// exactly, or names a part twice, or leaves a hole in the block grid, is
// rejected, as is every truncation of a valid one.
func TestManifestDecodeErrors(t *testing.T) {
	rec := func(recs ...[4]int) []byte {
		var raw []byte
		for _, r := range recs {
			raw = appendRecord(raw, r[0], r[1], r[2], r[3])
		}
		return raw
	}
	valid := rec([4]int{kindData, 0, 0, 10}, [4]int{kindIndex, 0, 0, 5}, [4]int{kindMeta, 0, 0, 3})
	if _, err := decodeManifest(valid, 18); err != nil {
		t.Fatalf("valid manifest: %v", err)
	}
	for cut := 1; cut < len(valid); cut++ {
		if _, err := decodeManifest(valid[:cut], 18); err == nil {
			t.Errorf("truncation to %d should error", cut)
		}
	}
	for _, tc := range []struct {
		name     string
		raw      []byte
		partsEnd int64
	}{
		{"gap before the manifest", valid, 19},
		{"parts past the manifest", valid, 17},
		{"no meta", rec([4]int{kindData, 0, 0, 10}), 10},
		{"two metas", rec([4]int{kindMeta, 0, 0, 1}, [4]int{kindMeta, 0, 0, 1}), 2},
		{"duplicate block", rec([4]int{kindData, 0, 0, 1}, [4]int{kindData, 0, 0, 1}, [4]int{kindMeta, 0, 0, 1}), 3},
		{"hole in the grid", rec([4]int{kindData, 0, 0, 1}, [4]int{kindData, 1, 1, 1}, [4]int{kindMeta, 0, 0, 1}), 3},
		{"index beyond the columns", rec([4]int{kindData, 0, 0, 1}, [4]int{kindIndex, 1, 0, 1}, [4]int{kindMeta, 0, 0, 1}), 3},
		{"empty part", rec([4]int{kindData, 0, 0, 0}, [4]int{kindMeta, 0, 0, 1}), 1},
		{"unknown kind", rec([4]int{7, 0, 0, 1}, [4]int{kindMeta, 0, 0, 1}), 2},
		{"column beyond 32 bits", rec([4]int{kindData, 1 << 40, 0, 1}, [4]int{kindMeta, 0, 0, 1}), 2},
	} {
		if _, err := decodeManifest(tc.raw, tc.partsEnd); err == nil {
			t.Errorf("%s: accepted", tc.name)
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

// countingFetcher counts the fetches made through it.
type countingFetcher struct {
	Fetcher
	fetches int
}

func (c *countingFetcher) Fetch(off, size int64) ([]byte, error) {
	c.fetches++
	return c.Fetcher.Fetch(off, size)
}

// TestOpenFetches pins what an open costs in fetches: one for an object
// whose manifest and meta lie in its last TailSize bytes, small or
// large; two when the meta outgrows the tail; and one for a tar of an
// older release, whose tail shows it is no footer object, and which it
// refuses with ErrLegacyLayout.
func TestOpenFetches(t *testing.T) {
	pack := func(n, blockRows int) []byte {
		t.Helper()
		built, err := Build(schema.RequestLogSchema(), makeRows(t, 1, n, 21), BuildOptions{BlockRows: blockRows})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := built.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return packed
	}
	fixture := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, tc := range []struct {
		name    string
		object  []byte
		fetches int
		tar     bool
	}{
		{"small", pack(40, 0), 1, false},
		{"larger than the tail", pack(4000, 0), 1, false},
		{"meta larger than the tail", pack(4000, 16), 2, false},
		{"one member per part", fixture("parent_layout.tar"), 1, true},
		{"legacy index", fixture("legacy_index.tar"), 1, true},
		{"four members", fixture("four_member.tar"), 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &countingFetcher{Fetcher: BytesFetcher(tc.object)}
			r, err := OpenReader(f)
			switch {
			case tc.tar:
				if !errors.Is(err, ErrLegacyLayout) {
					t.Fatalf("tar opened with %v, want ErrLegacyLayout", err)
				}
			case err != nil:
				t.Fatal(err)
			default:
				t.Logf("%d-byte object, %d-byte meta", len(tc.object), r.Manifest.Meta.Size)
			}
			if f.fetches != tc.fetches {
				t.Errorf("open of a %d-byte object made %d fetches, want %d", len(tc.object), f.fetches, tc.fetches)
			}
		})
	}
}

// TestBuildScratchSurvivesGC: Build's working memory outlives a
// collection, so a Build right after one allocates no more than a
// Build in a steady stream does.
func TestBuildScratchSurvivesGC(t *testing.T) {
	sch := schema.RequestLogSchema()
	rows := makeRows(t, 1, 4000, 9)
	build := func() {
		if _, err := Build(sch, rows, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	build()
	steady := testing.AllocsPerRun(10, build)
	afterGC := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC() // a sync.Pool keeps a victim cache through one
		build()
	})
	if afterGC > steady {
		t.Errorf("Build allocates %.0f times after a GC, %.0f in a steady stream", afterGC, steady)
	}
}

// TestConstantColumnFeedsNoTree: a BKD column that holds one value gets
// no tree, and Build learns so before its rows reach the BKD builder,
// which holds no entry afterwards.
func TestConstantColumnFeedsNoTree(t *testing.T) {
	sch := schema.RequestLogSchema()
	rows := makeRows(t, 1, 300, 4)
	for _, r := range rows {
		for ci, col := range sch.Columns {
			if col.Index == schema.IndexBKD {
				r[ci] = schema.IntValue(1234) // tenant, ts and latency alike
			}
		}
	}
	for len(freeScratch) > 0 {
		<-freeScratch
	}
	s := getScratch() // a fresh one, which Build takes from the free list
	putScratch(s)
	built, err := Build(sch, rows, BuildOptions{BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.bkd.Len(); n != 0 {
		t.Errorf("the BKD builder holds %d entries after a block of constant columns", n)
	}
	for ci, cm := range built.Meta.Columns {
		if sch.Columns[ci].Index == schema.IndexBKD && cm.Index != schema.IndexNone {
			t.Errorf("constant column %d has index kind %d", ci, cm.Index)
		}
	}
}
