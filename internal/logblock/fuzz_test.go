package logblock

import (
	"errors"
	"math"
	"os"
	"testing"

	"logstore/internal/schema"
)

// fuzzPacked builds one small valid packed LogBlock of n rows in
// blocks of n/3 for seeding: below MinIndexedRows it has no indexes.
func fuzzPacked(f *testing.F, n int) []byte {
	f.Helper()
	built, err := Build(schema.RequestLogSchema(), makeRows(f, 1, n, 7), BuildOptions{BlockRows: n / 3})
	if err != nil {
		f.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		f.Fatal(err)
	}
	return packed
}

// FuzzOpenReader treats the input as a complete packed LogBlock object:
// data, index and meta parts, manifest and trailer. Whatever OpenReader
// accepts must then survive the whole read surface — part fetches,
// index opens and lookups, block decodes — returning errors for damage,
// never panicking; and an object that does not end in the trailer, as
// the tars of older releases do not, is refused with ErrLegacyLayout.
func FuzzOpenReader(f *testing.F) {
	packed := fuzzPacked(f, 48)
	f.Add(packed)
	f.Add(packed[:len(packed)-2]) // trailer torn off
	f.Add(fuzzPacked(f, MinIndexedRows))
	// Tars of the one-member-per-part layout and of the legacy index
	// encoding; the checked-in seed-packed and seed-truncated corpus
	// entries are the first, the *-four-members ones the second, and the
	// *-compact-index ones four-member tars with the compact index
	// encoding.
	for _, file := range []string{"parent_layout.tar", "legacy_index.tar"} {
		old, err := os.ReadFile("testdata/" + file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			// Mutator-grown multi-megabyte objects spend the whole
			// budget in decompression; real coverage lives in the
			// format framing, which small inputs reach far faster.
			return
		}
		r, err := OpenReader(BytesFetcher(data))
		if len(data) > 0 && !hasTrailer(data) && !errors.Is(err, ErrLegacyLayout) {
			t.Fatalf("an object with no trailer opened with %v, want ErrLegacyLayout", err)
		}
		if err != nil {
			return
		}
		m := r.Meta
		// Geometry already passed DecodeMeta plausibility checks; cap the
		// work (not the safety) so one fuzz case stays cheap.
		cols := len(m.Schema.Columns)
		if cols > 32 {
			cols = 32
		}
		blocks := m.NumBlocks
		if blocks > 8 {
			blocks = 8
		}
		for ci := 0; ci < cols; ci++ {
			for bi := 0; bi < blocks; bi++ {
				if vec, err := r.BlockVector(ci, bi); err == nil {
					if n := vec.Len(); n > 0 {
						_ = vec.Value(0)
						_ = vec.Value(n - 1)
					}
				}
			}
			if r.HasIndex(ci) {
				// A bitset per lookup: bound its size, not the row count.
				rows := min(m.RowCount, 4096)
				if ix, err := r.InvertedIndex(ci); err == nil {
					_, _ = ix.Lookup("false")
					_, _ = ix.LookupPrefix("r", rows)
				}
				if t, err := r.BKDIndex(ci); err == nil {
					_, _, _ = t.Range(math.MinInt64, math.MaxInt64, rows)
				}
			}
		}
		if m.RowCount > 0 {
			_, _ = r.ReadRow(0)
			_, _ = r.ReadRow(m.RowCount - 1)
		}
	})
}

// FuzzDecodeBlockData holds the meta member fixed (a real one, from the
// writer) and fuzzes the raw data-member bytes plus the block
// coordinates fed to DecodeBlockVector: the decoder must reject mismatched or corrupt payloads
// without panicking, and must never allocate beyond what the payload
// could really hold.
func FuzzDecodeBlockData(f *testing.F) {
	built, err := Build(schema.RequestLogSchema(), makeRows(f, 1, 48, 11), BuildOptions{BlockRows: 16})
	if err != nil {
		f.Fatal(err)
	}
	meta := built.Meta
	for ci := range meta.Schema.Columns {
		f.Add(ci, 0, built.DataPart(ci, 0))
	}
	f.Add(0, 1, built.DataPart(0, 1))
	f.Add(0, 0, []byte{})
	f.Fuzz(func(t *testing.T, col, bi int, raw []byte) {
		if col < 0 || col >= len(meta.Schema.Columns) || bi < 0 || bi >= meta.NumBlocks {
			return
		}
		vec, err := DecodeBlockVector(meta, col, bi, raw)
		if err != nil {
			return
		}
		want := meta.Columns[col].Blocks[bi].RowCount
		if vec.Len() != want {
			t.Fatalf("decoded %d values for a %d-row block", vec.Len(), want)
		}
		if vec.Valid == nil {
			t.Fatal("nil validity bitset on successful decode")
		}
	})
}
