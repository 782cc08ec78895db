package logblock

import (
	"os"
	"testing"

	"logstore/internal/schema"
)

// fuzzPacked builds one small valid packed LogBlock for seeding.
func fuzzPacked(f *testing.F) []byte {
	f.Helper()
	built, err := Build(schema.RequestLogSchema(), makeRows(f, 1, 48, 7), BuildOptions{BlockRows: 16})
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
// manifest, meta, index, and data members. Whatever OpenReader accepts
// must then survive the whole read surface — member fetches, index
// opens, block decodes — returning errors for damage, never panicking.
func FuzzOpenReader(f *testing.F) {
	packed := fuzzPacked(f)
	f.Add(packed)
	f.Add(packed[:tarBlock+8]) // manifest header + truncated manifest
	// An object of the one-member-per-part layout; the checked-in
	// seed-packed and seed-truncated corpus entries are that layout too.
	old, err := os.ReadFile("testdata/parent_layout.tar")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			// Mutator-grown multi-megabyte objects spend the whole
			// budget in decompression; real coverage lives in the
			// format framing, which small inputs reach far faster.
			return
		}
		r, err := OpenReader(BytesFetcher(data))
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
				_, _ = r.InvertedIndex(ci)
				_, _ = r.BKDIndex(ci)
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
// coordinates: the decoder must reject mismatched or corrupt payloads
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
		vals, valid, err := DecodeBlockData(meta, col, bi, raw)
		if err != nil {
			return
		}
		want := meta.Columns[col].Blocks[bi].RowCount
		if len(vals) != want {
			t.Fatalf("decoded %d values for a %d-row block", len(vals), want)
		}
		if valid == nil {
			t.Fatal("nil validity bitset on successful decode")
		}
	})
}
