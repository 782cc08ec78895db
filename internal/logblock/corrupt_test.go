package logblock

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"logstore/internal/bitutil"
	"logstore/internal/schema"
)

func packedFixture(t *testing.T) []byte {
	t.Helper()
	built, err := Build(schema.RequestLogSchema(), makeRows(t, 1, 48, 3), BuildOptions{BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return packed
}

// repack re-encodes the manifest of a packed object with edit applied
// to its records, and a trailer stating the new manifest's length.
func repack(t *testing.T, packed []byte, edit func([]record)) []byte {
	t.Helper()
	manLen, err := parseTrailer(packed, int64(len(packed)))
	if err != nil {
		t.Fatal(err)
	}
	manOff := len(packed) - trailerSize - int(manLen)
	var recs []record
	if err := forEachRecord(packed[manOff:len(packed)-trailerSize], uint64(manOff), func(r record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	edit(recs)
	out := bytes.Clone(packed[:manOff])
	for _, r := range recs {
		out = appendRecord(out, int(r.kind), int(r.col), int(r.blk), int(r.size))
	}
	return appendTrailer(out, len(out)-manOff)
}

// TestOpenReaderCorrupt damages a valid packed LogBlock, and a tar one
// of an older release, which it refuses whole, in the ways a torn
// upload or bit rot would and checks OpenReader rejects each one.
func TestOpenReaderCorrupt(t *testing.T) {
	packed := packedFixture(t)
	magicAt := bytes.Index(packed, []byte(Magic))
	if magicAt < 0 {
		t.Fatal("packed object does not contain the meta magic")
	}
	legacy, err := os.ReadFile("testdata/legacy_index.tar")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(BytesFetcher(repack(t, packed, func([]record) {}))); err != nil {
		t.Fatalf("repacking the manifest unchanged broke the object: %v", err)
	}
	trailerAt := len(packed) - trailerSize
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated tar header", legacy[:100]},
		{"truncated manifest", legacy[:512+4]}, // a tar header, then the manifest's first bytes
		{"truncated before meta", packed[:magicAt]},
		{"bad meta magic", func() []byte {
			p := bytes.Clone(packed)
			p[magicAt] ^= 0xff
			return p
		}()},
		{"zeroed size field", func() []byte {
			p := bytes.Clone(legacy)
			for i := 124; i < 136; i++ {
				p[i] = 0x00 // NULs in the octal size field
			}
			return p
		}()},
		{"oversized size field", func() []byte {
			p := bytes.Clone(legacy)
			copy(p[124:136], []byte("77777777777\x00")) // claims ~8 GiB manifest
			return p
		}()},
		{"truncated trailer", packed[:len(packed)-2]},
		{"trailer shorter than a trailer", packed[trailerAt+1:]},
		{"manifest longer than the object", func() []byte {
			p := bytes.Clone(packed)
			bitutil.PutUint32(p[trailerAt:], uint32(len(p)))
			return p
		}()},
		{"manifest sizes past the trailer", repack(t, packed, func(recs []record) { recs[len(recs)-1].size += trailerSize + 1 })},
		{"manifest sizes short of the manifest", repack(t, packed, func(recs []record) { recs[0].size-- })},
		{"unknown format version", func() []byte {
			p := bytes.Clone(packed)
			p[trailerAt+4]++
			return p
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := OpenReader(BytesFetcher(tc.data)); err == nil {
				t.Fatal("OpenReader accepted corrupt input")
			}
		})
	}
}

// TestDecodeMetaCorrupt exercises DecodeMeta's structural bounds.
func TestDecodeMetaCorrupt(t *testing.T) {
	built, err := Build(schema.RequestLogSchema(), makeRows(t, 1, 48, 3), BuildOptions{BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	valid := built.Meta.Encode()

	t.Run("roundtrip sanity", func(t *testing.T) {
		if _, err := DecodeMeta(valid); err != nil {
			t.Fatalf("valid meta must decode: %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		p := bytes.Clone(valid)
		p[0] ^= 0xff
		if _, err := DecodeMeta(p); err == nil {
			t.Fatal("accepted bad magic")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{len(Magic), len(valid) / 4, len(valid) / 2, len(valid) - 1} {
			if _, err := DecodeMeta(valid[:cut]); err == nil {
				t.Fatalf("accepted meta truncated to %d bytes", cut)
			}
		}
	})
	t.Run("oversized block count", func(t *testing.T) {
		m := *built.Meta
		m.NumBlocks = 1 << 30 // geometry lies: far more blocks than rows
		if _, err := DecodeMeta(m.Encode()); err == nil {
			t.Fatal("accepted implausible block count")
		}
	})
	t.Run("block row count beyond block size", func(t *testing.T) {
		m := *built.Meta
		cols := make([]ColumnMeta, len(m.Columns))
		copy(cols, m.Columns)
		blocks := make([]BlockHeader, len(cols[0].Blocks))
		copy(blocks, cols[0].Blocks)
		blocks[0].RowCount = m.BlockRows + 5
		cols[0].Blocks = blocks
		m.Columns = cols
		if _, err := DecodeMeta(m.Encode()); err == nil {
			t.Fatal("accepted a block claiming more rows than the block size")
		}
	})
	t.Run("elided headers in more than one block", func(t *testing.T) {
		one, err := Build(schema.RequestLogSchema(), makeRows(t, 1, 40, 3), BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if one.Meta.NumBlocks != 1 {
			t.Fatalf("meta of %d blocks, want 1", one.Meta.NumBlocks)
		}
		p := withBlockCount(one.Meta, 2)
		if _, err := DecodeMeta(p); err == nil {
			t.Fatal("accepted a meta that elides the headers of two blocks")
		}
		packed, err := one.Pack()
		if err != nil {
			t.Fatal(err)
		}
		obj := bytes.Replace(packed, one.Meta.Encode(), p, 1)
		if _, err := OpenReader(BytesFetcher(obj)); err == nil {
			t.Fatal("opened an object whose meta elides the headers of two blocks")
		}
	})
	t.Run("columns disagree on eliding the headers", func(t *testing.T) {
		one, err := Build(schema.RequestLogSchema(), makeRows(t, 1, 40, 3), BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := one.Meta
		enc := m.Encode()
		// Column ci stores its one header and clears the bit; the
		// others elide theirs. Each column reads well on its own.
		for ci := 0; ci < 2; ci++ {
			at := columnByteAt(m, ci) + 1
			mixed := append(slices.Clone(enc[:at]), bitutil.AppendUvarint(nil, uint64(m.RowCount))...)
			mixed = appendBounded(mixed, m.Columns[ci].SMA)
			mixed = append(mixed, enc[at:]...)
			mixed[at-1] &^= headersElided
			if _, err := DecodeMeta(mixed); err == nil {
				t.Errorf("accepted a meta whose column %d alone stores its block header", ci)
			}
		}
	})
	t.Run("zero-block meta", func(t *testing.T) {
		// A meta with no blocks is structurally valid (an empty
		// LogBlock cannot be built, but the decoder's contract is
		// structural): it must decode, not crash, and report zero
		// geometry.
		m := *built.Meta
		m.RowCount = 0
		m.NumBlocks = 0
		cols := make([]ColumnMeta, len(m.Columns))
		copy(cols, m.Columns)
		for i := range cols {
			cols[i].Blocks = nil
		}
		m.Columns = cols
		got, err := DecodeMeta(m.Encode())
		if err != nil {
			t.Fatalf("zero-block meta must decode: %v", err)
		}
		if got.NumBlocks != 0 || got.RowCount != 0 {
			t.Fatalf("zero-block meta decoded to %d blocks, %d rows", got.NumBlocks, got.RowCount)
		}
	})
}

// TestDecodeBlockVectorCorrupt damages one data member every way the
// framing allows and checks DecodeBlockVector errors instead of
// panicking or over-allocating.
func TestDecodeBlockVectorCorrupt(t *testing.T) {
	built, err := Build(schema.RequestLogSchema(), makeRows(t, 1, 48, 3), BuildOptions{BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	m := built.Meta
	raw := built.DataPart(0, 0)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated bitset", raw[:2]},
		{"missing codec byte", raw[:len(raw)/4]},
		{"garbage payload", append(bytes.Clone(raw[:len(raw)/2]), 0xde, 0xad)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBlockVector(m, 0, 0, tc.data); err == nil {
				t.Fatal("DecodeBlockVector accepted corrupt input")
			}
		})
	}
}
