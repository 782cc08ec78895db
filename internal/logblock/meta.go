package logblock

import (
	"fmt"

	"logstore/internal/bitutil"
	"logstore/internal/compress"
	"logstore/internal/index/sma"
	"logstore/internal/schema"
)

// BlockHeader describes one column block: its row count and SMA
// (paper Figure 4, part 4).
type BlockHeader struct {
	RowCount int
	SMA      *sma.SMA
}

// ColumnMeta describes one column: its whole-column SMA, index kind
// and encoding, and per-block headers (paper Figure 4, parts 2 and 4).
// The header of a LogBlock's only column block is not stored: a decoded
// meta holds it as the LogBlock's row count and the column's SMA.
type ColumnMeta struct {
	SMA         *sma.SMA
	Index       schema.IndexKind
	IndexFormat IndexFormat
	Blocks      []BlockHeader
}

// IndexFormat is the encoding of a column's serialized index. The meta
// stores it in bits 4–6 of the column's index byte, beside the index
// kind in the low nibble, so a meta written before there was a second
// encoding reads as IndexFormatLegacy.
type IndexFormat uint8

const (
	// IndexFormatLegacy is the encoding of objects written before the
	// compact one, all of them tars: an inverted index's dictionary as
	// whole terms, each with its delta-varint postings, behind an offset
	// per term; a BKD tree with a row id per entry. A Reader refuses to
	// load such an index (ErrLegacyLayout); a rewrite reads only the
	// object's meta and data.
	IndexFormatLegacy IndexFormat = 0
	// IndexFormatCompact is the encoding Build writes for BKD trees,
	// and wrote for inverted indexes before IndexFormatTokens: a
	// front-coded term dictionary whose postings are deltas or a row
	// bitset, whichever is smaller, and BKD trees that store no row id
	// when each is its position. Its inverted indexes hold each whole
	// lower-cased value as a term beside the value's tokens.
	IndexFormatCompact IndexFormat = 1
	// IndexFormatTokens is what Build writes for inverted indexes: the
	// compact encoding over each value's tokens alone. Its number keeps
	// a reader from before it, which knows only the first two, from
	// opening an object whose equality lookups would find no
	// whole-value terms.
	IndexFormatTokens IndexFormat = 2
)

// headersElided is the bit of a column's index byte that says the meta
// holds no block headers: the LogBlock is one column block, whose row
// count and SMAs are the LogBlock's and the columns'. Every column of
// the meta sets it or none does. It lies in the format nibble, above
// every format there is, so a reader from before it refuses the meta
// instead of misreading it.
const headersElided = 0x80

// Meta is the decoded "meta" member of a LogBlock: schema, geometry,
// codec, and all column/block statistics. It is everything the planner
// needs for data skipping without touching index or data members.
type Meta struct {
	Schema    *schema.Schema
	RowCount  int
	Codec     compress.Codec
	BlockRows int
	NumBlocks int
	Columns   []ColumnMeta

	// Tenant and time bounds duplicate the key columns' SMAs for the
	// LogBlock map (paper §5.1 step 1); kept explicit for convenience.
	Tenant int64
	MinTS  int64
	MaxTS  int64
}

// Encode serializes the meta member.
func (m *Meta) Encode() []byte {
	var out []byte
	out = append(out, Magic...)
	out = append(out, m.Schema.Marshal()...)
	out = bitutil.AppendUvarint(out, uint64(m.RowCount))
	out = append(out, byte(m.Codec))
	out = bitutil.AppendUvarint(out, uint64(m.BlockRows))
	out = bitutil.AppendUvarint(out, uint64(m.NumBlocks))
	out = bitutil.AppendVarint(out, m.Tenant)
	out = bitutil.AppendVarint(out, m.MinTS)
	out = bitutil.AppendVarint(out, m.MaxTS)
	elide := m.NumBlocks == 1
	for _, cm := range m.Columns {
		out = appendBounded(out, cm.SMA)
		kind := byte(cm.IndexFormat)<<4 | byte(cm.Index)
		if elide {
			out = append(out, kind|headersElided)
			continue
		}
		out = append(out, kind)
		for _, bh := range cm.Blocks {
			out = bitutil.AppendUvarint(out, uint64(bh.RowCount))
			out = appendBounded(out, bh.SMA)
		}
	}
	return out
}

// appendBounded appends s as a meta stores it: with its string bounds
// cut to sma.BoundLen bytes (sma.Truncate), which a bound already that
// short, as every decoded one is, keeps as it is.
func appendBounded(out []byte, s *sma.SMA) []byte {
	c := *s
	c.Truncate()
	return c.AppendTo(out)
}

// DecodeMeta parses a meta member.
func DecodeMeta(data []byte) (*Meta, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("logblock: bad magic")
	}
	off := len(Magic)
	sch, n, err := schema.UnmarshalSchema(data[off:])
	if err != nil {
		return nil, fmt.Errorf("logblock: meta schema: %w", err)
	}
	off += n
	m := &Meta{Schema: sch}

	rc, n, err := bitutil.Uvarint(data[off:])
	if err != nil {
		return nil, fmt.Errorf("logblock: meta row count: %w", err)
	}
	m.RowCount = int(rc)
	off += n
	if off >= len(data) {
		return nil, fmt.Errorf("logblock: meta codec truncated")
	}
	m.Codec = compress.Codec(data[off])
	off++
	br, n, err := bitutil.Uvarint(data[off:])
	if err != nil {
		return nil, fmt.Errorf("logblock: meta block rows: %w", err)
	}
	m.BlockRows = int(br)
	off += n
	nb, n, err := bitutil.Uvarint(data[off:])
	if err != nil {
		return nil, fmt.Errorf("logblock: meta block count: %w", err)
	}
	m.NumBlocks = int(nb)
	off += n
	if m.Tenant, n, err = bitutil.Varint(data[off:]); err != nil {
		return nil, fmt.Errorf("logblock: meta tenant: %w", err)
	}
	off += n
	if m.MinTS, n, err = bitutil.Varint(data[off:]); err != nil {
		return nil, fmt.Errorf("logblock: meta min ts: %w", err)
	}
	off += n
	if m.MaxTS, n, err = bitutil.Varint(data[off:]); err != nil {
		return nil, fmt.Errorf("logblock: meta max ts: %w", err)
	}
	off += n

	if rc > 1<<40 || br > 1<<32 {
		return nil, fmt.Errorf("logblock: implausible geometry: %d rows in blocks of %d", rc, br)
	}
	if m.NumBlocks > m.RowCount+1 || m.NumBlocks > 1<<24 {
		return nil, fmt.Errorf("logblock: implausible block count %d", m.NumBlocks)
	}
	// Every block header costs at least five bytes per column (row-count
	// uvarint plus a minimal SMA), so a block count beyond the remaining
	// input cannot be real — reject it before sizing Blocks slices by it.
	if m.NumBlocks > len(data)-off {
		return nil, fmt.Errorf("logblock: block count %d exceeds %d remaining meta bytes", m.NumBlocks, len(data)-off)
	}
	m.Columns = make([]ColumnMeta, len(sch.Columns))
	elided := false
	for ci := range sch.Columns {
		colSMA, n, err := sma.Decode(data[off:])
		if err != nil {
			return nil, fmt.Errorf("logblock: column %d SMA: %w", ci, err)
		}
		off += n
		if off >= len(data) {
			return nil, fmt.Errorf("logblock: column %d index kind truncated", ci)
		}
		kind := data[off]
		cm := ColumnMeta{SMA: colSMA, Index: schema.IndexKind(kind & 0x0f), IndexFormat: IndexFormat((kind &^ headersElided) >> 4)}
		off++
		if cm.IndexFormat > IndexFormatTokens || cm.IndexFormat == IndexFormatTokens && cm.Index != schema.IndexInverted {
			return nil, fmt.Errorf("logblock: column %d index format %d unknown for index kind %d", ci, cm.IndexFormat, cm.Index)
		}
		// The first column says whether the meta elides its block
		// headers, and every other one must say the same.
		if ci == 0 {
			elided = kind&headersElided != 0
			if elided && (m.NumBlocks != 1 || m.RowCount > m.BlockRows) {
				return nil, fmt.Errorf("logblock: meta elides the block headers of %d rows in %d blocks of %d", m.RowCount, m.NumBlocks, m.BlockRows)
			}
		} else if (kind&headersElided != 0) != elided {
			return nil, fmt.Errorf("logblock: column %d and column 0 disagree on eliding the block headers", ci)
		}
		if elided {
			cm.Blocks = []BlockHeader{{RowCount: m.RowCount, SMA: colSMA}}
			m.Columns[ci] = cm
			continue
		}
		cm.Blocks = make([]BlockHeader, m.NumBlocks)
		for bi := 0; bi < m.NumBlocks; bi++ {
			rc, n, err := bitutil.Uvarint(data[off:])
			if err != nil {
				return nil, fmt.Errorf("logblock: column %d block %d row count: %w", ci, bi, err)
			}
			off += n
			blockSMA, n, err := sma.Decode(data[off:])
			if err != nil {
				return nil, fmt.Errorf("logblock: column %d block %d SMA: %w", ci, bi, err)
			}
			off += n
			if rc > uint64(m.BlockRows) {
				return nil, fmt.Errorf("logblock: column %d block %d row count %d exceeds block size %d", ci, bi, rc, m.BlockRows)
			}
			cm.Blocks[bi] = BlockHeader{RowCount: int(rc), SMA: blockSMA}
		}
		m.Columns[ci] = cm
	}
	return m, nil
}

// BlockRowRange returns the [start, end) global row-id range of block bi.
func (m *Meta) BlockRowRange(bi int) (int, int) {
	start := bi * m.BlockRows
	end := start + m.BlockRows
	if end > m.RowCount {
		end = m.RowCount
	}
	return start, end
}
