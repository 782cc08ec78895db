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
type ColumnMeta struct {
	SMA         *sma.SMA
	Index       schema.IndexKind
	IndexFormat IndexFormat
	Blocks      []BlockHeader
}

// IndexFormat is the encoding of a column's serialized index. The meta
// stores it in the high nibble of the column's index byte, beside the
// index kind in the low one, so a meta written before there was a
// second encoding reads as IndexFormatLegacy.
type IndexFormat uint8

const (
	// IndexFormatLegacy is the encoding of objects written before the
	// compact one: an inverted index's dictionary as whole terms, each
	// with its delta-varint postings, behind an offset per term; a BKD
	// tree with a row id per entry.
	IndexFormatLegacy IndexFormat = 0
	// IndexFormatCompact is what Build writes: a front-coded term
	// dictionary whose postings are deltas or a row bitset, whichever
	// is smaller, and BKD trees that store no row id when each is its
	// position.
	IndexFormatCompact IndexFormat = 1
)

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
	for _, cm := range m.Columns {
		out = cm.SMA.AppendTo(out)
		out = append(out, byte(cm.IndexFormat)<<4|byte(cm.Index))
		for _, bh := range cm.Blocks {
			out = bitutil.AppendUvarint(out, uint64(bh.RowCount))
			out = bh.SMA.AppendTo(out)
		}
	}
	return out
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
	for ci := range sch.Columns {
		colSMA, n, err := sma.Decode(data[off:])
		if err != nil {
			return nil, fmt.Errorf("logblock: column %d SMA: %w", ci, err)
		}
		off += n
		if off >= len(data) {
			return nil, fmt.Errorf("logblock: column %d index kind truncated", ci)
		}
		cm := ColumnMeta{SMA: colSMA, Index: schema.IndexKind(data[off] & 0x0f), IndexFormat: IndexFormat(data[off] >> 4)}
		off++
		if cm.IndexFormat > IndexFormatCompact {
			return nil, fmt.Errorf("logblock: column %d index format %d unknown", ci, cm.IndexFormat)
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
