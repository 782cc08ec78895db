package logblock

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"logstore/internal/bitutil"
	"logstore/internal/compress"
	"logstore/internal/index/bkd"
	"logstore/internal/index/inverted"
	"logstore/internal/index/sma"
	"logstore/internal/schema"
)

// BuildOptions configures LogBlock construction.
type BuildOptions struct {
	// Codec is the block compression codec; the zero value selects the
	// paper's default (ZSTD-class).
	Codec compress.Codec
	// IntCodec is the codec for int64 column blocks. Left zero it
	// follows an explicit Codec, but under the default codec it selects
	// the speed-class codec: varint streams gain little from entropy
	// coding, while DEFLATE charges a Huffman-table build to every
	// block decode on the scan path.
	IntCodec compress.Codec
	// BlockRows is the column-block size in rows (0 = DefaultBlockRows).
	BlockRows int
	// BKDLeafSize tunes the numeric index (0 = bkd.DefaultLeafSize).
	BKDLeafSize int
	// NoIndexes suppresses per-column index construction; SMA statistics
	// are still produced. Used by the data-skipping ablation experiments.
	NoIndexes bool
}

// Built is an in-memory LogBlock ready to pack: the decoded meta plus
// the encoded meta, the indexes and the column blocks, each run back to
// back. parts lists the pieces of data and index in the order they lie
// in (every column's blocks, then every column's index).
type Built struct {
	Meta  *Meta
	meta  []byte
	index []byte
	data  []byte
	parts []part
}

// part is one column block or index (blk < 0).
type part struct {
	col, blk int
	size     int
}

// DataPart returns the encoded column block blk of column col (the
// bytes a reader gets for the manifest's DataExtent(col, blk)), or nil
// if there is no such block.
func (b *Built) DataPart(col, blk int) []byte {
	off := 0
	for _, p := range b.parts {
		if p.blk < 0 {
			break
		}
		if p.col == col && p.blk == blk {
			return b.data[off : off+p.size]
		}
		off += p.size
	}
	return nil
}

// buildScratch is the working memory of one Build call, recycled
// across calls through freeScratch: the index builders and the encode
// buffers every column block passes through. Nothing in a Built points
// into it.
type buildScratch struct {
	inv *inverted.Builder
	bkd *bkd.Builder

	// index and data accumulate the two runs of parts; Build copies
	// them out at their final size.
	index []byte
	data  []byte

	// One column block before compression: the plain encoding, and for
	// strings the dictionary alternative (entries, then per-row codes),
	// plus each dictionary entry's span of inverted-index term ordinals.
	plain   []byte
	entries []byte
	codes   []byte
	dict    map[string]int
	ords    []uint32
	spans   []uint32
}

// stringBlockFunc encodes one string column block and feeds its SMA and
// inverted index; encodeStringBlock is the one Build uses.
type stringBlockFunc func(s *buildScratch, rows []schema.Row, ci, first int, st *sma.SMA, inv *inverted.Builder) (byte, []byte)

// freeScratch holds idle buildScratch for the next Build calls. It is a
// bounded free list rather than a sync.Pool because a collection
// empties a pool, and a Build after one would grow every index builder
// and encode buffer again. Its bound is above the Builds a process runs
// at once at the default cluster size: one per shard draining, 12.
var freeScratch = make(chan *buildScratch, 16)

// maxFreeScratchBytes bounds the encode buffers a free scratch keeps,
// so that one very large LogBlock does not pin its working memory.
const maxFreeScratchBytes = 4 << 20

func getScratch() *buildScratch {
	select {
	case s := <-freeScratch:
		return s
	default:
		return &buildScratch{
			inv:  inverted.NewBuilder(),
			bkd:  bkd.NewBuilder(0),
			dict: make(map[string]int),
		}
	}
}

func putScratch(s *buildScratch) {
	if cap(s.index)+cap(s.data) > maxFreeScratchBytes {
		return
	}
	select {
	case freeScratch <- s:
	default:
	}
}

// MinIndexedRows is the fewest rows a LogBlock needs for Build to write
// its indexes. Below it every column is IndexNone, as a constant numeric
// column is at any size, and a query scans what the SMAs leave. In
// BenchmarkIndexAdmission (EXPERIMENTS.md, "After: index admission") a
// warm query of such a block is no faster with its indexes, and a cold
// one, which reads the whole object, gains less CPU from them than
// their bytes, about as many again as the rest of the object, take to
// fetch. The rule looks at the row count alone, so Build stays
// deterministic.
const MinIndexedRows = 256

// Build converts rows (one tenant's slice of the row store) into a
// LogBlock. Rows are sorted by the schema's time column (stably, and
// not at all when they already are in time order); they must all carry
// the same tenant id, since a LogBlock belongs to exactly one tenant
// (paper §3.1). A LogBlock of fewer than MinIndexedRows rows has no
// indexes. Build is deterministic — the same rows and options give the
// same bytes — which the builder's content-addressed object keys rely
// on.
func Build(sch *schema.Schema, rows []schema.Row, opts BuildOptions) (*Built, error) {
	if len(rows) < MinIndexedRows {
		opts.NoIndexes = true
	}
	return build(sch, rows, opts, (*buildScratch).encodeStringBlock)
}

// build is Build with the string column block step as a parameter, so
// tests can hold the builder's bytes to a per-row reference of it.
func build(sch *schema.Schema, rows []schema.Row, opts BuildOptions, stringBlock stringBlockFunc) (*Built, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("logblock: cannot build an empty LogBlock")
	}
	if opts.IntCodec == compress.Unspecified {
		if opts.Codec == compress.Unspecified {
			opts.IntCodec = compress.LZ4
		} else {
			opts.IntCodec = opts.Codec
		}
	}
	if opts.Codec == compress.Unspecified {
		opts.Codec = compress.Default
	}
	if opts.BlockRows <= 0 {
		opts.BlockRows = DefaultBlockRows
	}
	tenantIdx, timeIdx := sch.TenantIdx(), sch.TimeIdx()
	tenant := rows[0][tenantIdx].I
	for i, r := range rows {
		if err := r.Conforms(sch); err != nil {
			return nil, fmt.Errorf("logblock: row %d: %w", i, err)
		}
		if r[tenantIdx].I != tenant {
			return nil, fmt.Errorf("logblock: row %d tenant %d differs from %d (one tenant per LogBlock)",
				i, r[tenantIdx].I, tenant)
		}
	}
	byTime := func(a, b schema.Row) int { return cmp.Compare(a[timeIdx].I, b[timeIdx].I) }
	sorted := rows
	if !slices.IsSortedFunc(rows, byTime) {
		sorted = slices.Clone(rows)
		slices.SortStableFunc(sorted, byTime)
	}

	ncols := len(sch.Columns)
	numBlocks := (len(sorted) + opts.BlockRows - 1) / opts.BlockRows
	m := &Meta{
		Schema:    sch,
		RowCount:  len(sorted),
		Codec:     opts.Codec,
		BlockRows: opts.BlockRows,
		NumBlocks: numBlocks,
		Columns:   make([]ColumnMeta, ncols),
		Tenant:    tenant,
		MinTS:     sorted[0][timeIdx].I,
		MaxTS:     sorted[len(sorted)-1][timeIdx].I,
	}
	// One allocation each for every SMA and block header of the block.
	smas := make([]sma.SMA, ncols*(1+numBlocks))
	headers := make([]BlockHeader, ncols*numBlocks)
	// The data parts column by column, then the index parts: at most
	// one a column, trimmed once the columns are built.
	parts := make([]part, ncols*numBlocks, ncols*numBlocks+ncols)
	dataParts, indexParts := parts[:0], parts[ncols*numBlocks:]

	// Every row is valid, so a block's validity prefix depends only on
	// its row count: one for full blocks, one for the last.
	lastValid := validityPrefix(len(sorted) - (numBlocks-1)*opts.BlockRows)
	fullValid := lastValid
	if numBlocks > 1 {
		fullValid = validityPrefix(opts.BlockRows)
	}

	s := getScratch()
	defer putScratch(s)
	s.index, s.data = s.index[:0], s.data[:0]
	for ci, col := range sch.Columns {
		colSMAs := smas[ci*(1+numBlocks) : (ci+1)*(1+numBlocks)]
		for i := range colSMAs {
			colSMAs[i].Kind = col.Type
		}
		cm := ColumnMeta{
			SMA:    &colSMAs[numBlocks],
			Index:  col.Index,
			Blocks: headers[ci*numBlocks : (ci+1)*numBlocks],
		}
		if opts.NoIndexes {
			cm.Index = schema.IndexNone
		}
		switch cm.Index {
		case schema.IndexInverted:
			s.inv.Reset()
		case schema.IndexBKD:
			// A BKD tree over one value is never probed: the column SMA
			// refutes or implies every interval on the column before the
			// index level is reached. The tenant column is always so.
			if constantInt(sorted, ci) {
				cm.Index = schema.IndexNone
			} else {
				s.bkd.Reset(opts.BKDLeafSize)
			}
		}

		for bi := 0; bi < numBlocks; bi++ {
			start := bi * opts.BlockRows
			end := min(start+opts.BlockRows, len(sorted))
			bh := BlockHeader{RowCount: end - start, SMA: &colSMAs[bi]}

			var payload []byte
			encoding, codec := encodingPlain, opts.Codec
			if col.Type == schema.Int64 {
				codec = opts.IntCodec
				payload = s.plain[:0]
				for i := start; i < end; i++ {
					v := sorted[i][ci].I
					bh.SMA.AddInt(v)
					payload = bitutil.AppendVarint(payload, v)
					if cm.Index == schema.IndexBKD {
						s.bkd.Add(uint32(i), v)
					}
				}
				s.plain = payload
			} else {
				var inv *inverted.Builder
				if cm.Index == schema.IndexInverted {
					inv = s.inv
				}
				encoding, payload = stringBlock(s, sorted[start:end], ci, start, bh.SMA, inv)
			}
			cm.SMA.Merge(bh.SMA)
			cm.Blocks[bi] = bh

			partStart := len(s.data)
			if bi == numBlocks-1 {
				s.data = append(s.data, lastValid...)
			} else {
				s.data = append(s.data, fullValid...)
			}
			s.data = append(s.data, encoding, byte(codec))
			comp, err := compress.AppendCompress(s.data, codec, payload)
			if err != nil {
				return nil, fmt.Errorf("logblock: column %d block %d: %w", ci, bi, err)
			}
			s.data = comp
			dataParts = append(dataParts, part{col: ci, blk: bi, size: len(s.data) - partStart})
		}

		partStart := len(s.index)
		switch cm.Index {
		case schema.IndexInverted:
			cm.IndexFormat = IndexFormatTokens
			s.index = s.inv.AppendTo(s.index)
		case schema.IndexBKD:
			cm.IndexFormat = IndexFormatCompact
			s.index = s.bkd.AppendTo(s.index)
		}
		if cm.Index != schema.IndexNone {
			indexParts = append(indexParts, part{col: ci, blk: -1, size: len(s.index) - partStart})
		}
		m.Columns[ci] = cm
	}
	parts = parts[:ncols*numBlocks+len(indexParts)]
	return &Built{
		Meta:  m,
		meta:  m.Encode(),
		index: append([]byte(nil), s.index...),
		data:  append([]byte(nil), s.data...),
		parts: parts,
	}, nil
}

// constantInt reports whether int column ci holds one value in every
// row, stopping at the first that differs.
func constantInt(rows []schema.Row, ci int) bool {
	for _, r := range rows[1:] {
		if r[ci].I != rows[0][ci].I {
			return false
		}
	}
	return true
}

// validityPrefix is the head of a data part whose n rows are all
// valid: the length-prefixed serialized bitset.
func validityPrefix(n int) []byte {
	valid := bitutil.NewBitset(n)
	valid.SetAll()
	return bitutil.AppendLenBytes(nil, valid.Bytes())
}

// Pack assembles the object in one exactly-sized buffer: the data,
// index and meta parts back to back, then the manifest, one record per
// part in that order, then the trailer. A part's offset is the sum of
// the sizes before it, so the manifest states sizes only.
func (b *Built) Pack() ([]byte, error) {
	manLen := recordSize(kindMeta, 0, 0, len(b.meta))
	for _, p := range b.parts {
		manLen += recordSize(p.record())
	}
	if uint64(manLen) > math.MaxUint32 {
		return nil, fmt.Errorf("logblock: manifest of %d bytes too large for the trailer", manLen)
	}
	parts := len(b.data) + len(b.index) + len(b.meta)
	out := make([]byte, 0, parts+manLen+trailerSize)
	out = append(append(append(out, b.data...), b.index...), b.meta...)
	for _, p := range b.parts {
		kind, col, blk, size := p.record()
		out = appendRecord(out, kind, col, blk, size)
	}
	out = appendRecord(out, kindMeta, 0, 0, len(b.meta))
	if len(out) != parts+manLen {
		return nil, fmt.Errorf("logblock: internal error: manifest of %d bytes, sized at %d", len(out)-parts, manLen)
	}
	return appendTrailer(out, manLen), nil
}

// record returns p's manifest record.
func (p part) record() (kind, col, blk, size int) {
	if p.blk < 0 {
		return kindIndex, p.col, 0, p.size
	}
	return kindData, p.col, p.blk, p.size
}
