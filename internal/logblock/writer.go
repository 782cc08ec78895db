package logblock

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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
// the payloads of the meta, index and data members. parts lists the
// manifest-addressed pieces of index and data in member order (every
// column's index, then every column's blocks), which is also the order
// they lie in.
type Built struct {
	Meta  *Meta
	meta  []byte
	index []byte
	data  []byte
	parts []part
}

// part is one index (blk < 0) or column block inside its member.
type part struct {
	col, blk int
	size     int
}

func (p part) appendName(dst []byte) []byte {
	if p.blk < 0 {
		return appendIndexName(dst, p.col)
	}
	return appendDataName(dst, p.col, p.blk)
}

// DataPart returns the encoded column block blk of column col (the
// bytes a reader gets for DataMember(col, blk)), or nil if there is no
// such block.
func (b *Built) DataPart(col, blk int) []byte {
	off := 0
	for _, p := range b.parts {
		if p.blk < 0 {
			continue
		}
		if p.col == col && p.blk == blk {
			return b.data[off : off+p.size]
		}
		off += p.size
	}
	return nil
}

// buildScratch is the working memory of one Build call, recycled
// across calls: the index builders and the encode buffers every column
// block passes through. Nothing in a Built points into it.
type buildScratch struct {
	inv *inverted.Builder
	bkd *bkd.Builder

	// index and data accumulate the two members; Build copies them out
	// at their final size.
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

var buildScratchPool = sync.Pool{New: func() any {
	return &buildScratch{
		inv:  inverted.NewBuilder(),
		bkd:  bkd.NewBuilder(0),
		dict: make(map[string]int),
	}
}}

// Build converts rows (one tenant's slice of the row store) into a
// LogBlock. Rows are sorted by the schema's time column (stably, and
// not at all when they already are in time order); they must all carry
// the same tenant id, since a LogBlock belongs to exactly one tenant
// (paper §3.1). Build is deterministic — the same rows and options
// give the same bytes — which the builder's content-addressed object
// keys rely on.
func Build(sch *schema.Schema, rows []schema.Row, opts BuildOptions) (*Built, error) {
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
	nIndexes := 0
	if !opts.NoIndexes {
		for _, col := range sch.Columns {
			if col.Index != schema.IndexNone {
				nIndexes++
			}
		}
	}
	// Index parts first, then the data parts column by column.
	parts := make([]part, nIndexes+ncols*numBlocks)
	indexParts, dataParts := parts[:0], parts[nIndexes:nIndexes]

	// Every row is valid, so a block's validity prefix depends only on
	// its row count: one for full blocks, one for the last.
	lastValid := validityPrefix(len(sorted) - (numBlocks-1)*opts.BlockRows)
	fullValid := lastValid
	if numBlocks > 1 {
		fullValid = validityPrefix(opts.BlockRows)
	}

	s := buildScratchPool.Get().(*buildScratch)
	defer buildScratchPool.Put(s)
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
			s.bkd.Reset(opts.BKDLeafSize)
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
			s.index = s.inv.AppendTo(s.index)
		case schema.IndexBKD:
			s.index = s.bkd.AppendTo(s.index)
		}
		if cm.Index != schema.IndexNone {
			indexParts = append(indexParts, part{col: ci, blk: -1, size: len(s.index) - partStart})
		}
		m.Columns[ci] = cm
	}
	return &Built{
		Meta:  m,
		meta:  m.Encode(),
		index: append([]byte(nil), s.index...),
		data:  append([]byte(nil), s.data...),
		parts: parts,
	}, nil
}

// validityPrefix is the head of a data part whose n rows are all
// valid: the length-prefixed serialized bitset.
func validityPrefix(n int) []byte {
	valid := bitutil.NewBitset(n)
	valid.SetAll()
	return bitutil.AppendLenBytes(nil, valid.Bytes())
}

const tarBlock = 512

func pad512(n int) int { return (n + tarBlock - 1) / tarBlock * tarBlock }

// maxTarMember is the largest payload a USTAR header's 11-digit octal
// size field can state.
const maxTarMember = 1<<33 - 1

// putTarHeader writes into h, 512 zero bytes, the USTAR header
// archive/tar writes for a regular file with mode 0644, no owner and
// the epoch as its modification time.
func putTarHeader(h []byte, name string, size int) {
	octal := func(field []byte, v int) { // zero-padded, NUL-terminated
		for i := len(field) - 2; i >= 0; i-- {
			field[i] = '0' + byte(v&7)
			v >>= 3
		}
	}
	copy(h[0:100], name)
	octal(h[100:108], 0o644)
	octal(h[108:116], 0) // uid
	octal(h[116:124], 0) // gid
	octal(h[124:136], size)
	octal(h[136:148], 0) // mtime
	h[156] = '0'         // regular file
	copy(h[257:265], "ustar\x0000")
	octal(h[329:337], 0) // devmajor
	octal(h[337:345], 0) // devminor
	// The checksum is the byte sum of the header with its own field
	// read as spaces, stored as six octal digits, NUL, space.
	sum := 8 * int(' ')
	for _, c := range h[:tarBlock] {
		sum += int(c)
	}
	octal(h[148:155], sum)
	h[155] = ' '
}

// layout returns the manifest's encoded size and the offset each
// member's payload starts at; total is the size of the packed object.
// A block without indexes has no index member (indexOff is then the
// data member's offset, with nothing in between).
func (b *Built) layout() (manSize, metaOff, indexOff, dataOff, total int) {
	var name [48]byte
	manSize = 4 + manifestEntrySize(len(MemberMeta))
	for _, p := range b.parts {
		manSize += manifestEntrySize(len(p.appendName(name[:0])))
	}
	metaOff = tarBlock + pad512(manSize) + tarBlock
	indexOff = metaOff + pad512(len(b.meta)) + tarBlock
	dataOff = indexOff
	if len(b.index) > 0 {
		dataOff += pad512(len(b.index)) + tarBlock
	}
	// A tar ends with two zero blocks.
	total = dataOff + pad512(len(b.data)) + 2*tarBlock
	return
}

// Pack assembles the tar object in one exactly-sized buffer: the
// manifest, then the meta, index and data members. The manifest's
// extents are absolute byte ranges into the returned buffer, one per
// part, enabling ranged reads from object storage.
func (b *Built) Pack() ([]byte, error) {
	manSize, metaOff, indexOff, dataOff, total := b.layout()
	if max(manSize, len(b.meta), len(b.index), len(b.data)) > maxTarMember {
		return nil, fmt.Errorf("logblock: member too large for a tar header")
	}
	out := make([]byte, total)

	putTarHeader(out, MemberManifest, manSize)
	man := out[tarBlock : tarBlock : tarBlock+manSize]
	man = append(man, 0, 0, 0, 0)
	bitutil.PutUint32(man, uint32(1+len(b.parts)))
	man = appendManifestEntry(man, []byte(MemberMeta), Extent{Offset: int64(metaOff), Size: int64(len(b.meta))})
	var name [48]byte
	indexEnd, dataEnd := indexOff, dataOff
	for _, p := range b.parts {
		end := &dataEnd
		if p.blk < 0 {
			end = &indexEnd
		}
		man = appendManifestEntry(man, p.appendName(name[:0]), Extent{Offset: int64(*end), Size: int64(p.size)})
		*end += p.size
	}
	if len(man) != manSize || indexEnd != indexOff+len(b.index) || dataEnd != dataOff+len(b.data) {
		return nil, fmt.Errorf("logblock: internal error: parts do not add up to their members (manifest %d of %d bytes, index %d of %d, data %d of %d)",
			len(man), manSize, indexEnd-indexOff, len(b.index), dataEnd-dataOff, len(b.data))
	}

	putTarHeader(out[metaOff-tarBlock:], MemberMeta, len(b.meta))
	copy(out[metaOff:], b.meta)
	if len(b.index) > 0 {
		putTarHeader(out[indexOff-tarBlock:], memberIndex, len(b.index))
		copy(out[indexOff:], b.index)
	}
	putTarHeader(out[dataOff-tarBlock:], memberData, len(b.data))
	copy(out[dataOff:], b.data)
	return out, nil
}
