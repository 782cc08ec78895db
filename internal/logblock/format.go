// Package logblock implements LogStore's read-optimized columnar storage
// unit (paper §3.2, Figure 4).
//
// A LogBlock holds one tenant's rows for a time range, as:
//
//  1. header       — table schema, row count, codec, block geometry
//  2. column meta  — per-column SMA and index kind
//  3. indexes      — inverted index (strings) or BKD tree (numerics)
//  4. block header — per column-block row count and SMA
//  5. column blocks — validity bitset + compressed values
//
// The paper packages all parts into one tar file whose first member is a
// manifest, so that any part can be ranged out of object storage without
// listing or downloading the whole object. This package keeps the
// manifest and drops the tar: framing that readers never parse cost a
// small block as many bytes as its parts. A packed object is its parts
// back to back, with no padding, followed by a manifest and a fixed
// trailer:
//
//	data      every column block, column-major
//	index     every indexed column's serialized index, in column order
//	          (none below MinIndexedRows rows)
//	meta      parts 1, 2 and 4 of the structure above (no part 4 when
//	          the LogBlock is one column block)
//	manifest  one record per part, in the order above
//	trailer   manifest length, format version, magic
//
// A manifest record is four uvarints: the part's kind, column, block and
// size. A part starts where the one before it ends, so records carry no
// offsets. A reader fetches the object's tail, finds the manifest
// through the trailer, and holds it positionally: the meta extent,
// Index[col] and Data[col*NumBlocks+blk].
//
// Objects written before this layout are tars; OpenReader refuses them
// with ErrLegacyLayout, and package tarblock reads them for their
// one-time rewrite.
package logblock

import (
	"fmt"

	"logstore/internal/bitutil"
)

// Magic identifies the meta part of a LogBlock.
const Magic = "LGBK1"

// DefaultBlockRows is the number of rows per column block. Smaller
// blocks skip more precisely but cost more per-block overhead.
const DefaultBlockRows = 4096

// The trailer closes every packed object: the manifest's length as a
// little-endian u32, the format version as a u16, then trailerMagic. A
// tar of an older release ends in zero blocks, so the magic tells the
// two apart.
const (
	trailerMagic  = "LGBF"
	formatVersion = 1
	trailerSize   = 4 + 2 + 4 // length, version, magic
)

// TailSize is how many bytes an open reads from the end of an object:
// room for the trailer, manifest and meta of any block the archive loop
// writes, and no more than one block of the block cache, so that the
// open's read is the object's last cache block (two when it straddles a
// boundary).
const TailSize = 16 << 10

// Part kinds, as a manifest record states them.
const (
	kindData  = 0
	kindIndex = 1
	kindMeta  = 2
)

// Extent locates a part inside the packed object. Every part has at
// least one byte, so the zero Extent stands for a part the object does
// not have.
type Extent struct {
	Offset int64
	Size   int64
}

// Manifest locates every part of a packed LogBlock by position.
type Manifest struct {
	Meta Extent
	// Index holds column col's serialized index at col; the zero Extent
	// where the column has none.
	Index []Extent
	// Data holds column col's block blk at col*NumBlocks+blk.
	Data      []Extent
	NumBlocks int
}

// IndexExtent returns the extent of column col's index, the zero Extent
// if there is none.
func (m *Manifest) IndexExtent(col int) Extent {
	if uint(col) >= uint(len(m.Index)) {
		return Extent{}
	}
	return m.Index[col]
}

// DataExtent returns the extent of column col's block blk, the zero
// Extent if there is no such block.
func (m *Manifest) DataExtent(col, blk int) Extent {
	if uint(blk) >= uint(m.NumBlocks) || uint(col) >= uint(len(m.Data)/m.NumBlocks) {
		return Extent{}
	}
	return m.Data[col*m.NumBlocks+blk]
}

// retainedBytes approximates the memory the manifest holds.
func (m *Manifest) retainedBytes() int64 {
	return int64(16 * (1 + len(m.Index) + len(m.Data)))
}

// appendRecord encodes one manifest record.
func appendRecord(dst []byte, kind, col, blk, size int) []byte {
	for _, v := range [...]int{kind, col, blk, size} {
		dst = bitutil.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// recordSize is the encoded size of one manifest record.
func recordSize(kind, col, blk, size int) int {
	return bitutil.UvarintLen(uint64(kind)) + bitutil.UvarintLen(uint64(col)) +
		bitutil.UvarintLen(uint64(blk)) + bitutil.UvarintLen(uint64(size))
}

// appendTrailer encodes the trailer of a manifest of manLen bytes.
func appendTrailer(dst []byte, manLen int) []byte {
	var fixed [6]byte
	bitutil.PutUint32(fixed[:4], uint32(manLen))
	fixed[4], fixed[5] = byte(formatVersion), byte(formatVersion>>8)
	return append(append(dst, fixed[:]...), trailerMagic...)
}

// hasTrailer reports whether tail, the end of an object, ends in the
// trailer magic.
func hasTrailer(tail []byte) bool {
	return len(tail) >= len(trailerMagic) && string(tail[len(tail)-len(trailerMagic):]) == trailerMagic
}

// parseTrailer checks the trailer at the end of an object of size bytes
// and returns the manifest's length, which it bounds by the object.
func parseTrailer(tail []byte, size int64) (int64, error) {
	if len(tail) < trailerSize {
		return 0, fmt.Errorf("logblock: trailer truncated: %d bytes", len(tail))
	}
	t := tail[len(tail)-trailerSize:]
	if v := int(t[4]) | int(t[5])<<8; v != formatVersion {
		return 0, fmt.Errorf("logblock: format version %d unknown", v)
	}
	manLen := int64(bitutil.Uint32(t[:4]))
	if manLen > size-trailerSize {
		return 0, fmt.Errorf("logblock: manifest of %d bytes in an object of %d", manLen, size)
	}
	return manLen, nil
}

// record is one decoded manifest record.
type record struct{ kind, col, blk, size uint64 }

// forEachRecord decodes the records of raw in order, stopping at the
// first error. An empty part, one larger than limit, or a column or
// block beyond 32 bits is an error, so that no later sum or product
// overflows.
func forEachRecord(raw []byte, limit uint64, fn func(record) error) error {
	for off := 0; off < len(raw); {
		var vals [4]uint64
		for i := range vals {
			v, n, err := bitutil.Uvarint(raw[off:])
			if err != nil {
				return fmt.Errorf("logblock: manifest record at %d: %w", off, err)
			}
			vals[i] = v
			off += n
		}
		rec := record{vals[0], vals[1], vals[2], vals[3]}
		if rec.size == 0 || rec.size > limit {
			return fmt.Errorf("logblock: manifest part of %d bytes in %d", rec.size, limit)
		}
		if rec.col >= 1<<32 || rec.blk >= 1<<32 {
			return fmt.Errorf("logblock: manifest part at column %d, block %d", rec.col, rec.blk)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// decodeManifest decodes the manifest raw of an object whose parts fill
// [0, partsEnd). The parts must tile that range exactly, with one meta
// part, every column's every block, and at most one index per column;
// the slices it allocates are bounded by the record count, and so by
// len(raw).
func decodeManifest(raw []byte, partsEnd int64) (*Manifest, error) {
	// First pass: check the tiling and find the geometry.
	var nData, nMeta, cols, blocks, indexCols, sum uint64
	limit := uint64(partsEnd)
	err := forEachRecord(raw, limit, func(r record) error {
		switch r.kind {
		case kindData:
			nData++
			cols, blocks = max(cols, r.col+1), max(blocks, r.blk+1)
		case kindIndex:
			indexCols = max(indexCols, r.col+1)
		case kindMeta:
			nMeta++
		default:
			return fmt.Errorf("logblock: manifest part kind %d unknown", r.kind)
		}
		if sum += r.size; sum > limit {
			return fmt.Errorf("logblock: manifest parts run past %d bytes", partsEnd)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	switch {
	case sum != limit:
		return nil, fmt.Errorf("logblock: manifest parts cover %d of %d bytes", sum, partsEnd)
	case nMeta != 1:
		return nil, fmt.Errorf("logblock: manifest has %d meta parts", nMeta)
	case cols > nData || blocks > nData || cols*blocks != nData:
		return nil, fmt.Errorf("logblock: %d data parts do not fill %d columns of %d blocks", nData, cols, blocks)
	case indexCols > cols:
		return nil, fmt.Errorf("logblock: index of column %d beyond %d columns", indexCols-1, cols)
	}

	// Second pass: place every part.
	m := &Manifest{Index: make([]Extent, cols), Data: make([]Extent, nData), NumBlocks: int(blocks)}
	var off int64
	err = forEachRecord(raw, limit, func(r record) error {
		ext := Extent{Offset: off, Size: int64(r.size)}
		off += ext.Size
		slot := &m.Meta
		switch r.kind {
		case kindData:
			slot = &m.Data[r.col*blocks+r.blk]
		case kindIndex:
			slot = &m.Index[r.col]
		}
		if *slot != (Extent{}) {
			return fmt.Errorf("logblock: manifest states part %d/%d/%d twice", r.kind, r.col, r.blk)
		}
		*slot = ext
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}
