package logblock

import (
	"fmt"
	"strings"
	"sync"

	"logstore/internal/bitutil"
	"logstore/internal/compress"
	"logstore/internal/schema"
)

// Typed column vectors: the unboxed decoded form of one column block.
// Decode produces []int64 / string-arena extents instead of boxed
// []schema.Value, so the scan kernels touch flat memory, and a decoded
// vector is immutable and safe to share through the decoded-vector
// cache level across queries.

// Int64Vector holds a decoded int64 column block.
type Int64Vector struct {
	Vals []int64
}

// Len returns the row count.
func (v *Int64Vector) Len() int { return len(v.Vals) }

// StringVector holds a decoded string column block: per-row extents
// into one immutable string arena. For dictionary-encoded blocks the
// arena stores each distinct value once and rows share extents,
// preserving the dictionary's compactness in decoded form.
type StringVector struct {
	Arena  string
	Starts []uint32
	Lens   []uint32
}

// Len returns the row count.
func (v *StringVector) Len() int { return len(v.Starts) }

// Value returns row i's value as a substring of the arena: no copy, and
// safe to keep — a kept value keeps the whole arena alive, not the
// cache entry.
func (v *StringVector) Value(i int) string {
	s := v.Starts[i]
	return v.Arena[s : s+v.Lens[i]]
}

// Vector is one decoded column block: exactly one of Ints/Strs is set,
// according to Type, plus the block's validity bitset.
type Vector struct {
	Type  schema.ColumnType
	Ints  *Int64Vector
	Strs  *StringVector
	Valid *bitutil.Bitset
}

// Len returns the row count.
func (v *Vector) Len() int {
	if v.Type == schema.Int64 {
		return v.Ints.Len()
	}
	return v.Strs.Len()
}

// Value boxes row i into a schema.Value (string rows are arena
// substrings). Bulk paths should use the typed slices directly.
func (v *Vector) Value(i int) schema.Value {
	if v.Type == schema.Int64 {
		return schema.IntValue(v.Ints.Vals[i])
	}
	return schema.StringValue(v.Strs.Value(i))
}

// SizeBytes estimates the vector's resident size for cache accounting.
func (v *Vector) SizeBytes() int64 {
	const overhead = 96 // structs, slice headers, bitset header
	n := int64(overhead)
	if v.Valid != nil {
		n += int64((v.Valid.Len()+63)/64) * 8
	}
	if v.Ints != nil {
		n += int64(len(v.Ints.Vals)) * 8
	}
	if v.Strs != nil {
		n += int64(len(v.Strs.Arena)) + int64(len(v.Strs.Starts))*8
	}
	return n
}

// payloadScratch recycles decompression buffers across block decodes:
// the decompressed payload is transient (its bytes are copied into the
// vector's typed slices and string arena), so steady-state decode
// reuses one buffer.
var payloadScratch = sync.Pool{New: func() any { return new([]byte) }}

// DecodeBlockVector decodes one raw data member into a typed vector:
// len-prefixed validity bitset, one encoding byte, one codec byte,
// then the codec-compressed value payload.
func DecodeBlockVector(m *Meta, col, bi int, raw []byte) (*Vector, error) {
	bsRaw, n, err := bitutil.LenBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("logblock: block %d/%d bitset: %w", col, bi, err)
	}
	valid, err := bitutil.BitsetFromBytes(bsRaw)
	if err != nil {
		return nil, fmt.Errorf("logblock: block %d/%d bitset: %w", col, bi, err)
	}
	if n+1 >= len(raw) {
		return nil, fmt.Errorf("logblock: block %d/%d missing encoding/codec bytes", col, bi)
	}
	encoding := raw[n]
	codec := compress.Codec(raw[n+1])

	sp := payloadScratch.Get().(*[]byte)
	payload, derr := compress.AppendDecompress((*sp)[:0], codec, raw[n+2:])
	defer func() {
		*sp = payload[:0]
		payloadScratch.Put(sp)
	}()
	if derr != nil {
		return nil, fmt.Errorf("logblock: block %d/%d payload: %w", col, bi, derr)
	}
	rowCount := m.Columns[col].Blocks[bi].RowCount
	// Every encoded row costs at least one payload byte, so a row count
	// beyond the decompressed payload is corrupt; rejecting here keeps a
	// hostile meta from driving the allocations below.
	if rowCount > len(payload) {
		return nil, fmt.Errorf("logblock: block %d/%d row count %d exceeds %d payload bytes", col, bi, rowCount, len(payload))
	}
	typ := m.Schema.Columns[col].Type

	vec := &Vector{Type: typ, Valid: valid}
	switch {
	case encoding == encodingDict:
		if typ != schema.String {
			return nil, fmt.Errorf("logblock: block %d/%d dict-encoded non-string column", col, bi)
		}
		sv, err := decodeStringDictVector(payload, rowCount)
		if err != nil {
			return nil, fmt.Errorf("logblock: block %d/%d: %w", col, bi, err)
		}
		vec.Strs = sv
	case encoding != encodingPlain:
		return nil, fmt.Errorf("logblock: block %d/%d has unknown encoding %d", col, bi, encoding)
	case typ == schema.Int64:
		vals := make([]int64, 0, rowCount)
		off := 0
		for i := 0; i < rowCount; i++ {
			v, c, err := bitutil.Varint(payload[off:])
			if err != nil {
				return nil, fmt.Errorf("logblock: block %d/%d value %d: %w", col, bi, i, err)
			}
			off += c
			vals = append(vals, v)
		}
		if off != len(payload) {
			return nil, fmt.Errorf("logblock: block %d/%d has %d trailing bytes", col, bi, len(payload)-off)
		}
		vec.Ints = &Int64Vector{Vals: vals}
	default:
		sv, err := decodeStringPlainVector(payload, rowCount)
		if err != nil {
			return nil, fmt.Errorf("logblock: block %d/%d: %w", col, bi, err)
		}
		vec.Strs = sv
	}
	return vec, nil
}

// decodeStringPlainVector decodes concatenated len-prefixed strings,
// copying the bytes once into the vector's string arena (the payload is
// recycled).
func decodeStringPlainVector(payload []byte, rowCount int) (*StringVector, error) {
	sv := &StringVector{
		Starts: make([]uint32, 0, rowCount),
		Lens:   make([]uint32, 0, rowCount),
	}
	var arena strings.Builder
	arena.Grow(len(payload))
	off := 0
	for i := 0; i < rowCount; i++ {
		b, c, err := bitutil.LenBytes(payload[off:])
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		off += c
		sv.Starts = append(sv.Starts, uint32(arena.Len()))
		sv.Lens = append(sv.Lens, uint32(len(b)))
		arena.Write(b)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("block has %d trailing bytes", len(payload)-off)
	}
	sv.Arena = arena.String()
	return sv, nil
}

// decodeStringDictVector decodes a dictionary block: distinct values
// land in the arena once; each row's extent points at its dict entry.
func decodeStringDictVector(payload []byte, rowCount int) (*StringVector, error) {
	n, off, err := bitutil.Uvarint(payload)
	if err != nil {
		return nil, fmt.Errorf("dict size: %w", err)
	}
	if n > maxDictEntries || n > uint64(len(payload)) {
		return nil, fmt.Errorf("implausible dict size %d", n)
	}
	dictStarts := make([]uint32, n)
	dictLens := make([]uint32, n)
	var arena strings.Builder
	arena.Grow(len(payload))
	for i := uint64(0); i < n; i++ {
		b, c, err := bitutil.LenBytes(payload[off:])
		if err != nil {
			return nil, fmt.Errorf("dict entry %d: %w", i, err)
		}
		off += c
		dictStarts[i] = uint32(arena.Len())
		dictLens[i] = uint32(len(b))
		arena.Write(b)
	}
	sv := &StringVector{
		Arena:  arena.String(),
		Starts: make([]uint32, 0, rowCount),
		Lens:   make([]uint32, 0, rowCount),
	}
	for i := 0; i < rowCount; i++ {
		idx, c, err := bitutil.Uvarint(payload[off:])
		if err != nil {
			return nil, fmt.Errorf("dict index %d: %w", i, err)
		}
		off += c
		if idx >= n {
			return nil, fmt.Errorf("dict index %d out of range %d", idx, n)
		}
		sv.Starts = append(sv.Starts, dictStarts[idx])
		sv.Lens = append(sv.Lens, dictLens[idx])
	}
	if off != len(payload) {
		return nil, fmt.Errorf("dict block has %d trailing bytes", len(payload)-off)
	}
	return sv, nil
}
