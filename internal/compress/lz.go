package compress

import (
	"encoding/binary"
	"fmt"
)

// The LZ4-class codec: a from-scratch byte-oriented LZ77 compressor with
// an LZ4-style sequence format.
//
// A compressed stream is a uvarint decompressed size followed by a series
// of sequences. Each sequence is:
//
//	token      1 byte: high nibble = literal length, low nibble = match length - minMatch
//	           nibble value 15 means "extended": additional length bytes
//	           follow (each 255 continues, first byte < 255 terminates)
//	literals   <literal length> raw bytes
//	offset     2 bytes little-endian match distance (1..65535)
//	           (absent in the final sequence, which carries only literals)
//	extra match length bytes when the low nibble was 15
//
// The offset window is 64 KiB and matches are at least minMatch bytes, so
// the codec favours speed over ratio, mirroring LZ4's design point.

const (
	lzMinMatch   = 4
	lzWindowSize = 1 << 16
	lzHashBits   = 14
)

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

// appendLength emits an LZ4-style length: the nibble was already written
// into the token by the caller; this emits the extension bytes when the
// value did not fit in the nibble.
func appendLength(dst []byte, v int) []byte {
	if v < 15 {
		return dst
	}
	v -= 15
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

func lengthNibble(v int) byte {
	if v >= 15 {
		return 15
	}
	return byte(v)
}

// lzCompressAppend compresses src, appending the stream to dst. It
// never fails; incompressible data degrades to a literal-only stream
// slightly larger than the input.
func lzCompressAppend(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}

	// table maps a 4-byte hash to the last position it was seen at,
	// plus one, so the zero value means "never".
	var table [1 << lzHashBits]int32

	var (
		pos      int // current scan position
		litStart int // start of the pending literal run
	)

	emit := func(litEnd, matchPos, matchLen int) {
		litLen := litEnd - litStart
		token := lengthNibble(litLen) << 4
		if matchLen >= 0 {
			token |= lengthNibble(matchLen - lzMinMatch)
		}
		dst = append(dst, token)
		dst = appendLength(dst, litLen)
		dst = append(dst, src[litStart:litEnd]...)
		if matchLen >= 0 {
			offset := litEnd - matchPos
			dst = append(dst, byte(offset), byte(offset>>8))
			dst = appendLength(dst, matchLen-lzMinMatch)
		}
	}

	limit := len(src) - lzMinMatch
	for pos <= limit {
		v := binary.LittleEndian.Uint32(src[pos:])
		h := lzHash(v)
		cand := table[h] - 1
		table[h] = int32(pos) + 1
		if cand >= 0 && pos-int(cand) < lzWindowSize &&
			binary.LittleEndian.Uint32(src[cand:]) == v {
			// Extend the match forward.
			matchLen := lzMinMatch
			for pos+matchLen < len(src) && src[int(cand)+matchLen] == src[pos+matchLen] {
				matchLen++
			}
			emit(pos, int(cand), matchLen)
			pos += matchLen
			litStart = pos
			continue
		}
		pos++
	}
	// Final literal-only sequence (may be empty literals, still emitted so
	// the decoder knows the stream ended on literals).
	emit(len(src), 0, -1)
	return dst
}

// lzDecompress reverses lzCompressAppend.
func lzDecompress(src []byte) ([]byte, error) {
	return lzDecompressAppend(nil, src)
}

// lzDecompressAppend reverses lzCompressAppend, appending the decompressed
// bytes to dst. Match offsets are relative to the current output
// position, so decoding is position-independent of any prior content.
func lzDecompressAppend(dst, src []byte) ([]byte, error) {
	size, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("compress: lz: bad size header")
	}
	src = src[n:]
	// One input byte yields at most 255 output bytes (a maximal length
	// extension), so any size header beyond that is corrupt. Checking
	// before the allocation keeps arbitrary input from provoking a huge
	// make().
	if size > uint64(len(src))*255 {
		return nil, fmt.Errorf("compress: lz: size header %d exceeds max expansion of %d input bytes", size, len(src))
	}
	base := len(dst)
	if cap(dst)-base < int(size) {
		grown := make([]byte, base, base+int(size))
		copy(grown, dst)
		dst = grown
	}

	readLength := func(nibble byte) (int, error) {
		v := int(nibble)
		if nibble != 15 {
			return v, nil
		}
		for {
			if len(src) == 0 {
				return 0, fmt.Errorf("compress: lz: truncated length")
			}
			b := src[0]
			src = src[1:]
			v += int(b)
			if b != 255 {
				return v, nil
			}
		}
	}

	for uint64(len(dst)-base) < size {
		if len(src) == 0 {
			return nil, fmt.Errorf("compress: lz: truncated stream")
		}
		token := src[0]
		src = src[1:]
		litLen, err := readLength(token >> 4)
		if err != nil {
			return nil, err
		}
		if litLen > len(src) {
			return nil, fmt.Errorf("compress: lz: literal run of %d exceeds input", litLen)
		}
		dst = append(dst, src[:litLen]...)
		src = src[litLen:]
		if uint64(len(dst)-base) >= size {
			break
		}
		if len(src) < 2 {
			return nil, fmt.Errorf("compress: lz: truncated offset")
		}
		offset := int(src[0]) | int(src[1])<<8
		src = src[2:]
		matchLen, err := readLength(token & 0x0F)
		if err != nil {
			return nil, err
		}
		matchLen += lzMinMatch
		if offset == 0 || offset > len(dst)-base {
			return nil, fmt.Errorf("compress: lz: bad offset %d at output %d", offset, len(dst))
		}
		// Byte-by-byte copy: overlapping matches (offset < matchLen) are
		// the RLE case and must self-reference the bytes being appended.
		start := len(dst) - offset
		for i := 0; i < matchLen; i++ {
			dst = append(dst, dst[start+i])
		}
	}
	if uint64(len(dst)-base) != size {
		return nil, fmt.Errorf("compress: lz: size mismatch: got %d, want %d", len(dst)-base, size)
	}
	return dst, nil
}
