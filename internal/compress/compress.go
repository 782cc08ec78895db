// Package compress implements the pluggable block-compression codecs used
// by the LogBlock format.
//
// The paper supports Snappy, LZ4, and ZSTD, preferring ZSTD because the
// compression ratio matters more than CPU when the bottleneck is the
// network path to object storage. Under the stdlib-only constraint this
// package substitutes:
//
//   - Zstd  → compress/flate at its default level (ratio-class codec),
//   - LZ4   → a from-scratch LZ77 byte-oriented codec (speed-class codec),
//   - None  → raw passthrough.
//
// Codec identifiers are persisted inside LogBlocks so archived data stays
// self-describing.
package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Codec identifies a compression algorithm in the on-disk format.
type Codec uint8

const (
	// Unspecified is the zero value; config structs treat it as "use the
	// default" and it is never valid on disk.
	Unspecified Codec = 0
	// None stores blocks uncompressed.
	None Codec = 1
	// LZ4 is the speed-oriented LZ77 codec (paper: LZ4/Snappy class).
	LZ4 Codec = 2
	// Zstd is the ratio-oriented codec (paper: ZSTD class), backed by
	// DEFLATE at its default level.
	Zstd Codec = 3
)

// Default is the codec LogStore uses unless configured otherwise; the
// paper defaults to ZSTD because ratio is preferred over CPU.
const Default = Zstd

// String returns the codec name as used in logs and tooling.
func (c Codec) String() string {
	switch c {
	case None:
		return "none"
	case LZ4:
		return "lz4"
	case Zstd:
		return "zstd"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec maps a codec name to its identifier.
func ParseCodec(name string) (Codec, error) {
	switch name {
	case "none", "raw":
		return None, nil
	case "lz4", "snappy":
		return LZ4, nil
	case "zstd", "flate", "deflate", "":
		return Zstd, nil
	default:
		return Unspecified, fmt.Errorf("compress: unknown codec %q", name)
	}
}

// flateLevel is the DEFLATE level of every Zstd block, whatever its
// size. On LogStore's string blocks level 6 takes under half the time
// of level 9 for output at most about 1 % larger, and DEFLATE streams
// of every level decode alike.
const flateLevel = flate.DefaultCompression

// freeFlateWriters recycles DEFLATE compressors. A flate.Writer owns
// several hundred KB of window and hash state, so constructing one per
// block dominated the archive path's allocations. It is a bounded free
// list rather than a sync.Pool because a collection empties a pool,
// and the next blocks would build their compressors again. Its bound
// is above the LogBlock builds a process runs at once at the default
// cluster size (one per shard draining, 12), each compressing one
// block at a time.
var freeFlateWriters = make(chan *flate.Writer, 16)

func getFlateWriter(dst io.Writer) *flate.Writer {
	select {
	case w := <-freeFlateWriters:
		w.Reset(dst)
		return w
	default:
		w, err := flate.NewWriter(dst, flateLevel)
		if err != nil {
			// flate.NewWriter only fails on invalid levels; flateLevel
			// is a constant, so this is unreachable.
			panic(fmt.Sprintf("compress: flate init: %v", err))
		}
		return w
	}
}

func putFlateWriter(w *flate.Writer) {
	select {
	case freeFlateWriters <- w:
	default:
	}
}

// appendSink is the io.Writer a compressor drains into: the caller's
// destination slice, grown by append.
type appendSink struct{ b []byte }

func (s *appendSink) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// flateReader bundles a recyclable DEFLATE decompressor with the
// bytes.Reader it drains, so a pooled decode allocates neither.
type flateReader struct {
	br bytes.Reader
	fr io.ReadCloser
}

var flateReaderPool = sync.Pool{New: func() any { return new(flateReader) }}

// Compress compresses src with the given codec and returns a fresh buffer.
func Compress(c Codec, src []byte) ([]byte, error) {
	return AppendCompress(nil, c, src)
}

// AppendCompress compresses src and appends the output to dst,
// returning the extended slice. The LogBlock builder passes the member
// buffer it is filling, so a column block is compressed in place
// instead of into a buffer of its own and copied.
func AppendCompress(dst []byte, c Codec, src []byte) ([]byte, error) {
	switch c {
	case None:
		return append(dst, src...), nil
	case LZ4:
		return lzCompressAppend(dst, src), nil
	case Zstd:
		sink := &appendSink{b: dst}
		w := getFlateWriter(sink)
		_, werr := w.Write(src)
		cerr := w.Close()
		putFlateWriter(w)
		if werr != nil {
			return nil, fmt.Errorf("compress: flate write: %w", werr)
		}
		if cerr != nil {
			return nil, fmt.Errorf("compress: flate close: %w", cerr)
		}
		return sink.b, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %d", c)
	}
}

// Decompress reverses Compress into a fresh buffer.
func Decompress(c Codec, src []byte) ([]byte, error) {
	return AppendDecompress(nil, c, src)
}

// AppendDecompress decompresses src and appends the output to dst,
// returning the extended slice. Scan paths pass recycled scratch
// buffers so steady-state block decode performs no payload allocation.
func AppendDecompress(dst []byte, c Codec, src []byte) ([]byte, error) {
	switch c {
	case None:
		return append(dst, src...), nil
	case LZ4:
		return lzDecompressAppend(dst, src)
	case Zstd:
		r := flateReaderPool.Get().(*flateReader)
		r.br.Reset(src)
		if r.fr == nil {
			r.fr = flate.NewReader(&r.br)
		} else if err := r.fr.(flate.Resetter).Reset(&r.br, nil); err != nil {
			flateReaderPool.Put(r)
			return nil, fmt.Errorf("compress: flate reset: %w", err)
		}
		out, err := readAppend(dst, r.fr)
		flateReaderPool.Put(r)
		if err != nil {
			return nil, fmt.Errorf("compress: flate decode: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %d", c)
	}
}

// readAppend drains r appending to dst, growing geometrically like
// io.ReadAll but into a caller-supplied (typically recycled) buffer.
func readAppend(dst []byte, r io.Reader) ([]byte, error) {
	if cap(dst)-len(dst) < 512 {
		grown := make([]byte, len(dst), max(cap(dst)*2, len(dst)+4096))
		copy(grown, dst)
		dst = grown
	}
	for {
		if len(dst) == cap(dst) {
			grown := make([]byte, len(dst), cap(dst)*2)
			copy(grown, dst)
			dst = grown
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
