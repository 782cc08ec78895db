package compress

import (
	"bytes"
	"testing"
)

// FuzzLZRoundTrip drives the LZ codec from both directions: every input
// must compress and decompress back to itself, and arbitrary bytes fed
// to the decoder must produce an error or a bounded output — never a
// panic or an unbounded allocation. The public Compress/Decompress API
// is exercised for every codec so the DEFLATE path gets the same
// treatment.
func FuzzLZRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("a"))
	f.Add([]byte("hello hello hello hello hello world"))
	f.Add(bytes.Repeat([]byte("abcd"), 300))
	f.Add(bytes.Repeat([]byte{0}, 1024))
	// A valid compressed stream, so mutations explore the decode format.
	f.Add(lzCompressAppend(nil, []byte("the quick brown fox jumps over the lazy dog")))
	// A size header far beyond the input: the classic allocation bomb.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		comp := lzCompressAppend(nil, data)
		got, err := lzDecompress(comp)
		if err != nil {
			t.Fatalf("decompress of own output failed: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("roundtrip mismatch: %d bytes in, %d bytes out", len(data), len(got))
		}

		// Arbitrary bytes as a compressed stream: error or success, no panic.
		if out, err := lzDecompress(data); err == nil && len(out) > 255*len(data) {
			t.Fatalf("decode of arbitrary input exceeded max expansion: %d from %d bytes", len(out), len(data))
		}

		if len(data) > 4096 {
			// DEFLATE at max compression on mutator-grown megabyte
			// inputs dominates wall clock without adding decoder
			// coverage; the full-size roundtrip above already ran.
			return
		}
		for _, c := range []Codec{None, LZ4, Zstd} {
			enc, err := Compress(c, data)
			if err != nil {
				t.Fatalf("%v compress: %v", c, err)
			}
			dec, err := Decompress(c, enc)
			if err != nil {
				t.Fatalf("%v decompress of own output: %v", c, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%v roundtrip mismatch", c)
			}
			_, _ = Decompress(c, data) // must not panic
		}
	})
}
