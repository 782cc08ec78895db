package compress

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

var allCodecs = []Codec{None, LZ4, Zstd}

func TestRoundTripFixed(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("a"),
		[]byte("abc"),
		[]byte("abcd"),
		[]byte("hello hello hello hello hello"),
		bytes.Repeat([]byte("x"), 100000),
		bytes.Repeat([]byte("abcdefgh"), 5000),
		[]byte(strings.Repeat("GET /api/v1/query?tenant=42 latency=13ms status=200\n", 2000)),
	}
	for _, c := range allCodecs {
		for i, in := range cases {
			got, err := Compress(c, in)
			if err != nil {
				t.Fatalf("%v case %d: compress: %v", c, i, err)
			}
			back, err := Decompress(c, got)
			if err != nil {
				t.Fatalf("%v case %d: decompress: %v", c, i, err)
			}
			if !bytes.Equal(back, in) {
				t.Fatalf("%v case %d: round trip mismatch (%d vs %d bytes)", c, i, len(back), len(in))
			}
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range allCodecs {
		for trial := 0; trial < 30; trial++ {
			n := rng.Intn(20000)
			in := make([]byte, n)
			// Mix of random and repetitive content.
			if trial%2 == 0 {
				rng.Read(in)
			} else {
				pat := make([]byte, 1+rng.Intn(64))
				rng.Read(pat)
				for i := range in {
					in[i] = pat[i%len(pat)]
				}
			}
			got, err := Compress(c, in)
			if err != nil {
				t.Fatalf("%v: compress: %v", c, err)
			}
			back, err := Decompress(c, got)
			if err != nil {
				t.Fatalf("%v: decompress: %v", c, err)
			}
			if !bytes.Equal(back, in) {
				t.Fatalf("%v: round trip mismatch", c)
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, c := range allCodecs {
		c := c
		f := func(in []byte) bool {
			got, err := Compress(c, in)
			if err != nil {
				return false
			}
			back, err := Decompress(c, got)
			return err == nil && bytes.Equal(back, in)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

func TestCompressionRatioOnLogs(t *testing.T) {
	// Repetitive log data must compress well with both real codecs, and
	// Zstd (ratio-class) should beat LZ4 (speed-class).
	rng := rand.New(rand.NewSource(3))
	var sb strings.Builder
	hex := "0123456789abcdef"
	for i := 0; i < 5000; i++ {
		sb.WriteString("2020-11-11 00:00:01 tenant=")
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(" trace=")
		for j := 0; j < 16; j++ {
			sb.WriteByte(hex[rng.Intn(16)])
		}
		sb.WriteString(" ip=192.168.0.1 method=GET path=/api/v1/items latency=12 fail=false\n")
	}
	in := []byte(sb.String())
	lz, err := Compress(LZ4, in)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := Compress(Zstd, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(lz) >= len(in)/2 {
		t.Errorf("LZ4-class ratio too poor: %d -> %d", len(in), len(lz))
	}
	// With high-entropy fields in the mix, the entropy-coding codec must
	// win on ratio (the paper's reason for preferring ZSTD).
	if len(zs) >= len(lz) {
		t.Errorf("Zstd-class (%d bytes) should beat LZ4-class (%d bytes) on ratio", len(zs), len(lz))
	}
}

func TestDecompressCorrupt(t *testing.T) {
	in := []byte(strings.Repeat("log line content ", 100))
	for _, c := range []Codec{LZ4, Zstd} {
		comp, err := Compress(c, in)
		if err != nil {
			t.Fatal(err)
		}
		// Truncations must either error or still produce the exact
		// original (a cut that only removes a trailing no-op); silent
		// corruption — nil error with wrong bytes — is the failure mode.
		for _, cut := range []int{0, 1, len(comp) / 2, len(comp) - 1} {
			if cut >= len(comp) {
				continue
			}
			if out, err := Decompress(c, comp[:cut]); err == nil && !bytes.Equal(out, in) {
				t.Errorf("%v: truncation to %d bytes silently corrupted output", c, cut)
			}
		}
	}
	if _, err := Decompress(LZ4, nil); err == nil {
		t.Error("empty lz input should error")
	}
}

func TestLZBadOffset(t *testing.T) {
	// Hand-crafted stream: size=4, one sequence with 0 literals and a
	// match at offset 9 (beyond output) — must be rejected.
	bad := []byte{4, 0x00, 9, 0}
	if _, err := lzDecompress(bad); err == nil {
		t.Error("out-of-range offset should error")
	}
	// Offset zero is also invalid.
	bad = []byte{4, 0x00, 0, 0}
	if _, err := lzDecompress(bad); err == nil {
		t.Error("zero offset should error")
	}
}

func TestUnknownCodec(t *testing.T) {
	if _, err := Compress(Codec(99), []byte("x")); err == nil {
		t.Error("unknown codec compress should error")
	}
	if _, err := Decompress(Codec(99), []byte("x")); err == nil {
		t.Error("unknown codec decompress should error")
	}
}

func TestParseCodec(t *testing.T) {
	for name, want := range map[string]Codec{
		"none": None, "raw": None,
		"lz4": LZ4, "snappy": LZ4,
		"zstd": Zstd, "flate": Zstd, "deflate": Zstd, "": Zstd,
	} {
		got, err := ParseCodec(name)
		if err != nil || got != want {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseCodec("brotli"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestCodecString(t *testing.T) {
	for c, want := range map[Codec]string{None: "none", LZ4: "lz4", Zstd: "zstd"} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
	if got := Codec(7).String(); got != "codec(7)" {
		t.Errorf("unknown codec String() = %q", got)
	}
}

func TestLZOverlappingMatch(t *testing.T) {
	// RLE-style data forces overlapping matches (offset < matchLen).
	in := bytes.Repeat([]byte{0xAB}, 1000)
	comp := lzCompressAppend(nil, in)
	if len(comp) > 50 {
		t.Errorf("RLE data compressed to %d bytes, expected tiny output", len(comp))
	}
	back, err := lzDecompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, in) {
		t.Fatal("overlap round trip mismatch")
	}
}

var benchData = func() []byte {
	var sb strings.Builder
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		sb.WriteString("2020-11-11 00:00:01.123 INFO tenant=")
		sb.WriteString(string(rune('a' + rng.Intn(26))))
		sb.WriteString(" request served path=/api/v")
		sb.WriteString(string(rune('0' + rng.Intn(10))))
		sb.WriteString("/query latency_ms=")
		sb.WriteString(string(rune('0' + rng.Intn(10))))
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}()

func BenchmarkCompressLZ4(b *testing.B) {
	b.SetBytes(int64(len(benchData)))
	for i := 0; i < b.N; i++ {
		if _, err := Compress(LZ4, benchData); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressZstd(b *testing.B) {
	b.SetBytes(int64(len(benchData)))
	for i := 0; i < b.N; i++ {
		if _, err := Compress(Zstd, benchData); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressLZ4(b *testing.B) {
	comp, _ := Compress(LZ4, benchData)
	b.SetBytes(int64(len(benchData)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(LZ4, comp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressZstd(b *testing.B) {
	comp, _ := Compress(Zstd, benchData)
	b.SetBytes(int64(len(benchData)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(Zstd, comp); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendDecompress verifies the appending decode path: output lands
// after existing dst content, for every codec, including recycled
// buffers with spare capacity.
func TestAppendDecompress(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox")
	for _, c := range []Codec{None, LZ4, Zstd} {
		comp, err := Compress(c, payload)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		prefix := []byte("PREFIX")
		dst := append(make([]byte, 0, 1024), prefix...)
		out, err := AppendDecompress(dst, c, comp)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if string(out[:len(prefix)]) != string(prefix) {
			t.Fatalf("%v: prefix clobbered: %q", c, out[:len(prefix)])
		}
		if string(out[len(prefix):]) != string(payload) {
			t.Fatalf("%v: payload mismatch: %q", c, out[len(prefix):])
		}
		// Second decode into the recycled buffer must still be correct.
		out2, err := AppendDecompress(out[:0], c, comp)
		if err != nil {
			t.Fatalf("%v: recycled: %v", c, err)
		}
		if string(out2) != string(payload) {
			t.Fatalf("%v: recycled payload mismatch", c)
		}
	}
}

// TestAppendCompress verifies the appending encode path: the stream
// lands after existing dst content, is byte-identical to Compress's
// (archived parts are content-addressed), and a buffer with spare
// capacity is extended in place.
func TestAppendCompress(t *testing.T) {
	payload := []byte(strings.Repeat("GET /api/v1/query?tenant=42 latency=13ms status=200\n", 40))
	for _, c := range allCodecs {
		want, err := Compress(c, payload)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		prefix := []byte("PREFIX")
		for _, dst := range [][]byte{bytes.Clone(prefix), append(make([]byte, 0, 1<<16), prefix...)} {
			out, err := AppendCompress(dst, c, payload)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			if !bytes.HasPrefix(out, prefix) || !bytes.Equal(out[len(prefix):], want) {
				t.Fatalf("%v: appended stream differs from Compress's (%d vs %d bytes)", c, len(out)-len(prefix), len(want))
			}
			if cap(dst) >= len(out) && &out[0] != &dst[0] {
				t.Fatalf("%v: reallocated a buffer with room for the stream", c)
			}
		}
	}
}

// TestCompressPooledReuse runs compress/decompress cycles concurrently
// to shake races out of the pooled flate writer/reader state.
func TestCompressPooledReuse(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh12345678"), 512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				comp, err := Compress(Zstd, payload)
				if err != nil {
					t.Error(err)
					return
				}
				out, err := Decompress(Zstd, comp)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(out, payload) {
					t.Error("roundtrip mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
}
