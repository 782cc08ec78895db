package inverted

import (
	"encoding/binary"
	"strings"
	"testing"

	"logstore/internal/bitutil"
)

// TestOpenCorrupt covers the framing checks in Open and OpenLegacy:
// anything whose term count or offset table cannot physically exist
// must be rejected.
func TestOpenCorrupt(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 0}},
		{"offset table truncated", func() []byte {
			out := make([]byte, 4)
			bitutil.PutUint32(out, 100) // 100 terms, zero table bytes
			return out
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(tc.data); err == nil {
				t.Fatal("Open accepted corrupt input")
			}
			if _, err := OpenLegacy(tc.data); err == nil {
				t.Fatal("OpenLegacy accepted corrupt input")
			}
		})
	}
	// The front-coded header: a term count the bytes behind it could
	// not hold, and one whose restart table is cut.
	for name, data := range map[string][]byte{
		"term count beyond input": bitutil.AppendUvarint(nil, 1<<40),
		"five bytes per term":     append(bitutil.AppendUvarint(nil, 3), make([]byte, 14)...),
		"restart table truncated": append(bitutil.AppendUvarint(nil, 17), make([]byte, 85+7)...),
	} {
		if _, err := Open(data); err == nil {
			t.Errorf("%s: Open accepted corrupt input", name)
		}
	}
}

// frontCoded frames hand-made entries as a front-coded index with one
// restart point per restartInterval entries at the given offsets.
func frontCoded(n int, restarts []uint32, entries []byte) []byte {
	out := bitutil.AppendUvarint(nil, uint64(n))
	for _, r := range restarts {
		out = binary.LittleEndian.AppendUint32(out, r)
	}
	return append(out, entries...)
}

// entry encodes one front-coded dictionary entry.
func entry(shared int, suffix string, kind int, post []byte) []byte {
	out := bitutil.AppendUvarint(nil, uint64(shared))
	out = bitutil.AppendLenString(out, suffix)
	out = bitutil.AppendUvarint(out, uint64(len(post))<<1|uint64(kind))
	return append(out, post...)
}

// TestLookupCorrupt opens indexes whose framing is fine but whose
// dictionary entries lie, and checks the lookup paths surface errors.
func TestLookupCorrupt(t *testing.T) {
	// One term whose offset points past the entries region.
	badOffset := make([]byte, 8)
	bitutil.PutUint32(badOffset[0:4], 1)
	bitutil.PutUint32(badOffset[4:8], 500)
	ix, err := OpenLegacy(badOffset)
	if err != nil {
		t.Fatalf("framing is valid: %v", err)
	}
	if _, err := ix.Lookup("x"); err == nil {
		t.Fatal("Lookup accepted an entry offset beyond the entries region")
	}
	if _, err := ix.LookupPrefix("x", 8); err == nil {
		t.Fatal("LookupPrefix accepted an entry offset beyond the entries region")
	}

	// One term whose posting count exceeds the remaining bytes.
	var entries []byte
	entries = bitutil.AppendLenString(entries, "a")
	entries = bitutil.AppendUvarint(entries, 1<<40)
	huge := make([]byte, 8)
	bitutil.PutUint32(huge[0:4], 1)
	bitutil.PutUint32(huge[4:8], 0)
	huge = append(huge, entries...)
	ix, err = OpenLegacy(huge)
	if err != nil {
		t.Fatalf("framing is valid: %v", err)
	}
	if _, err := ix.Lookup("a"); err == nil {
		t.Fatal("Lookup accepted an implausible posting count")
	}

	// A term whose length prefix runs past the input.
	var torn []byte
	torn = bitutil.AppendUvarint(torn, 1000) // length 1000, no bytes behind it
	tornIdx := make([]byte, 8)
	bitutil.PutUint32(tornIdx[0:4], 1)
	bitutil.PutUint32(tornIdx[4:8], 0)
	tornIdx = append(tornIdx, torn...)
	ix, err = OpenLegacy(tornIdx)
	if err != nil {
		t.Fatalf("framing is valid: %v", err)
	}
	if _, err := ix.Lookup("a"); err == nil {
		t.Fatal("Lookup accepted an oversized term length field")
	}
}

// TestFrontCodedLookupCorrupt does the same for the front-coded
// encoding: each damaged dictionary must fail the lookups that reach
// the damage, never answer from it.
func TestFrontCodedLookupCorrupt(t *testing.T) {
	ab := entry(0, "ab", postDeltas, []byte{0})
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"restart offset beyond the entries",
			frontCoded(1, []uint32{500}, append(ab, 0, 0)), "out of range"},
		{"restart shares a prefix",
			frontCoded(1, []uint32{0}, entry(1, "b", postDeltas, []byte{0, 0})), "shares 1 bytes"},
		{"shared prefix longer than the term before",
			frontCoded(2, []uint32{0}, append(ab, entry(3, "c", postDeltas, []byte{1})...)), "shares 3 bytes with a 2-byte term"},
		{"suffix beyond the input",
			frontCoded(1, []uint32{0}, []byte{0, 40, 'a', 2, 0}), "term"},
		{"postings beyond the input",
			frontCoded(1, []uint32{0}, []byte{0, 1, 'a', 0x7e, 0}), "postings of 63 bytes"},
		{"torn delta list",
			frontCoded(1, []uint32{0}, entry(0, "a", postDeltas, []byte{1, 0x80, 0x80})), "posting"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := Open(tc.data)
			if err != nil {
				t.Fatalf("framing is valid: %v", err)
			}
			probe := "b"
			if strings.Contains(tc.name, "delta") {
				probe = "a"
			}
			var errs []error
			_, err = ix.Lookup(probe)
			errs = append(errs, err)
			_, err = ix.LookupBitset(probe, 8)
			errs = append(errs, err)
			_, err = ix.LookupPrefix(probe, 8)
			errs = append(errs, err)
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("lookup %d: error %v, want one mentioning %q", i, err, tc.want)
				}
			}
		})
	}
}
