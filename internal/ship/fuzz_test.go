package ship

import (
	"runtime/metrics"
	"testing"
)

// heapAllocBytes reads the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// FuzzShipDecode feeds arbitrary bytes to the one decoder of shipped
// objects this package keeps, the commit record's: snapshot and chunks
// are WAL frames, which the WAL's own replay reads (FuzzWALReplay,
// FuzzWALStorageReplay). It must error or decode, never panic, and
// never allocate more than a fixed multiple of the input; whatever
// decodes must re-encode into a record that decodes to the same value.
// The seeds (cmd/fuzzseed) are a shipper's real commit record and a
// damaged copy.
func FuzzShipDecode(f *testing.F) {
	f.Add(encodeCommit(commitRecord{First: 5, Last: 7, Bytes: 38, CRC: 0xdeadbeef}))
	f.Add(encodeCommit(commitRecord{Bytes: 12, CRC: 7}))              // a chunk that carries only a mark
	f.Add([]byte(`{"first":5,"last":7,"bytes":38,"crc":1,"mark":4}`)) // a record written with the archive mark
	f.Fuzz(func(t *testing.T, data []byte) {
		before := heapAllocBytes()
		rec, err := decodeCommit(data)
		// The constant is the allocator's per-span accounting and the
		// JSON decoder's fixed state.
		if grew, bound := heapAllocBytes()-before, uint64(64*len(data)+1<<20); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(data), grew, bound)
		}
		if err == nil {
			again, err := decodeCommit(encodeCommit(rec))
			if err != nil || again != rec {
				t.Fatalf("commit %+v re-decodes as %+v, %v", rec, again, err)
			}
		}
	})
}
