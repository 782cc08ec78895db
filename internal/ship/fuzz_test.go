package ship

import (
	"reflect"
	"runtime/metrics"
	"testing"
)

// heapAllocBytes reads the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// FuzzShipDecode feeds arbitrary bytes to the three decoders hydration
// reads shipped objects with: snapshot, chunk and commit record. Each
// must error or decode, never panic, and never allocate more than a
// fixed multiple of the input — a length field is bounded by the bytes
// behind it before anything is sized from it. Whatever decodes must
// re-encode into an object that decodes to the same value. The seeds
// (cmd/fuzzseed) are a shipper's real objects and damaged copies.
func FuzzShipDecode(f *testing.F) {
	f.Add(encodeSnap(State{Term: 2, Applied: 4, AppliedTerm: 2, DedupIDs: []uint64{7, 9}, Entries: testEntries(3, 4)}))
	f.Add(encodeChunk(testEntries(5, 7)))
	f.Add(encodeCommit(commitRecord{First: 5, Last: 7, Bytes: 38, CRC: 0xdeadbeef, Mark: 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := heapAllocBytes()
		st, snapErr := decodeSnap(data)
		entries, chunkErr := decodeChunk(data)
		rec, commitErr := decodeCommit(data)
		// 64 B per input byte covers a 40 B entry per 3-byte minimum
		// encoding plus its copied data; the constant is the allocator's
		// per-span accounting and the JSON decoder's fixed state.
		if grew, bound := heapAllocBytes()-before, uint64(64*len(data)+1<<20); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(data), grew, bound)
		}
		if snapErr == nil {
			again, err := decodeSnap(encodeSnap(st))
			if err != nil || !reflect.DeepEqual(again, st) {
				t.Fatalf("snapshot %+v re-decodes as %+v, %v", st, again, err)
			}
		}
		if chunkErr == nil {
			again, err := decodeChunk(encodeChunk(entries))
			if err != nil || !reflect.DeepEqual(again, entries) {
				t.Fatalf("chunk %+v re-decodes as %+v, %v", entries, again, err)
			}
		}
		if commitErr == nil {
			again, err := decodeCommit(encodeCommit(rec))
			if err != nil || again != rec {
				t.Fatalf("commit %+v re-decodes as %+v, %v", rec, again, err)
			}
		}
	})
}
