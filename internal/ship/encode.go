package ship

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Object layout. A generation is self-contained: one snapshot object
// plus a run of chunk objects, each committed by a small commit record
// written after the chunk (register-last, like the archive pipeline's
// catalog). Snapshot and chunks hold a shard's log in the one shape it
// has on disk — WAL frames (wal.AppendFrame) of the records a
// raft.WALStorage replays — so hydration concatenates them, writes them
// back as a segment, and replays that as a restart replays its log.
//
//	snap         := frame(checkpoint: mark, dedup ids) { frame(entry) }*
//	snapcommit   := JSON {first, last, bytes, crc}
//	chunk-<seq>  := { frame(entry) }* [frame(checkpoint: mark)]
//	commit-<seq> := JSON {first, last, bytes, crc}
//
// A chunk carries the archive mark only when it moved since the last
// object. A commit record carries its object's exact length and CRC, so
// a snapshot or chunk an object store persisted truncated — on a frame
// boundary or not, while still acking the Put — is detected on
// hydration instead of silently shortening the log. The snapshot's
// record is written before the generation is registered; a snapshot
// that does not match it fails the hydration, while a chunk that does
// not match its record ends the committed run.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// commitRecord is the register-last metadata of one snapshot or chunk:
// the exact size and checksum the object must have, and the index range
// it covers (First/Last zero for a chunk that carries only a mark; a
// snapshot's record has only Last, its tip — its mark when it holds no
// entry).
type commitRecord struct {
	First uint64 `json:"first"`
	Last  uint64 `json:"last"`
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc"`
}

// commitOf is the record of object data, its index range not yet set.
func commitOf(data []byte) commitRecord {
	return commitRecord{Bytes: int64(len(data)), CRC: crc32.Checksum(data, crcTable)}
}

// matches reports whether data is the object rec commits.
func (rec commitRecord) matches(data []byte) bool {
	return int64(len(data)) == rec.Bytes && crc32.Checksum(data, crcTable) == rec.CRC
}

func encodeCommit(rec commitRecord) []byte {
	out, _ := json.Marshal(rec) // fixed shape: cannot fail
	return out
}

func decodeCommit(data []byte) (commitRecord, error) {
	var rec commitRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("ship: commit record: %w", err)
	}
	return rec, nil
}

func snapKey(shard int64, gen uint64) string {
	return GenPrefix(shard, gen) + "snap"
}

func snapCommitKey(shard int64, gen uint64) string {
	return GenPrefix(shard, gen) + "snapcommit"
}

func chunkKey(shard int64, gen, seq uint64) string {
	return fmt.Sprintf("%schunk-%08d", GenPrefix(shard, gen), seq)
}

func commitKey(shard int64, gen, seq uint64) string {
	return fmt.Sprintf("%scommit-%08d", GenPrefix(shard, gen), seq)
}
