package ship

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"logstore/internal/bitutil"
	"logstore/internal/raft"
)

// Object formats. A generation is self-contained: one snapshot object
// plus a run of chunk objects, each committed by a small commit record
// written after the chunk (register-last, like the archive pipeline's
// catalog). The commit record carries the chunk's exact length and
// CRC, so a chunk an object store persisted truncated mid-record —
// while still acking the Put — is detected on hydration instead of
// silently shortening the log.
//
//	snap        := magic "LSSNAP1\n"
//	               uvarint(term) uvarint(applied) uvarint(appliedTerm)
//	               uvarint(ndedup) { 8B-LE id }*
//	               uvarint(nentries) { entry }*
//	               4B-LE crc32c(all preceding bytes)
//	chunk-<seq>  := magic "LSCHNK1\n" uvarint(nentries) { entry }*
//	commit-<seq> := JSON {first, last, bytes, crc}
//
// entry is raft.Entry.AppendTo (uvarint term, uvarint index,
// len-prefixed data).

var (
	snapMagic  = []byte("LSSNAP1\n")
	chunkMagic = []byte("LSCHNK1\n")
	crcTable   = crc32.MakeTable(crc32.Castagnoli)
)

// minEntryBytes is the smallest encoded entry (one byte each of term,
// index and data length): an entry count above the remaining bytes over
// it is corrupt, and is refused before anything is allocated for it.
const minEntryBytes = 3

// State is the logical shard state a snapshot carries — everything a
// wiped worker needs beyond the archived LogBlocks: the raft term, the
// durable applied mark (rows at or below it are archived to OSS), the
// duplicate-suppression ids of batches applied at or below that mark,
// and the live log entries above it.
type State struct {
	Term        uint64
	Applied     uint64
	AppliedTerm uint64
	DedupIDs    []uint64
	Entries     []raft.Entry
}

// Tip is the highest log index the state covers (the applied mark when
// no live entries ride along).
func (st State) Tip() uint64 {
	if n := len(st.Entries); n > 0 {
		return st.Entries[n-1].Index
	}
	return st.Applied
}

// encodeSnap serializes a snapshot object.
func encodeSnap(st State) []byte {
	out := append([]byte(nil), snapMagic...)
	out = bitutil.AppendUvarint(out, st.Term)
	out = bitutil.AppendUvarint(out, st.Applied)
	out = bitutil.AppendUvarint(out, st.AppliedTerm)
	out = bitutil.AppendUvarint(out, uint64(len(st.DedupIDs)))
	for _, id := range st.DedupIDs {
		out = binary.LittleEndian.AppendUint64(out, id)
	}
	out = bitutil.AppendUvarint(out, uint64(len(st.Entries)))
	for _, e := range st.Entries {
		out = e.AppendTo(out)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// decodeSnap reverses encodeSnap, verifying the trailing CRC first so a
// torn or corrupt snapshot errors instead of hydrating a short state.
func decodeSnap(data []byte) (State, error) {
	var st State
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return st, fmt.Errorf("ship: not a snapshot object")
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != want {
		return st, fmt.Errorf("ship: snapshot CRC mismatch")
	}
	off := len(snapMagic)
	read := func() (uint64, error) {
		v, n, err := bitutil.Uvarint(body[off:])
		off += n
		return v, err
	}
	var err error
	if st.Term, err = read(); err != nil {
		return st, fmt.Errorf("ship: snapshot term: %w", err)
	}
	if st.Applied, err = read(); err != nil {
		return st, fmt.Errorf("ship: snapshot applied: %w", err)
	}
	if st.AppliedTerm, err = read(); err != nil {
		return st, fmt.Errorf("ship: snapshot applied term: %w", err)
	}
	ndedup, err := read()
	if err != nil {
		return st, fmt.Errorf("ship: snapshot dedup count: %w", err)
	}
	if ndedup > uint64(len(body)-off)/8 {
		return st, fmt.Errorf("ship: implausible dedup count %d", ndedup)
	}
	st.DedupIDs = make([]uint64, 0, ndedup)
	for i := uint64(0); i < ndedup; i++ {
		st.DedupIDs = append(st.DedupIDs, binary.LittleEndian.Uint64(body[off:]))
		off += 8
	}
	nentries, err := read()
	if err != nil {
		return st, fmt.Errorf("ship: snapshot entry count: %w", err)
	}
	if nentries > uint64(len(body)-off)/minEntryBytes {
		return st, fmt.Errorf("ship: implausible entry count %d", nentries)
	}
	st.Entries = make([]raft.Entry, 0, nentries)
	for i := uint64(0); i < nentries; i++ {
		e, n, err := raft.DecodeEntry(body[off:])
		if err != nil {
			return st, fmt.Errorf("ship: snapshot entry %d: %w", i, err)
		}
		off += n
		st.Entries = append(st.Entries, e)
	}
	return st, nil
}

// encodeChunk serializes one run of committed entries.
func encodeChunk(entries []raft.Entry) []byte {
	out := append([]byte(nil), chunkMagic...)
	out = bitutil.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = e.AppendTo(out)
	}
	return out
}

// decodeChunk reverses encodeChunk.
func decodeChunk(data []byte) ([]raft.Entry, error) {
	if len(data) < len(chunkMagic) || string(data[:len(chunkMagic)]) != string(chunkMagic) {
		return nil, fmt.Errorf("ship: not a chunk object")
	}
	off := len(chunkMagic)
	n, c, err := bitutil.Uvarint(data[off:])
	if err != nil {
		return nil, fmt.Errorf("ship: chunk entry count: %w", err)
	}
	off += c
	if n > uint64(len(data)-off)/minEntryBytes {
		return nil, fmt.Errorf("ship: implausible chunk entry count %d", n)
	}
	entries := make([]raft.Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		e, c, err := raft.DecodeEntry(data[off:])
		if err != nil {
			return nil, fmt.Errorf("ship: chunk entry %d: %w", i, err)
		}
		off += c
		entries = append(entries, e)
	}
	return entries, nil
}

// commitRecord is the register-last metadata of one chunk: the exact
// size and checksum the chunk must have, the index range it covers
// (First/Last zero for an empty mark-only chunk), and the archive
// checkpoint at ship time. Mark lets hydration advance the applied
// mark past the snapshot's, so rows archived into LogBlocks after the
// snapshot are not re-applied as resident.
type commitRecord struct {
	First uint64 `json:"first"`
	Last  uint64 `json:"last"`
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc"`
	Mark  uint64 `json:"mark"`
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

func chunkKey(shard int64, gen, seq uint64) string {
	return fmt.Sprintf("%schunk-%08d", GenPrefix(shard, gen), seq)
}

func commitKey(shard int64, gen, seq uint64) string {
	return fmt.Sprintf("%scommit-%08d", GenPrefix(shard, gen), seq)
}
