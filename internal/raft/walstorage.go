package raft

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"logstore/internal/bitutil"
	"logstore/internal/wal"
)

// WALStorage persists a shard's log in a segmented write-ahead log on
// disk, making the shard durable across process restarts: the log IS
// the WAL.
//
// Record encoding (one WAL record per mutation):
//
//	'E' entry              — Append (one record per entry; Entry.AppendTo)
//	'A' mark 0 [n id*n]    — Checkpoint: entries ≤ mark are archived.
//	                         The 0 is where older logs wrote the term of
//	                         the entry at the mark. The optional list is
//	                         the batch ids applied at or below the mark
//	                         (uvarint n, then n 8-byte little-endian ids),
//	                         written when the checkpoint unlinks segments
//
// and, written only by older code, read past or applied at replay:
//
//	'S' term vote          — the node's term (and once its vote)
//	'T' index              — drop entries ≥ index (a follower's repair)
//
// A shipped generation of the shard (internal/ship) is the same records
// in the same frames: a snapshot is a checkpoint record carrying ids,
// then the entries above its mark (AppendSnapshot); a chunk is entries,
// and a checkpoint record when the archive mark moved. Hydration writes
// them back as a segment and Open replays it as it replays a restart.
//
// Open replays the WAL to rebuild the logical state. WAL truncation is
// segment-granular and driven by the checkpoint task (Checkpoint).
type WALStorage struct {
	mu  sync.Mutex
	log *wal.Log
	// base is the highest durable checkpoint mark. Entries at or below
	// base were applied AND archived elsewhere before a checkpoint, so
	// the log has forgotten them: they are only reachable through the
	// archive.
	base uint64
	// entries is the live log above base (the WAL is the durable copy);
	// seqs[i] is the WAL sequence number of entries[i]'s record, used
	// by Checkpoint to recycle old segments safely.
	entries []Entry
	seqs    []uint64
	// ids and prefix are what Open learned of the archived batches —
	// the ids of the last checkpoint record that carried them, and the
	// replayed entries at or below base — kept until the first
	// Checkpoint (Archived).
	ids    []uint64
	prefix []Entry
	// err is the first failed write or flush. The Storage mutators
	// cannot return it, so every later Sync does: a record that never
	// reached the log must not be reported durable by a flush after it.
	err error
}

// Record type tags.
const (
	walTagState    = 'S'
	walTagEntry    = 'E'
	walTagTruncate = 'T'
	// walTagApplied marks entries ≤ index as durably applied AND
	// archived elsewhere: segment truncation is best-effort (whole
	// segments only), so the marker is what guarantees restart-replay
	// idempotence — state machines skip entries at or below it.
	walTagApplied = 'A'
)

// entryRecord encodes an 'E' record.
func entryRecord(e Entry) []byte {
	return e.AppendTo([]byte{walTagEntry})
}

// checkpointRecord encodes an 'A' record of mark. It carries ids when
// they are not nil, an empty list included.
func checkpointRecord(mark uint64, ids []uint64) []byte {
	rec := []byte{walTagApplied}
	rec = bitutil.AppendUvarint(rec, mark)
	rec = append(rec, 0)
	if ids == nil {
		return rec
	}
	rec = bitutil.AppendUvarint(rec, uint64(len(ids)))
	for _, id := range ids {
		rec = binary.LittleEndian.AppendUint64(rec, id)
	}
	return rec
}

// AppendSnapshot appends to dst the WAL frames of a log cut at base: a
// checkpoint record of base carrying ids, the batch ids applied at or
// below it, then the records of entries, the log above it. A shipped
// snapshot is this run of frames.
func AppendSnapshot(dst []byte, base uint64, ids []uint64, entries []Entry) []byte {
	if ids == nil {
		ids = []uint64{}
	}
	dst = wal.AppendFrame(dst, checkpointRecord(base, ids))
	return AppendEntries(dst, entries)
}

// AppendEntries appends to dst the WAL frames of entries' records.
func AppendEntries(dst []byte, entries []Entry) []byte {
	for _, e := range entries {
		dst = wal.AppendFrame(dst, entryRecord(e))
	}
	return dst
}

// AppendMark appends to dst the WAL frame of a checkpoint record of mark
// that carries no ids: a shipped chunk's news that the archive moved.
func AppendMark(dst []byte, mark uint64) []byte {
	return wal.AppendFrame(dst, checkpointRecord(mark, nil))
}

// OpenWALStorage opens (or creates) durable raft storage in dir.
func OpenWALStorage(dir string, opts wal.Options) (*WALStorage, error) {
	l, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s := &WALStorage{log: l}
	if err := l.Replay(s.replayRecord); err != nil {
		_ = l.Close() // surfacing the replay failure; close is best-effort
		return nil, err
	}
	s.normalizeReplay()
	return s, nil
}

// replayRecord applies one WAL record, the one with sequence number seq,
// to the replayed state. Open calls it for every record in order, then
// normalizeReplay.
func (s *WALStorage) replayRecord(seq uint64, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("raft: empty WAL record")
	}
	switch payload[0] {
	case walTagState:
		_, n, err := bitutil.Uvarint(payload[1:])
		if err != nil {
			return fmt.Errorf("raft: WAL state term: %w", err)
		}
		if _, _, err := bitutil.Uvarint(payload[1+n:]); err != nil {
			return fmt.Errorf("raft: WAL state vote: %w", err)
		}
	case walTagEntry:
		e, _, err := DecodeEntry(payload[1:])
		if err != nil {
			return fmt.Errorf("raft: WAL entry: %w", err)
		}
		s.entries = append(s.entries, e)
		s.seqs = append(s.seqs, seq)
	case walTagTruncate:
		idx, _, err := bitutil.Uvarint(payload[1:])
		if err != nil {
			return fmt.Errorf("raft: WAL truncate: %w", err)
		}
		s.truncateMem(idx)
	case walTagApplied:
		return s.replayCheckpoint(payload[1:])
	default:
		return fmt.Errorf("raft: unknown WAL tag %q", payload[0])
	}
	return nil
}

// replayCheckpoint applies the body of an 'A' record: the mark, then —
// each optional, as older logs wrote none of them or the first alone —
// the term field and the id list. An id count the bytes behind it cannot
// hold is an error, caught before anything is sized from it.
func (s *WALStorage) replayCheckpoint(rec []byte) error {
	mark, n, err := bitutil.Uvarint(rec)
	if err != nil {
		return fmt.Errorf("raft: WAL applied mark: %w", err)
	}
	if rec = rec[n:]; len(rec) > 0 {
		if _, n, err = bitutil.Uvarint(rec); err != nil {
			return fmt.Errorf("raft: WAL applied mark term: %w", err)
		}
		rec = rec[n:]
	}
	if len(rec) > 0 {
		count, n, err := bitutil.Uvarint(rec)
		if err != nil {
			return fmt.Errorf("raft: WAL checkpoint id count: %w", err)
		}
		if rec = rec[n:]; count != uint64(len(rec))/8 || len(rec)%8 != 0 {
			return fmt.Errorf("raft: WAL checkpoint holds %d ids in %d bytes", count, len(rec))
		}
		s.ids = make([]uint64, count)
		for i := range s.ids {
			s.ids[i] = binary.LittleEndian.Uint64(rec[8*i:])
		}
	}
	if mark > s.base {
		s.base = mark
	}
	return nil
}

// normalizeReplay rebases the replayed log at the applied mark. Entries
// at or below the mark were applied AND archived before the last
// checkpoint (that is what authorized writing the mark), so they move
// to the read-only prefix; the live log resumes at mark+1. A restarted
// node then reports the correct last index — new entries continue from
// mark+1 rather than colliding with the skip-below-the-mark apply rule,
// which used to silently drop freshly acked rows after a checkpointed
// restart. The live log is the contiguous run of entries from mark+1
// (from 1 when no checkpoint ever happened): entries after a gap in it,
// or all of them when there is a hole at the mark (left by segment
// recycling), would sit at slice positions that disagree with their
// indexes, so they are dropped.
func (s *WALStorage) normalizeReplay() {
	cut := 0
	for cut < len(s.entries) && s.entries[cut].Index <= s.base {
		cut++
	}
	if s.base > 0 {
		s.prefix = append([]Entry(nil), s.entries[:cut]...)
	}
	run := 0
	for cut+run < len(s.entries) && s.entries[cut+run].Index == s.base+1+uint64(run) {
		run++
	}
	s.entries = append([]Entry(nil), s.entries[cut:cut+run]...)
	s.seqs = append([]uint64(nil), s.seqs[cut:cut+run]...)
}

func (s *WALStorage) truncateMem(index uint64) {
	for i, e := range s.entries {
		if e.Index >= index {
			s.entries = s.entries[:i]
			s.seqs = s.seqs[:i]
			return
		}
	}
}

// keepErr records err as the storage's first failure. Caller holds mu.
func (s *WALStorage) keepErr(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Log implements Storage. A generation roll ships what it returns, so
// both come from one read: a Checkpoint between separate reads of the
// base and of the entries would leave a hole between them, and replay
// drops every entry after a hole.
func (s *WALStorage) Log() (base uint64, entries []Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base, append([]Entry(nil), s.entries...)
}

// Append implements Storage. A multi-entry run (a group commit) becomes
// one batched WAL write instead of a write per entry; the caller issues
// one Sync for the whole run afterwards.
func (s *WALStorage) Append(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(entries) == 1 {
		seq, err := s.log.Append(entryRecord(entries[0]))
		if err != nil {
			s.keepErr(err) // in-memory state still serves the node
			return
		}
		s.entries = append(s.entries, entries[0])
		s.seqs = append(s.seqs, seq)
		return
	}
	recs := make([][]byte, len(entries))
	for i, e := range entries {
		recs[i] = entryRecord(e)
	}
	first, err := s.log.AppendBatch(recs)
	if err != nil {
		s.keepErr(err)
		return
	}
	for i, e := range entries {
		s.entries = append(s.entries, e)
		s.seqs = append(s.seqs, first+uint64(i))
	}
}

// Sync flushes the WAL to stable storage; the node calls it before it
// commits appended entries. Once a write or a flush has failed, every
// Sync returns that first error.
func (s *WALStorage) Sync() error {
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.log.Sync(); err != nil {
		s.mu.Lock()
		s.keepErr(err)
		s.mu.Unlock()
		return err
	}
	return nil
}

// Checkpoint makes mark the log's base: entries at or below it are
// applied and durable elsewhere (archived to object storage), so the
// log forgets them — the paper's checkpointing task (§3). In order, it
// writes a checkpoint record of the mark into the active segment and
// flushes it, drops the entries at or below the mark and what Open
// learned of the archived batches from memory, and recycles every
// segment that holds only records before the first retained entry.
//
// When that recycling is going to unlink a segment, the record carries
// ids() — the batch ids applied at or below the mark — since the
// unlinked entries can no longer name their batches at a replay. The
// list is bounded by the caller's dedup window, and is written once per
// unlinking checkpoint, not once per drain. The flush comes before any
// segment is removed: were the removals to outlive a lost record,
// replay would find a hole at the older mark and drop every acked entry
// above it, and would have lost the ids. A mark at or below the base
// changes nothing.
func (s *WALStorage) Checkpoint(mark uint64, ids func() []uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if mark <= s.base {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	cut := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Index > mark })
	keep := s.log.NextSeq()
	if cut < len(s.seqs) {
		keep = s.seqs[cut]
	}
	// Decided before the record is written: were the write to rotate
	// the active segment, that segment would become removable too, but
	// is left for the next checkpoint, which writes the ids.
	unlink, err := s.log.Truncates(keep)
	if err != nil {
		return err
	}
	var carried []uint64
	if unlink {
		if ids != nil {
			carried = ids()
		}
		if carried == nil {
			carried = []uint64{}
		}
	}
	if _, err := s.log.Append(checkpointRecord(mark, carried)); err != nil {
		s.keepErr(err)
		return err
	}
	if err := s.log.Sync(); err != nil {
		s.keepErr(err)
		return err
	}
	s.base = mark
	clear(s.entries[:cut]) // the backing array must not keep their Data alive
	s.entries = s.entries[cut:]
	s.seqs = s.seqs[cut:]
	s.ids, s.prefix = nil, nil
	if !unlink {
		return nil
	}
	return s.log.TruncateFront(keep)
}

// Archived returns what Open learned of the batches the archive holds:
// the ids of the last checkpoint record that carried them, and the
// replayed entries at or below the base (a prefix still physically in
// the WAL), until the first Checkpoint forgets both. A restarted shard
// and a hydrated one alike preload their duplicate-suppression set from
// the two, so a batch retried across the recovery is not applied twice.
func (s *WALStorage) Archived() (ids []uint64, prefix []Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.ids...), append([]Entry(nil), s.prefix...)
}

// Close closes the underlying WAL.
func (s *WALStorage) Close() error {
	return s.log.Close()
}
