package raft

import (
	"fmt"
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
//	'S' term 0             — SetTerm (older logs hold a vote+1 there)
//	'E' entry              — Append (one record per entry)
//	'T' index              — drop entries ≥ index (written by older
//	                         code only, when a follower repaired its log)
//	'A' index term         — Checkpoint's applied mark
//
// Open replays the WAL to rebuild the logical state. WAL truncation is
// segment-granular and driven by the checkpoint task (Checkpoint).
type WALStorage struct {
	mu   sync.Mutex
	log  *wal.Log
	term uint64
	// entries is the live raft log (the WAL is the durable copy);
	// seqs[i] is the WAL sequence number of entries[i]'s record, used
	// by Checkpoint to recycle old segments safely.
	entries  []Entry
	seqs     []uint64
	applied  uint64 // highest durable applied-mark
	markTerm uint64 // term of the entry at the applied mark
	// base/baseTerm is the compaction point exposed to the node: after
	// a restart from a checkpointed WAL the live log resumes at
	// applied+1 and everything at or below `base` is only reachable
	// through the archive. prefix retains replayed entries ≤ base so
	// the worker can preload its duplicate-suppression set.
	base     uint64
	baseTerm uint64
	prefix   []Entry
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
	// idempotence — state machines skip entries at or below it. The
	// record carries the entry's term too, the term of the base.
	walTagApplied = 'A'
)

// stateRecord encodes an 'S' record. Its second field held a vote when
// the log ran elections; it is written as 0 and read past.
func stateRecord(term uint64) []byte {
	rec := []byte{walTagState}
	rec = bitutil.AppendUvarint(rec, term)
	return bitutil.AppendUvarint(rec, 0)
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
		term, n, err := bitutil.Uvarint(payload[1:])
		if err != nil {
			return fmt.Errorf("raft: WAL state term: %w", err)
		}
		if _, _, err := bitutil.Uvarint(payload[1+n:]); err != nil {
			return fmt.Errorf("raft: WAL state vote: %w", err)
		}
		s.term = term
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
		idx, n, err := bitutil.Uvarint(payload[1:])
		if err != nil {
			return fmt.Errorf("raft: WAL applied mark: %w", err)
		}
		// The term rides along since this record doubles as the
		// compaction point; tolerate its absence (older records).
		term := uint64(0)
		if len(payload) > 1+n {
			term, _, err = bitutil.Uvarint(payload[1+n:])
			if err != nil {
				return fmt.Errorf("raft: WAL applied mark term: %w", err)
			}
		}
		if idx >= s.applied {
			s.applied = idx
			s.markTerm = term
		}
	default:
		return fmt.Errorf("raft: unknown WAL tag %q", payload[0])
	}
	return nil
}

// normalizeReplay rebases the replayed log at the applied mark. Entries
// at or below the mark were applied AND archived before the last
// checkpoint (that is what authorized writing the mark), so they move
// to the read-only prefix; the live log resumes at mark+1 with
// base = mark. A restarted node then reports the correct last index —
// new entries continue from mark+1 rather than colliding with the
// skip-below-the-mark apply rule, which used to silently drop freshly
// acked rows after a checkpointed restart. The live log is the
// contiguous run of entries from mark+1 (from 1 when no checkpoint
// ever happened): entries after a gap in it, or all of them when
// there is a hole at the mark (left by segment recycling), would sit
// at slice positions that disagree with their indexes, so they are
// dropped.
func (s *WALStorage) normalizeReplay() {
	cut := 0
	for cut < len(s.entries) && s.entries[cut].Index <= s.applied {
		cut++
	}
	if s.applied > 0 {
		s.prefix = append([]Entry(nil), s.entries[:cut]...)
	}
	run := 0
	for cut+run < len(s.entries) && s.entries[cut+run].Index == s.applied+1+uint64(run) {
		run++
	}
	s.entries = append([]Entry(nil), s.entries[cut:cut+run]...)
	s.seqs = append([]uint64(nil), s.seqs[cut:cut+run]...)
	s.base = s.applied
	s.baseTerm = s.markTerm
	if s.baseTerm == 0 && len(s.prefix) > 0 && s.prefix[len(s.prefix)-1].Index == s.base {
		// Mark written before terms rode along: recover it from the
		// replayed entry itself.
		s.baseTerm = s.prefix[len(s.prefix)-1].Term
	}
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

// Term implements Storage.
func (s *WALStorage) Term() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.term
}

// SetTerm implements Storage.
func (s *WALStorage) SetTerm(term uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.term = term
	_, err := s.log.Append(stateRecord(term))
	s.keepErr(err)
}

// keepErr records err as the storage's first failure. Caller holds mu.
func (s *WALStorage) keepErr(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Entries implements Storage.
func (s *WALStorage) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, len(s.entries))
	copy(out, s.entries)
	return out
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
		rec := append([]byte{walTagEntry}, entries[0].AppendTo(nil)...)
		seq, err := s.log.Append(rec)
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
		recs[i] = append([]byte{walTagEntry}, e.AppendTo(nil)...)
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

// Checkpoint recycles WAL segments whose entries are all ≤
// appliedIndex (already applied and durable elsewhere, e.g. archived
// to object storage). Entries above appliedIndex — and the durable
// term — survive: the current state record is re-appended to the
// active segment first, and truncation never touches a segment holding
// a retained entry's sequence. Mirrors the controller's periodic
// checkpointing task (paper §3). Entries ≤ appliedIndex stay in
// memory until the storage is reopened.
func (s *WALStorage) Checkpoint(appliedIndex uint64) error {
	s.mu.Lock()
	// Durable applied mark first: restart replay skips entries ≤ it.
	if appliedIndex > s.applied {
		term := s.termOfLocked(appliedIndex)
		mark := []byte{walTagApplied}
		mark = bitutil.AppendUvarint(mark, appliedIndex)
		mark = bitutil.AppendUvarint(mark, term)
		if _, err := s.log.Append(mark); err != nil {
			s.mu.Unlock()
			return err
		}
		s.applied = appliedIndex
		s.markTerm = term
	}
	// Durable state must outlive the truncated prefix: rewrite it into
	// the active segment.
	if _, err := s.log.Append(stateRecord(s.term)); err != nil {
		s.mu.Unlock()
		return err
	}
	// Keep every WAL record from the first retained entry onward.
	keep := s.log.NextSeq()
	for i, e := range s.entries {
		if e.Index > appliedIndex {
			keep = s.seqs[i]
			break
		}
	}
	s.mu.Unlock()
	return s.log.TruncateFront(keep)
}

// termOfLocked resolves the term of the entry at index, consulting
// the live log, the replayed prefix, and the current base.
func (s *WALStorage) termOfLocked(index uint64) uint64 {
	if index == s.base {
		return s.baseTerm
	}
	for i := len(s.entries); i > 0; i-- {
		if e := s.entries[i-1]; e.Index == index {
			return e.Term
		}
	}
	for i := len(s.prefix); i > 0; i-- {
		if e := s.prefix[i-1]; e.Index == index {
			return e.Term
		}
	}
	return 0
}

// AppliedMark returns the highest durable applied mark: entries at or
// below it were applied AND their effects archived before the last
// checkpoint, so a restarted state machine must skip them.
func (s *WALStorage) AppliedMark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Base implements Storage.
func (s *WALStorage) Base() (uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base, s.baseTerm
}

// ReplayedPrefix returns the replayed entries at or below the base (the
// compacted prefix still physically present in the WAL). The worker
// preloads its duplicate-suppression set from them so a batch retried
// across a restart is not applied twice.
func (s *WALStorage) ReplayedPrefix() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, len(s.prefix))
	copy(out, s.prefix)
	return out
}

// Close closes the underlying WAL.
func (s *WALStorage) Close() error {
	return s.log.Close()
}
