package raft

import (
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
	// base/baseTerm is the highest durable applied mark and the term
	// of the entry at it. Entries at or below base were applied AND
	// archived elsewhere before a checkpoint, so the log has forgotten
	// them: they are only reachable through the archive.
	base     uint64
	baseTerm uint64
	// entries is the live log above base (the WAL is the durable copy);
	// seqs[i] is the WAL sequence number of entries[i]'s record, used
	// by Checkpoint to recycle old segments safely.
	entries []Entry
	seqs    []uint64
	// prefix holds the replayed entries at or below base, until the
	// first Checkpoint: the worker preloads its duplicate-suppression
	// set from them.
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
		if idx >= s.base {
			s.base = idx
			s.baseTerm = term
		}
	default:
		return fmt.Errorf("raft: unknown WAL tag %q", payload[0])
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

// Log implements Storage. A generation roll ships what it returns, so
// the three come from one read: a Checkpoint between separate reads of
// the base and of the entries would leave a hole between them, and
// hydration drops every entry after a hole.
func (s *WALStorage) Log() (base, baseTerm uint64, entries []Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base, s.baseTerm, append([]Entry(nil), s.entries...)
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

// Checkpoint makes mark the log's base: entries at or below it are
// applied and durable elsewhere (archived to object storage), so the
// log forgets them — the paper's checkpointing task (§3). In order, it
// writes the applied mark and the current term (whose record may sit in
// a segment about to go) into the active segment, flushes them, drops
// the entries at or below the mark and the replayed prefix from memory,
// and recycles every segment that holds only records before the first
// retained entry. The flush comes before any segment is removed: were
// the removals to outlive a lost mark, replay would find a hole at the
// older mark and drop every acked entry above it. A mark at or below
// the base changes nothing.
func (s *WALStorage) Checkpoint(mark uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if mark <= s.base {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	cut := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Index > mark })
	var term uint64
	if cut > 0 && s.entries[cut-1].Index == mark {
		term = s.entries[cut-1].Term
	}
	rec := []byte{walTagApplied}
	rec = bitutil.AppendUvarint(rec, mark)
	rec = bitutil.AppendUvarint(rec, term)
	if _, err := s.log.AppendBatch([][]byte{rec, stateRecord(s.term)}); err != nil {
		s.keepErr(err)
		return err
	}
	if err := s.log.Sync(); err != nil {
		s.keepErr(err)
		return err
	}
	s.base, s.baseTerm = mark, term
	clear(s.entries[:cut]) // the backing array must not keep their Data alive
	s.entries = s.entries[cut:]
	s.seqs = s.seqs[cut:]
	s.prefix = nil
	keep := s.log.NextSeq()
	if len(s.seqs) > 0 {
		keep = s.seqs[0]
	}
	return s.log.TruncateFront(keep)
}

// ReplayedPrefix returns the entries at or below the base that Open
// replayed (a compacted prefix still physically present in the WAL),
// until the first Checkpoint drops them. The worker preloads its
// duplicate-suppression set from them so a batch retried across a
// restart is not applied twice.
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
