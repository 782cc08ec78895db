package raft

import (
	"fmt"

	"logstore/internal/bitutil"
	"logstore/internal/wal"
)

// WriteRecoveryWAL materializes a shard's WAL in an empty directory
// from externally recovered state — the disk-loss hydration path, where
// a worker rebuilds a shard from the shipped log in OSS instead of
// local segments. It writes the same record sequence a live node would
// have left behind (state, applied mark, entries), so the subsequent
// OpenWALStorage replay — including the applied-mark rebase — runs
// unchanged.
func WriteRecoveryWAL(dir string, opts wal.Options, term, applied, appliedTerm uint64, entries []Entry) (err error) {
	l, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := l.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if l.NextSeq() != 1 {
		return fmt.Errorf("raft: recovery WAL dir %s is not empty", dir)
	}

	recs := make([][]byte, 0, len(entries)+2)
	recs = append(recs, stateRecord(term))
	if applied > 0 {
		mark := []byte{walTagApplied}
		mark = bitutil.AppendUvarint(mark, applied)
		mark = bitutil.AppendUvarint(mark, appliedTerm)
		recs = append(recs, mark)
	}
	for _, e := range entries {
		recs = append(recs, append([]byte{walTagEntry}, e.AppendTo(nil)...))
	}
	if _, err := l.AppendBatch(recs); err != nil {
		return err
	}
	return l.Sync()
}
