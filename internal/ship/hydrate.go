package ship

import (
	"errors"
	"fmt"
	"hash/crc32"

	"logstore/internal/oss"
)

// Hydrate rebuilds a shard's logical state from its current shipped
// generation: the snapshot plus every committed chunk after it. It is
// the disk-loss recovery path — a worker with a wiped data directory
// calls it before opening WALs.
//
// Returns ok=false (no error) when the shard has no registered
// generation (nothing was ever shipped — a genuinely fresh shard).
// torn reports that the chunk walk stopped early at a truncated or
// corrupt object: state is still valid through the previous sealed
// chunk (the register-last fallback), and everything past it was never
// barrier-acknowledged as shipped.
//
// The returned State's Applied/AppliedTerm are already advanced to the
// highest archive mark the generation recorded (clamped to the entry
// tip), so callers can hand it straight to raft recovery: entries at
// or below Applied replay as prefix (dedup preload, rows already in
// LogBlocks), entries above it re-apply as resident rows.
func Hydrate(store *oss.RetryingStore, reg *Registry, shard int64) (st State, ok, torn bool, err error) {
	gen, err := reg.CurrentGen(shard)
	if err != nil {
		return State{}, false, false, err
	}
	if gen == 0 {
		return State{}, false, false, nil
	}
	data, err := store.Get(snapKey(shard, gen))
	if err != nil {
		return State{}, false, false, fmt.Errorf("ship: generation %d snapshot for shard %d: %w", gen, shard, err)
	}
	st, err = decodeSnap(data)
	if err != nil {
		// A registered generation's snapshot was read-back-verified
		// before registration; failing here means real corruption, not
		// a torn upload, and there is no older truth to fall back to.
		return State{}, false, false, err
	}

	tip := st.Tip()
	mark := st.Applied
	for seq := uint64(0); ; seq++ {
		cdata, err := store.Get(commitKey(shard, gen, seq))
		if errors.Is(err, oss.ErrNotFound) {
			break // end of the committed run
		}
		if err != nil {
			return State{}, false, false, err
		}
		rec, err := decodeCommit(cdata)
		if err != nil {
			// A torn commit record is an uncommitted chunk under the
			// register-last protocol: the run ends here.
			torn = true
			break
		}
		chunk, err := store.Get(chunkKey(shard, gen, seq))
		if errors.Is(err, oss.ErrNotFound) {
			torn = true
			break
		}
		if err != nil {
			return State{}, false, false, err
		}
		if int64(len(chunk)) != rec.Bytes || crc32.Checksum(chunk, crcTable) != rec.CRC {
			// The chunk object does not match its commit record — it
			// was persisted truncated. Fall back to the previous
			// sealed chunk; nothing past it was acked as shipped.
			torn = true
			break
		}
		entries, err := decodeChunk(chunk)
		if err != nil {
			torn = true
			break
		}
		if len(entries) > 0 {
			if entries[0].Index != tip+1 || entries[0].Index != rec.First ||
				entries[len(entries)-1].Index != rec.Last {
				return State{}, false, false, fmt.Errorf(
					"ship: chunk %d of shard %d gen %d breaks contiguity at index %d (tip %d)",
					seq, shard, gen, entries[0].Index, tip)
			}
			st.Entries = append(st.Entries, entries...)
			tip = rec.Last
		}
		if rec.Mark > mark {
			mark = rec.Mark
		}
	}

	// Advance the applied mark to the recorded archive position. Rows
	// between the snapshot's mark and this one are already in LogBlocks;
	// replaying them as resident would double-count. The mark may
	// exceed the shipped tip (rows archived but their entries not yet
	// shipped when the disk died) — those rows are durable in
	// LogBlocks, so clamping to the tip loses nothing.
	if mark > tip {
		mark = tip
	}
	if mark > st.Applied {
		st.AppliedTerm = termAt(st, mark)
		st.Applied = mark
	}
	return st, true, torn, nil
}

// termAt resolves the term of the entry at index idx within st, for
// rebasing the applied mark. Falls back to the snapshot's base term
// when idx precedes the first carried entry.
func termAt(st State, idx uint64) uint64 {
	for i := len(st.Entries) - 1; i >= 0; i-- {
		if st.Entries[i].Index == idx {
			return st.Entries[i].Term
		}
		if st.Entries[i].Index < idx {
			break
		}
	}
	return st.AppliedTerm
}
