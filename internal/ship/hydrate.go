package ship

import (
	"bytes"
	"errors"
	"fmt"

	"logstore/internal/oss"
	"logstore/internal/wal"
)

// ErrLegacyGeneration is Hydrate's refusal of a generation whose
// snapshot is in the layout before a shipped object became WAL frames
// (magic "LSSNAP1"). No decoder for it is kept: a shipper that boots on
// a log with history rolls a generation in today's layout on its first
// pass, so such a generation is current only until then.
var ErrLegacyGeneration = errors.New("ship: generation in the LSSNAP1 layout, which hydration no longer reads")

var legacySnapMagic = []byte("LSSNAP1\n")

// ErrCorruptSnapshot is Hydrate's refusal of a generation whose
// snapshot does not match its commit record — a truncated or corrupt
// object. Hydrating it would open the shard short of rows that were
// acked, and the shard's next roll would sweep the complete copy.
var ErrCorruptSnapshot = errors.New("ship: snapshot does not match its commit record")

// Hydrate rebuilds a shard's log from its current shipped generation:
// it concatenates the snapshot and every committed chunk after it and
// writes the result into dir, which must hold no log yet, as one WAL
// segment (wal.WriteSegment: file and directory synced). Opening a
// raft.WALStorage on dir then replays it exactly as a restart replays
// the log it kept: the checkpoint record's ids and the entries at or
// below the last mark preload duplicate suppression, and the entries
// above it apply as resident rows. It is the disk-loss recovery path —
// a worker with a wiped data directory calls it before opening its WAL.
//
// tip is the last index the snapshot or a committed chunk covers: the
// log dir holds must reach it. A snapshot that does not match its
// commit record fails the hydration with ErrCorruptSnapshot. ok is
// false (with no error) when the shard has no registered generation —
// nothing was ever shipped, a genuinely fresh shard. torn reports that
// the chunk walk stopped early at a truncated or corrupt object: the
// log is still valid through the previous sealed chunk (the
// register-last fallback), and everything past it was never
// barrier-acknowledged as shipped.
//
// A concurrent roll registers a newer generation and then sweeps the
// older ones, possibly under the walk. So Hydrate reads CURRENT again
// after the walk, and reads the generation that is current then when it
// changed: a generation still current after the walk was not swept.
func Hydrate(store *oss.RetryingStore, reg *Registry, shard int64, dir string) (tip uint64, ok, torn bool, err error) {
	for {
		gen, err := reg.CurrentGen(shard)
		if err != nil || gen == 0 {
			return 0, false, false, err
		}
		log, tip, torn, err := readGeneration(store, shard, gen)
		now, cerr := reg.CurrentGen(shard)
		if cerr != nil {
			return 0, false, false, cerr
		}
		if now != gen {
			continue
		}
		if err != nil {
			return 0, false, false, err
		}
		if err := wal.WriteSegment(dir, log); err != nil {
			return 0, false, false, fmt.Errorf("ship: generation %d of shard %d: %w", gen, shard, err)
		}
		return tip, true, torn, nil
	}
}

// readGeneration reads generation gen of shard: its snapshot, checked
// against the snapshot's commit record, followed by the committed
// chunks, and the last index those cover.
func readGeneration(store *oss.RetryingStore, shard int64, gen uint64) (log []byte, tip uint64, torn bool, err error) {
	log, err = store.Get(snapKey(shard, gen))
	if err != nil {
		return nil, 0, false, fmt.Errorf("ship: generation %d snapshot for shard %d: %w", gen, shard, err)
	}
	if bytes.HasPrefix(log, legacySnapMagic) {
		return nil, 0, false, fmt.Errorf("shard %d generation %d: %w", shard, gen, ErrLegacyGeneration)
	}
	cdata, err := store.Get(snapCommitKey(shard, gen))
	if err != nil {
		return nil, 0, false, fmt.Errorf("ship: generation %d snapshot record for shard %d: %w", gen, shard, err)
	}
	rec, err := decodeCommit(cdata)
	if err != nil {
		return nil, 0, false, fmt.Errorf("ship: generation %d of shard %d: snapshot %w", gen, shard, err)
	}
	if !rec.matches(log) {
		// Cut or corrupt after the roll read it back. Whole frames are
		// no proof: a cut on a frame boundary replays short.
		return nil, 0, false, fmt.Errorf("%w: generation %d of shard %d holds %d bytes, its record %d", ErrCorruptSnapshot, gen, shard, len(log), rec.Bytes)
	}
	tip = rec.Last
	for seq := uint64(0); ; seq++ {
		cdata, err := store.Get(commitKey(shard, gen, seq))
		if errors.Is(err, oss.ErrNotFound) {
			return log, tip, false, nil // end of the committed run
		}
		if err != nil {
			return nil, 0, false, err
		}
		rec, err := decodeCommit(cdata)
		if err != nil {
			// A torn commit record is an uncommitted chunk under the
			// register-last protocol: the run ends here.
			return log, tip, true, nil
		}
		chunk, err := store.Get(chunkKey(shard, gen, seq))
		if errors.Is(err, oss.ErrNotFound) {
			return log, tip, true, nil
		}
		if err != nil {
			return nil, 0, false, err
		}
		if !rec.matches(chunk) {
			// The chunk object does not match its commit record — it
			// was persisted truncated. Fall back to the previous
			// sealed chunk; nothing past it was acked as shipped.
			return log, tip, true, nil
		}
		log = append(log, chunk...)
		tip = max(tip, rec.Last)
	}
}
