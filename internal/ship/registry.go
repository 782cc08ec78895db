package ship

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"logstore/internal/oss"
)

// ErrFenced is returned to a shipper whose generation was superseded:
// another shipper registered a higher generation for the same shard
// (failover handed the shard to a new worker). The fenced shipper must
// stop writing and delete its own generation's objects.
var ErrFenced = errors.New("ship: generation fenced by a newer shipper")

// Registry hands out per-shard shipping generations and records which
// one is current. A generation is the unit of lineage in OSS: all of
// `wal/<shard>/<gen>/*` is written by exactly one shipper, and
// `wal/<shard>/CURRENT` names the generation hydration reads.
//
// The register-last protocol from the archive pipeline applies here
// too: Acquire only reserves a number; the shipper uploads (and
// read-back-verifies) the generation's snapshot first and calls
// Register after, so CURRENT never points at a generation without a
// valid snapshot. Two shippers racing after a failover both acquire
// distinct numbers, but Register is a take-the-max race: the loser gets
// ErrFenced (before or after its Put — a regressed CURRENT object is
// repaired in place) and cleans its own objects up, so the survivors
// converge on one generation with no interleaved segments.
type Registry struct {
	store *oss.RetryingStore

	mu         sync.Mutex
	next       map[int64]uint64 // next generation to hand out
	registered map[int64]uint64 // highest registered generation
	loaded     map[int64]bool   // CURRENT consulted at least once
}

// NewRegistry builds a registry over store: CURRENT reads and writes
// are production OSS traffic like any other.
func NewRegistry(store *oss.RetryingStore) *Registry {
	return &Registry{
		store:      store,
		next:       make(map[int64]uint64),
		registered: make(map[int64]uint64),
		loaded:     make(map[int64]bool),
	}
}

// currentKey is the register-last pointer object for one shard.
func currentKey(shard int64) string { return fmt.Sprintf("wal/%d/CURRENT", shard) }

// GenPrefix is the object-key prefix of one shard generation.
func GenPrefix(shard int64, gen uint64) string {
	return fmt.Sprintf("wal/%d/%08d/", shard, gen)
}

// shardPrefix covers every shipping object of one shard (all
// generations plus CURRENT).
func shardPrefix(shard int64) string { return fmt.Sprintf("wal/%d/", shard) }

// load consults CURRENT once per shard so a registry rebuilt over an
// existing store (cluster reopen) resumes above prior generations.
func (r *Registry) load(shard int64) error {
	r.mu.Lock()
	done := r.loaded[shard]
	r.mu.Unlock()
	if done {
		return nil
	}
	_, err := r.read(shard)
	return err
}

// read GETs the CURRENT object of shard, outside the registry lock, and
// takes it into the registry's view: registered and the next generation
// handed out never fall. It returns the highest registered generation.
func (r *Registry) read(shard int64) (uint64, error) {
	var cur uint64
	data, err := r.store.Get(currentKey(shard))
	switch {
	case errors.Is(err, oss.ErrNotFound):
		// No generation ever registered.
	case err != nil:
		return 0, err
	default:
		cur, err = strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("ship: corrupt %s: %w", currentKey(shard), err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.loaded[shard] = true
	if cur > r.registered[shard] {
		r.registered[shard] = cur
	}
	if cur >= r.next[shard] {
		r.next[shard] = cur + 1
	}
	return r.registered[shard], nil
}

// Acquire reserves the next generation number for shard. The number is
// not visible to hydration until Register.
func (r *Registry) Acquire(shard int64) (uint64, error) {
	if err := r.load(shard); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next[shard] == 0 {
		r.next[shard] = 1
	}
	gen := r.next[shard]
	r.next[shard]++
	return gen, nil
}

// Register makes gen the current generation for shard — the commit
// point of a generation open or roll. It fails with ErrFenced when a
// higher generation registered first; if the losing Put landed after
// the winner's, the CURRENT object is repaired back to the winner.
func (r *Registry) Register(shard int64, gen uint64) error {
	r.mu.Lock()
	if gen <= r.registered[shard] {
		r.mu.Unlock()
		return ErrFenced
	}
	r.mu.Unlock()
	if err := r.store.Put(currentKey(shard), []byte(strconv.FormatUint(gen, 10))); err != nil {
		return err
	}
	r.mu.Lock()
	won := gen > r.registered[shard]
	if won {
		r.registered[shard] = gen
	}
	stale := r.registered[shard]
	r.mu.Unlock()
	if !won {
		// Our Put may have overwritten the winner's: repair in place so
		// the object agrees with the in-memory winner again.
		_ = r.store.Put(currentKey(shard), []byte(strconv.FormatUint(stale, 10)))
		return ErrFenced
	}
	return nil
}

// Registered reports the highest generation registered for shard (the
// shipper's fencing check; 0 = none). Memory-only — loaded lazily by
// Acquire/CurrentGen.
func (r *Registry) Registered(shard int64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.registered[shard]
}

// CurrentGen resolves the current generation for shard by reading the
// CURRENT object, so that it sees a generation another registry over
// the same store registered since (hydration after a full restart, or
// beside an owner that still rolls). 0 means no generation exists.
func (r *Registry) CurrentGen(shard int64) (uint64, error) {
	return r.read(shard)
}

// Sweep deletes every object of shard generations below keep — the
// truncation half of shipping: once a newer snapshot covers the log,
// earlier generations are garbage. Best-effort: a missed delete is an
// orphan the next sweep retries.
func (r *Registry) Sweep(shard int64, keep uint64) error {
	infos, err := r.store.List(shardPrefix(shard))
	if err != nil {
		return err
	}
	keepPrefix := GenPrefix(shard, keep)
	cur := currentKey(shard)
	var firstErr error
	for _, info := range infos {
		if info.Key == cur || strings.HasPrefix(info.Key, keepPrefix) {
			continue
		}
		if err := r.store.Delete(info.Key); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DeleteGeneration removes every object one shipper wrote under its own
// generation — the fenced loser's cleanup, so a lost handoff race
// leaves no orphaned objects behind.
func (r *Registry) DeleteGeneration(shard int64, gen uint64) error {
	infos, err := r.store.List(GenPrefix(shard, gen))
	if err != nil {
		return err
	}
	var firstErr error
	for _, info := range infos {
		if err := r.store.Delete(info.Key); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
