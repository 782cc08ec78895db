package worker

import (
	"math/bits"
	"sync"
)

// dedupSet is a bounded FIFO set of batch ids (per shard), each tagged
// with the raft index of its first apply. The bound only limits how
// far back a retry can arrive and still be suppressed; 64k batches is
// far beyond any client retry horizon. The index tag lets a shipped
// snapshot export exactly the ids applied at or below its checkpoint
// base — entries above the base carry their ids inline.
//
// Two arrays sized at construction hold it. ring keeps the (id, index)
// entries in apply order, the oldest at head, and a full ring evicts
// its oldest entry to take a new one. table is an open-addressed hash
// set of the ids ring holds, probed linearly from a multiplicative hash
// of the id and at least twice the bound in size, so a probe ends
// within a few slots. An empty slot reads 0, so id 0 is kept in zero
// instead. An evicted id leaves the table by backward shift, which
// leaves no tombstones behind.
type dedupSet struct {
	mu    sync.Mutex
	table []uint64
	shift uint // 64 - log2(len(table)): the hash's top bits index table
	zero  bool // whether the set holds id 0
	ring  []dedupEntry
	head  int // ring position of the oldest entry
	n     int // entries held
}

type dedupEntry struct{ id, index uint64 }

func newDedupSet(limit int) *dedupSet {
	size := 4 // at least limit+2: an insert ahead of its eviction still leaves an empty slot
	for size < 2*limit {
		size <<= 1
	}
	return &dedupSet{
		table: make([]uint64, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		ring:  make([]dedupEntry, limit),
	}
}

// home is the slot id's probe starts at.
func (d *dedupSet) home(id uint64) int {
	return int((id * 0x9e3779b97f4a7c15) >> d.shift)
}

// find returns id's table slot and whether the set holds id; for an
// absent id the slot is the empty one an insert fills. Id 0 has no
// slot (-1).
func (d *dedupSet) find(id uint64) (int, bool) {
	if id == 0 {
		return -1, d.zero
	}
	mask := len(d.table) - 1
	for i := d.home(id); ; i = (i + 1) & mask {
		switch d.table[i] {
		case id:
			return i, true
		case 0:
			return i, false
		}
	}
}

// Probe looks id up: ok reports whether the set holds it, and when it
// does not, Insert at slot adds it without probing again. The slot is
// valid until the set's next write. A shard's writers never overlap —
// the shard applies under applyMu, and AddShard preloads ids
// before the first apply — so the apply path can probe, apply the
// batch, then insert.
func (d *dedupSet) Probe(id uint64) (slot int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.find(id)
}

// Insert adds id, first applied at raft index index, at the slot Probe
// returned for it, evicting the oldest entry if the set is full.
func (d *dedupSet) Insert(slot int, id, index uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.insert(slot, id, index)
}

func (d *dedupSet) insert(slot int, id, index uint64) {
	if id == 0 {
		d.zero = true
	} else {
		d.table[slot] = id
	}
	if d.n < len(d.ring) {
		i := d.head + d.n
		if i >= len(d.ring) {
			i -= len(d.ring)
		}
		d.ring[i] = dedupEntry{id, index}
		d.n++
		return
	}
	// Evict only after the insert: a backward shift ahead of it could
	// open a hole before slot, where a probe for id would stop.
	old := d.ring[d.head].id
	d.ring[d.head] = dedupEntry{id, index}
	if d.head++; d.head == len(d.ring) {
		d.head = 0
	}
	d.remove(old)
}

// remove deletes id, which the set holds. Each entry after its slot in
// the same run of full slots moves back into the hole unless its home
// lies between the hole and itself, so a probe for any id still held
// meets no empty slot before reaching it.
func (d *dedupSet) remove(id uint64) {
	if id == 0 {
		d.zero = false
		return
	}
	mask := len(d.table) - 1
	hole, _ := d.find(id)
	for j := (hole + 1) & mask; d.table[j] != 0; j = (j + 1) & mask {
		if (j-d.home(d.table[j]))&mask >= (j-hole)&mask {
			d.table[hole] = d.table[j]
			hole = j
		}
	}
	d.table[hole] = 0
}

// Add records id as first applied at raft index index, unless the set
// already holds it.
func (d *dedupSet) Add(id, index uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if slot, ok := d.find(id); !ok {
		d.insert(slot, id, index)
	}
}

// SnapshotBelow returns the ids first applied at or below maxIdx, in
// apply order (preloaded ids — index 0 — always qualify: they come from
// a prior life's checkpointed prefix or a shipped snapshot).
func (d *dedupSet) SnapshotBelow(maxIdx uint64) []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, 0, d.n)
	for k, i := 0, d.head; k < d.n; k++ {
		if e := d.ring[i]; e.index <= maxIdx {
			out = append(out, e.id)
		}
		if i++; i == len(d.ring) {
			i = 0
		}
	}
	return out
}
