// Package ship streams each shard's committed log into object storage
// so OSS holds every acked row, not only the archived ones. A per-shard
// shipper goroutine buffers committed entries (fed by the shard log's
// commit hook — entries a restarted log re-commits below the boot tip
// are skipped), flushes them as chunk objects under a registered
// generation, and rolls the generation with a fresh snapshot once the
// archive moved, so old chunks — like recycled local segments — can be
// deleted. Snapshot and chunks are WAL frames, the shape the log has on
// disk (encode.go). A worker that lost its disks hydrates the current
// generation back into a WAL segment, replays it as a restart replays
// its log, and resumes with resident+archived == acked intact.
package ship

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"logstore/internal/metrics"
	"logstore/internal/oss"
	"logstore/internal/raft"
	"logstore/internal/retry"
)

// ErrStopped is returned to barrier waiters when the shipper shuts
// down before their entries reached OSS.
var ErrStopped = errors.New("ship: shipper stopped")

// Defaults for the exposure-window knobs: how long an acked row may
// stay local-only before it must be in OSS.
const (
	DefaultLinger     = 100 * time.Millisecond
	DefaultMaxBytes   = 1 << 20
	DefaultMaxBacklog = 16 << 20
	DefaultRollChunks = 16

	// entryOverhead approximates per-entry framing when accounting
	// pending bytes against MaxBytes/MaxBacklog.
	entryOverhead = 20
)

// Options configures WAL shipping for a worker's shards.
type Options struct {
	// Store is the OSS backend shipped objects land in.
	Store *oss.RetryingStore
	// Registry issues and fences per-shard shipping generations. All
	// shippers of a cluster must share one registry.
	Registry *Registry
	// Sync makes every append barrier on shipping: the ack implies the
	// rows are in OSS, closing the exposure window entirely at the cost
	// of one OSS round-trip per commit group. The shipper then uploads
	// each commit as it is offered instead of waiting for linger, size
	// or the first Barrier.
	Sync bool
	// Linger bounds how long an acked-but-unshipped row may wait
	// before a flush (async mode's exposure window).
	Linger time.Duration
	// MaxBytes triggers a flush early once this much is pending.
	MaxBytes int64
	// MaxBacklog is the async-mode backpressure threshold: when OSS is
	// down and more than this is pending, appends are refused rather
	// than building unbounded local exposure.
	MaxBacklog int64
	// RollChunks is the snapshot cadence: once this many chunks
	// shipped and the archive mark advanced, the generation rolls.
	RollChunks int
}

// Source cuts a shard's log for a generation roll, consistently with
// the archived row set (the worker reads it under its apply lock): snap
// is the snapshot object — the log's checkpoint record of its base (the
// archive mark) carrying the dedup ids at or below it, then its entries
// above it, as WAL frames (raft.AppendSnapshot) — and tip is the last
// index it covers (base when it holds no entry).
type Source func() (snap []byte, base, tip uint64, err error)

// Stats is a point-in-time observability snapshot of one shipper.
type Stats struct {
	Gen              uint64
	Watermark        uint64
	UnshippedBytes   int64
	UnshippedEntries int64
	LastShipAge      time.Duration
	Chunks           int64
	Snapshots        int64
	Rolls            int64
	Errors           int64
	Fenced           bool
}

type waiter struct {
	target uint64
	ch     chan error
}

// Shipper streams one shard's committed entries into OSS.
type Shipper struct {
	store  *oss.RetryingStore
	reg    *Registry
	shard  int64
	source Source

	sync       bool
	linger     time.Duration
	maxBytes   int64
	maxBacklog int64
	rollChunks int

	flushCh  chan struct{}
	stopCh   chan struct{}
	doneCh   chan struct{}
	stopOnce sync.Once

	mu           sync.Mutex
	pending      []raft.Entry // contiguous committed run [watermark+1, next)
	pendingBytes int64
	next         uint64 // next index Offer accepts
	maxOffered   uint64 // highest committed index the commit hook reported
	watermark    uint64 // highest index the current generation covers in OSS
	gen          uint64 // registered generation (0 = none yet)
	archivedMark uint64 // highest locally archived applied index (NoteArchived)
	waiters      []waiter
	failed       error
	finalFlush   bool

	// Generation bookkeeping owned by the ship loop goroutine.
	seq             uint64
	snapBase        uint64
	chunksSinceSnap int
	lastShippedMark uint64

	lastShipNano metrics.Gauge
	chunks       metrics.Counter
	snaps        metrics.Counter
	rolls        metrics.Counter
	errs         metrics.Counter
}

// New starts a shipper for shard. next is the first log index the
// shipper should expect from the commit hook (local WAL tip + 1 at
// boot); everything at or below it is covered by the generation the
// first roll snapshots.
func New(opts Options, shard int64, next uint64, source Source) *Shipper {
	if opts.Linger <= 0 {
		opts.Linger = DefaultLinger
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.MaxBacklog <= 0 {
		opts.MaxBacklog = DefaultMaxBacklog
	}
	if opts.RollChunks <= 0 {
		opts.RollChunks = DefaultRollChunks
	}
	if next == 0 {
		next = 1
	}
	s := &Shipper{
		store:      opts.Store,
		reg:        opts.Registry,
		shard:      shard,
		source:     source,
		sync:       opts.Sync,
		linger:     opts.Linger,
		maxBytes:   opts.MaxBytes,
		maxBacklog: opts.MaxBacklog,
		rollChunks: opts.RollChunks,
		flushCh:    make(chan struct{}, 1),
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
		next:       next,
	}
	s.lastShipNano.Set(time.Now().UnixNano())
	go s.loop()
	return s
}

// Offer feeds committed entries from the shard log's commit hook,
// which offers each committed run once, in index order. Entries below
// the next expected index are skipped: a restarted log re-commits its
// recovered tail, and a roll may have read appended entries before
// they were offered. It never blocks and never touches OSS — it runs
// inside the log's critical path.
func (s *Shipper) Offer(entries []raft.Entry) {
	if len(entries) == 0 {
		return
	}
	s.mu.Lock()
	if s.failed != nil {
		s.mu.Unlock()
		return
	}
	s.maxOffered = max(s.maxOffered, entries[len(entries)-1].Index)
	for _, e := range entries {
		if e.Index < s.next {
			continue
		}
		s.pending = append(s.pending, e)
		s.pendingBytes += int64(len(e.Data)) + entryOverhead
		s.next = e.Index + 1
	}
	// Sync mode ships at the commit, not at the first Barrier: a client
	// batch spanning shards waits for its shards one after another, and
	// their uploads must already overlap.
	signal := s.sync || s.pendingBytes >= s.maxBytes
	s.mu.Unlock()
	if signal {
		s.signalFlush()
	}
}

// Barrier blocks until every entry offered so far is in OSS (or the
// flush fails — callers retry the append; the re-commit is dedup'd).
// Sync-mode appends call this after the raft ack.
func (s *Shipper) Barrier() error {
	s.mu.Lock()
	target := s.maxOffered
	s.mu.Unlock()
	return s.WaitShipped(target)
}

// WaitShipped blocks until every entry up to index is in OSS, or the
// flush fails (that error) or the shipper has failed or stopped. index
// must not be above what the commit hook has offered. A drain calls it
// before it archives rows applied up to index.
func (s *Shipper) WaitShipped(index uint64) error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	if s.watermark >= index {
		s.mu.Unlock()
		return nil
	}
	ch := make(chan error, 1)
	s.waiters = append(s.waiters, waiter{target: index, ch: ch})
	s.mu.Unlock()
	s.signalFlush()
	return <-ch
}

// NoteArchived records that rows at or below mark are archived into
// LogBlocks. The next chunk carries the mark as a checkpoint record so
// hydration never re-applies rows the catalog already holds, and it
// gates generation rolls (a snapshot is only worth taking once the
// archive moved).
func (s *Shipper) NoteArchived(mark uint64) {
	s.mu.Lock()
	changed := mark > s.archivedMark
	if changed {
		s.archivedMark = mark
	}
	s.mu.Unlock()
	if changed {
		s.signalFlush()
	}
}

// Overloaded reports whether the pending backlog exceeds MaxBacklog —
// the async-mode backpressure signal (OSS down, breaker open, local
// exposure at its bound).
func (s *Shipper) Overloaded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingBytes > s.maxBacklog
}

// Breaker exposes the OSS circuit breaker the shipper writes through.
func (s *Shipper) Breaker() *retry.Breaker { return s.store.Breaker() }

// Stats reports the shipper's observability counters.
func (s *Shipper) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Gen:              s.gen,
		Watermark:        s.watermark,
		UnshippedBytes:   s.pendingBytes,
		UnshippedEntries: int64(len(s.pending)),
		Fenced:           errors.Is(s.failed, ErrFenced),
	}
	s.mu.Unlock()
	st.LastShipAge = time.Duration(time.Now().UnixNano() - s.lastShipNano.Value())
	st.Chunks = s.chunks.Value()
	st.Snapshots = s.snaps.Value()
	st.Rolls = s.rolls.Value()
	st.Errors = s.errs.Value()
	return st
}

// Stop shuts the shipper down. With flush set it attempts one final
// flush first (graceful close); without, it abandons the backlog
// (crash semantics). Blocks until the ship loop exits.
func (s *Shipper) Stop(flush bool) {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.finalFlush = flush
		s.mu.Unlock()
		close(s.stopCh)
	})
	<-s.doneCh
}

func (s *Shipper) signalFlush() {
	select {
	case s.flushCh <- struct{}{}:
	default:
	}
}

func (s *Shipper) loop() {
	defer close(s.doneCh)
	ticker := time.NewTicker(s.linger)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			s.mu.Lock()
			final := s.finalFlush && s.failed == nil
			s.mu.Unlock()
			if final {
				s.flushOnce()
			}
			s.die(ErrStopped)
			return
		case <-s.flushCh:
		case <-ticker.C:
		}
		if !s.flushOnce() {
			return
		}
	}
}

// flushOnce performs one pass of the ship loop: roll the generation if
// needed, then ship the pending chunk. Returns false when the shipper
// is permanently dead (fenced or stopped). All OSS traffic happens
// here, never under the shipper mutex and never in callers' goroutines.
func (s *Shipper) flushOnce() bool {
	s.mu.Lock()
	if s.failed != nil {
		s.mu.Unlock()
		return false
	}
	if s.gen == 0 && s.next == 1 && s.archivedMark == 0 {
		// Idle shard with no history: don't open a generation for it.
		// One with history rolls on its first pass, so the generation
		// current in OSS is soon in today's layout, whatever wrote it.
		s.mu.Unlock()
		return true
	}
	archived := s.archivedMark
	gen := s.gen
	s.mu.Unlock()

	if gen == 0 || (s.chunksSinceSnap >= s.rollChunks && archived > s.snapBase) {
		switch ok, err := s.roll(); {
		case err != nil:
			s.errs.Inc()
			if errors.Is(err, ErrFenced) {
				s.die(ErrFenced)
				return false
			}
			s.failWaiters(err)
			return true
		case !ok:
			// Source hasn't caught up to the shipped watermark yet;
			// retry on the next tick.
			return true
		}
	}
	return s.shipChunk()
}

// roll opens a new generation: snapshot the shard, upload and
// read-back-verify it with its commit record (putSnapshot), register it
// as CURRENT, then sweep older generations. Returns (false, nil) when
// the source can't yet cover the shipped watermark (transient; retry
// later).
func (s *Shipper) roll() (bool, error) {
	blob, base, tip, err := s.source()
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	watermark := s.watermark
	s.mu.Unlock()
	// A snapshot whose tip is behind what the current generation
	// already covers would leave a hole between snapshot and chunks.
	if tip < watermark {
		return false, nil
	}

	gen, err := s.reg.Acquire(s.shard)
	if err != nil {
		return false, err
	}
	if err := putSnapshot(s.store, s.shard, gen, blob, tip); err != nil {
		s.cleanup(gen)
		return false, err
	}
	if err := s.reg.Register(s.shard, gen); err != nil {
		s.cleanup(gen)
		return false, err
	}

	s.seq = 0
	s.chunksSinceSnap = 0
	s.snapBase = base
	s.lastShippedMark = base
	s.snaps.Inc()
	s.rolls.Inc()

	s.mu.Lock()
	s.gen = gen
	s.watermark = tip
	drop := 0
	for drop < len(s.pending) && s.pending[drop].Index <= tip {
		s.pendingBytes -= int64(len(s.pending[drop].Data)) + entryOverhead
		drop++
	}
	s.pending = append([]raft.Entry(nil), s.pending[drop:]...)
	if s.next < tip+1 {
		s.next = tip + 1
	}
	s.mu.Unlock()
	s.lastShipNano.Set(time.Now().UnixNano())
	s.releaseReady()
	// Older generations are now garbage — this is shipped-segment
	// truncation. Best-effort: a missed delete is retried next roll.
	if err := s.reg.Sweep(s.shard, gen); err != nil {
		s.errs.Inc()
	}
	return true, nil
}

// putSnapshot uploads the snapshot of generation gen of shard, tip the
// last index it covers, then its commit record: the snapshot's exact
// length and CRC, and tip as Last. Hydration checks the snapshot against
// the record, because a snapshot cut on a frame boundary is still whole
// frames and replays short without an error. Both objects are read back
// before the caller registers the generation: register-last only
// guarantees atomicity if a registered generation's snapshot is beyond
// suspicion, even against a store that persisted a truncated object
// while acking the Put, and the registration sweeps the older
// generations.
func putSnapshot(store *oss.RetryingStore, shard int64, gen uint64, blob []byte, tip uint64) error {
	key := snapKey(shard, gen)
	if err := store.Put(key, blob); err != nil {
		return err
	}
	got, err := store.Get(key)
	if err != nil {
		return err
	}
	rec := commitOf(blob)
	rec.Last = tip
	if !rec.matches(got) {
		return fmt.Errorf("ship: snapshot read-back mismatch for %s", key)
	}
	ckey, cdata := snapCommitKey(shard, gen), encodeCommit(rec)
	if err := store.Put(ckey, cdata); err != nil {
		return err
	}
	if got, err = store.Get(ckey); err != nil {
		return err
	}
	if !bytes.Equal(got, cdata) {
		return fmt.Errorf("ship: snapshot record read-back mismatch for %s", ckey)
	}
	return nil
}

// shipChunk uploads the pending run as one chunk + commit record. A
// chunk with no entries still ships when the archive mark advanced, so
// hydration learns about rows that moved into LogBlocks since the
// snapshot.
func (s *Shipper) shipChunk() bool {
	s.mu.Lock()
	entries := append([]raft.Entry(nil), s.pending...)
	mark := s.archivedMark
	gen := s.gen
	s.mu.Unlock()

	if gen == 0 || (len(entries) == 0 && mark <= s.lastShippedMark) {
		return true
	}
	if s.reg.Registered(s.shard) > gen {
		s.die(ErrFenced)
		return false
	}
	blob := raft.AppendEntries(nil, entries)
	if mark > s.lastShippedMark {
		blob = raft.AppendMark(blob, mark)
	}
	ckey := chunkKey(s.shard, gen, s.seq)
	if err := s.store.Put(ckey, blob); err != nil {
		s.errs.Inc()
		s.failWaiters(err)
		return true
	}
	// Cheap size probe before the commit record: a store that acked a
	// truncated write must not get this chunk committed.
	info, err := s.store.Head(ckey)
	if err != nil {
		s.errs.Inc()
		s.failWaiters(err)
		return true
	}
	if info.Size != int64(len(blob)) {
		s.errs.Inc()
		s.failWaiters(fmt.Errorf("ship: chunk %s stored %d of %d bytes", ckey, info.Size, len(blob)))
		return true
	}
	rec := commitOf(blob)
	if len(entries) > 0 {
		rec.First = entries[0].Index
		rec.Last = entries[len(entries)-1].Index
	}
	if s.reg.Registered(s.shard) > gen {
		s.die(ErrFenced)
		return false
	}
	if err := s.store.Put(commitKey(s.shard, gen, s.seq), encodeCommit(rec)); err != nil {
		s.errs.Inc()
		s.failWaiters(err)
		return true
	}

	s.seq++
	s.chunksSinceSnap++
	s.lastShippedMark = mark
	s.chunks.Inc()
	s.lastShipNano.Set(time.Now().UnixNano())
	if len(entries) > 0 {
		last := entries[len(entries)-1].Index
		s.mu.Lock()
		if last > s.watermark {
			s.watermark = last
		}
		drop := 0
		for drop < len(s.pending) && s.pending[drop].Index <= last {
			s.pendingBytes -= int64(len(s.pending[drop].Data)) + entryOverhead
			drop++
		}
		s.pending = append([]raft.Entry(nil), s.pending[drop:]...)
		s.mu.Unlock()
	}
	s.releaseReady()
	return true
}

// releaseReady wakes barrier waiters whose target is now shipped.
func (s *Shipper) releaseReady() {
	s.mu.Lock()
	var ready []waiter
	keep := s.waiters[:0]
	for _, w := range s.waiters {
		if w.target <= s.watermark {
			ready = append(ready, w)
		} else {
			keep = append(keep, w)
		}
	}
	s.waiters = keep
	s.mu.Unlock()
	for _, w := range ready {
		w.ch <- nil
	}
}

// failWaiters errors every pending barrier: when a flush fails the
// callers retry their appends (the re-commit is content-dedup'd)
// instead of blocking on a dark object store.
func (s *Shipper) failWaiters(err error) {
	s.mu.Lock()
	ws := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, w := range ws {
		w.ch <- err
	}
}

// die marks the shipper permanently failed, drains waiters, and — when
// fenced — deletes its own generation's objects so a lost handoff race
// leaves nothing orphaned.
func (s *Shipper) die(err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	gen := s.gen
	ws := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, w := range ws {
		w.ch <- err
	}
	if errors.Is(err, ErrFenced) && gen > 0 {
		s.cleanup(gen)
	}
}

// cleanup best-effort deletes a generation this shipper wrote but
// which never became (or no longer is) CURRENT.
func (s *Shipper) cleanup(gen uint64) {
	if err := s.reg.DeleteGeneration(s.shard, gen); err != nil {
		s.errs.Inc()
	}
}
