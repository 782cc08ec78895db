// Package worker implements LogStore's execution layer (paper §3): a
// worker node hosts a set of shards, each a group-committed log in front
// of a write-optimized row store (two-phase write, phase one), runs the
// data builder that archives sealed segments to object storage as
// LogBlocks (phase two), and executes sub-queries — over its shards'
// real-time stores and over archived LogBlocks fetched through its
// multi-level cache and parallel prefetcher.
package worker

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"logstore/internal/bitutil"
	"logstore/internal/builder"
	"logstore/internal/cache"
	"logstore/internal/flow"
	"logstore/internal/index/sma"
	"logstore/internal/logblock"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/prefetch"
	"logstore/internal/query"
	"logstore/internal/raft"
	"logstore/internal/rowstore"
	"logstore/internal/schema"
	"logstore/internal/ship"
	"logstore/internal/wal"
)

// Config configures one worker node.
type Config struct {
	ID flow.WorkerID
	// CapacityPerSec is the worker's advertised write capacity c(D_k)
	// (rows/sec), used by the traffic scheduler.
	CapacityPerSec float64
	// MemoryCacheBytes / DiskCacheBytes / DiskCacheDir size the block
	// cache levels (paper: 8 GB / 200 GB).
	MemoryCacheBytes int64
	DiskCacheBytes   int64
	DiskCacheDir     string
	// PrefetchThreads sizes the parallel prefetch pool (0 = 32, the
	// paper's; negative = no pool, serial block loading: the Figure 16
	// baseline).
	PrefetchThreads int
	// QueryConcurrency bounds how many LogBlocks one query processes
	// concurrently (0 = GOMAXPROCS).
	QueryConcurrency int
	// BlockSize is the cache/prefetch file-block granularity.
	BlockSize int64
	// ArchiveInterval is the builder cadence.
	ArchiveInterval time.Duration
	// RowStore tunes per-shard segment rollover.
	RowStore rowstore.Options
	// Builder configures LogBlock construction.
	Builder builder.Config
	// DataDir, when set, makes every shard's raft log durable on disk
	// (WAL-backed storage under DataDir/shard-N/replica-0, the layout of
	// replicated builds, so their data directories still recover); empty
	// keeps raft state in memory.
	DataDir string
	// RaftQueueItems bounds each shard's raft sync_queue and
	// apply_queue (BFC) in entries; zero selects the raft defaults.
	RaftQueueItems int
	// WALShip, when set, streams every shard's committed raft log into
	// OSS (continuous WAL shipping) and hydrates shards whose data
	// directory was wiped from the shipped generation. Requires a
	// DataDir; all workers of a cluster must share the same
	// Options.Registry.
	WALShip *ship.Options
	// ReadHome resolves the worker that block sub-queries for the object
	// at path are sent to (flow.ReadHome over the cluster's health view);
	// every LogBlock this worker commits is handed to that worker's block
	// cache (AdmitBlock). It may return nil: no such worker right now.
	// Unset, the worker is its own read home — it is the only reader a
	// lone worker has.
	ReadHome func(path string) *Worker
}

// ErrWorkerDown is returned by Append and the query entry points after
// Crash or Close: the caller (broker) should fail over to another
// worker or retry after recovery.
var ErrWorkerDown = errors.New("worker: node is down")

// Shard is one table shard hosted by a worker: a log (raft.Node) whose
// state machine is the shard's row store. The node is the only copy of
// the shard's log; durability beyond the process comes from
// the WAL under DataDir and from WAL shipping (DESIGN.md, "One node per
// shard").
type Shard struct {
	ID   flow.ShardID
	rs   *rowstore.Store
	node *raft.Node
	wal  *raft.WALStorage // the node's storage; nil without DataDir
	sch  *schema.Schema
	// applied is the highest raft index the node has applied to rs;
	// once those rows are archived to object storage, the raft WAL can
	// be checkpointed up to it.
	applied atomic.Uint64
	// applyMu serializes state-machine applies against the archive
	// seal: a drain seals rs and snapshots `applied` under it, so the
	// archived row set and the checkpointed raft index agree exactly.
	applyMu sync.Mutex
	// seen suppresses duplicate batches: every sub-proposal carries a
	// content-derived batch id, so a batch retried after an ambiguous
	// outcome (the worker crashed between commit and ack) applies once
	// even if it commits at two raft indexes (or inside two different
	// groups).
	seen *dedupSet
	// units / subs feed CoalesceStats: raft proposals the append path
	// issued for this shard and the sub-proposals they carried.
	units atomic.Int64
	subs  atomic.Int64
	// shipper streams this shard's committed raft log into OSS; nil
	// when WAL shipping is off.
	shipper *ship.Shipper
	// Apply-path observability. decodeFails / appendFails count subs
	// the node could not apply — both should stay zero outside crash
	// tests, and a nonzero value means acked rows were dropped (the
	// soak gate asserts on them). dedupSkips counts subs suppressed as
	// content-addressed duplicates; legitimate only when ambiguous
	// outcomes force retries (a worker crash and recovery).
	decodeFails atomic.Int64
	appendFails atomic.Int64
	dedupSkips  atomic.Int64
	// appliedRows counts rows the node inserted into the row store;
	// comparing it against acked and archived+resident totals localizes
	// a loss to the raft/apply side or the archive side.
	appliedRows atomic.Int64
	// frameFails counts entries whose group framing failed to decode
	// (subs after the corrupt point are silently lost); staleSkips
	// counts entries dropped by the index<=applied replay guard. Both
	// must be zero outside crash recovery.
	frameFails atomic.Int64
	staleSkips atomic.Int64
	// applyDelay (ns), when nonzero, stalls the node before each
	// state-machine apply — the gray-failure injection for a lagging
	// apply: commits keep acking (after Wait's 5 s bound), the apply
	// queue backs up, and BFC (not memory growth) must absorb the lag.
	applyDelay atomic.Int64
}

// Worker is one execution-layer node.
type Worker struct {
	cfg     Config
	sch     *schema.Schema
	store   *oss.RetryingStore
	catalog *meta.Manager

	mu     sync.RWMutex
	shards map[flow.ShardID]*Shard
	// adding holds, for each shard AddShard is building outside mu, a
	// channel it closes when done.
	adding map[flow.ShardID]chan struct{}

	blockCache  *cache.BlockCache
	objectCache *cache.ObjectCache
	pool        *prefetch.Service
	bld         *builder.Builder
	// archiveMu serializes segment archiving: the background loop and
	// explicit FlushShard calls must not drain the same segments twice.
	archiveMu sync.Mutex

	archiveStop chan struct{}
	archiveDone chan struct{}
	stopOnce    sync.Once
	// down flips when the worker crashes or closes; entry points fail
	// fast with ErrWorkerDown instead of hanging on stopped shard logs.
	down atomic.Bool
	// crashed marks an ungraceful stop: the final archive drain is
	// skipped, abandoning in-memory rows exactly as SIGKILL would.
	crashed atomic.Bool
	// hydrations counts shards rebuilt from the shipped OSS log after
	// disk loss (empty data dir + registered generation).
	hydrations atomic.Int64
	// handoffs counts the LogBlocks this worker committed by where their
	// bytes went (blocks, bytes): its own block cache, a peer's, nowhere.
	handoffs [3][2]atomic.Int64
}

// objectCacheBytes sizes each worker's decoded-object cache.
const objectCacheBytes = 32 << 20

// Outcomes of a hand-off, indexing Worker.handoffs.
const (
	handoffLocal = iota
	handoffPeer
	handoffDropped
)

// New constructs a worker.
func New(cfg Config, sch *schema.Schema, store oss.Store, catalog *meta.Manager) (*Worker, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if cfg.MemoryCacheBytes <= 0 {
		cfg.MemoryCacheBytes = 64 << 20
	}
	if cfg.PrefetchThreads == 0 {
		cfg.PrefetchThreads = 32
	}
	if cfg.QueryConcurrency <= 0 {
		cfg.QueryConcurrency = runtime.GOMAXPROCS(0)
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = prefetch.DefaultBlockSize
	}
	if cfg.ArchiveInterval <= 0 {
		cfg.ArchiveInterval = time.Second
	}
	bc, err := cache.NewBlockCache(cache.BlockCacheConfig{
		MemoryBytes: cfg.MemoryCacheBytes,
		DiskBytes:   cfg.DiskCacheBytes,
		DiskDir:     cfg.DiskCacheDir,
	})
	if err != nil {
		return nil, err
	}
	// All of the worker's OSS traffic — prefetch reads, archive
	// uploads, compaction rewrites — retries transient faults behind
	// one shared circuit breaker. A store that already retries keeps
	// its own wrapper.
	rs := oss.WithDefaultRetry(store)
	w := &Worker{
		cfg:         cfg,
		sch:         sch,
		store:       rs,
		catalog:     catalog,
		shards:      make(map[flow.ShardID]*Shard),
		adding:      make(map[flow.ShardID]chan struct{}),
		blockCache:  bc,
		objectCache: cache.NewObjectCache(objectCacheBytes),
		archiveStop: make(chan struct{}),
		archiveDone: make(chan struct{}),
	}
	cfg.Builder.Handoff = w.handOff
	w.bld, err = builder.New(cfg.Builder, sch, rs, catalog)
	if err != nil {
		return nil, err
	}
	if cfg.PrefetchThreads > 0 {
		w.pool = prefetch.NewService(cfg.PrefetchThreads, cfg.PrefetchThreads*4)
	}
	go w.archiveLoop()
	return w, nil
}

// ID returns the worker's id.
func (w *Worker) ID() flow.WorkerID { return w.cfg.ID }

// Capacity returns the advertised write capacity.
func (w *Worker) Capacity() float64 { return w.cfg.CapacityPerSec }

// AddShard creates (and hosts) a shard. Idempotent per id. With a
// DataDir configured, the shard recovers its raft state from its
// persisted WAL: it resumes above the durable applied mark (those rows
// are already archived to OSS) with its duplicate-suppression set
// preloaded from the replayed log, so batches retried across the
// restart still apply exactly once.
//
// The shard is built outside the worker lock — its WAL opened and
// replayed, and the entries above the applied mark applied to its row
// store, so a query made once AddShard returns sees every acked row —
// so that shards added at once build side by side and no append or
// query waits for them. An AddShard of an id already being added waits
// for that one.
func (w *Worker) AddShard(id flow.ShardID) error {
	w.mu.Lock()
	for {
		if _, ok := w.shards[id]; ok {
			w.mu.Unlock()
			return nil
		}
		busy, ok := w.adding[id]
		if !ok {
			break
		}
		w.mu.Unlock()
		<-busy
		w.mu.Lock()
	}
	done := make(chan struct{})
	w.adding[id] = done
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.adding, id)
		w.mu.Unlock()
		close(done)
	}()

	sh, hydrated, err := w.buildShard(id)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.down.Load() {
		// The worker stopped while the shard was built: shutdown has
		// stopped the shards it found, and this one is not among them.
		sh.stop(false)
		return ErrWorkerDown
	}
	if hydrated {
		w.hydrations.Add(1)
	}
	w.shards[id] = sh
	return nil
}

// buildShard makes shard id ready to serve: its row store, its WAL
// recovered (from the shipped log on OSS first if the disk was lost)
// and its log opened. It reports whether the WAL was
// hydrated from OSS.
func (w *Worker) buildShard(id flow.ShardID) (*Shard, bool, error) {
	// Disk-loss hydration reads OSS (latest shipped snapshot + chunk
	// suffix) and rewrites the shard's WAL directory, after which the
	// normal recovery path below replays it exactly as if the disk had
	// survived.
	hydratedIDs, hydrated, err := w.maybeHydrateShard(id)
	if err != nil {
		return nil, false, err
	}
	rs, err := rowstore.New(w.sch, w.cfg.RowStore)
	if err != nil {
		return nil, false, err
	}
	sh := &Shard{ID: id, rs: rs, sch: w.sch, seen: newDedupSet(1 << 16)}
	// Storage is opened before the state machine so the recovered
	// applied-mark can gate replay (idempotence across restarts: entries
	// ≤ mark were already archived to OSS).
	var storage raft.Storage = raft.NewMemoryStorage()
	if w.cfg.DataDir != "" {
		sh.wal, err = raft.OpenWALStorage(w.walDir(id), wal.Options{})
		if err != nil {
			return nil, false, fmt.Errorf("worker %d shard %d: open WAL: %w", w.cfg.ID, id, err)
		}
		storage = sh.wal
		mark := sh.wal.AppliedMark()
		sh.applied.Store(mark)
		// Preload dedup with every replayed batch at or below the mark:
		// those batches are durable in the archive, so a client retry
		// arriving after recovery must be a no-op. Entries above the
		// mark are NOT preloaded — they replay through the state machine
		// and register there.
		preload := func(bid uint64, _ []byte) error {
			sh.seen.Add(bid, 0)
			return nil
		}
		for _, e := range sh.wal.ReplayedPrefix() {
			_ = ForEachSub(e.Data, preload)
		}
		for _, e := range sh.wal.Entries() {
			if e.Index > mark {
				break
			}
			_ = ForEachSub(e.Data, preload)
		}
	}
	// A hydrated shard's checkpointed prefix is not replayable from
	// the recovery WAL — its dedup ids traveled in the snapshot.
	for _, bid := range hydratedIDs {
		sh.seen.Add(bid, 0)
	}
	if w.cfg.WALShip != nil && sh.wal != nil {
		// The shipper expects the commit stream to resume just above
		// the recovered log tip; everything at or below it is covered
		// by the first generation's snapshot.
		bootTip, _ := sh.wal.Base()
		if entries := sh.wal.Entries(); len(entries) > 0 {
			bootTip = entries[len(entries)-1].Index
		}
		sh.shipper = ship.New(*w.cfg.WALShip, int64(id), bootTip+1, w.shipSource(sh))
	}
	// The node offers its committed entries to the shard's shipper
	// before the proposer is acked and before it applies them. It
	// applies the entries it recovered above the mark before it returns.
	var hook func([]raft.Entry)
	if sh.shipper != nil {
		hook = sh.shipper.Offer
	}
	sh.node, err = raft.NewNode(raft.Config{
		SM:              raft.StateMachineFunc(sh.apply),
		Storage:         storage,
		SyncQueueItems:  w.cfg.RaftQueueItems,
		ApplyQueueItems: w.cfg.RaftQueueItems,
		CommitHook:      hook,
	})
	if err != nil {
		if sh.shipper != nil {
			sh.shipper.Stop(false)
		}
		if sh.wal != nil {
			_ = sh.wal.Close()
		}
		return nil, false, err
	}
	return sh, hydrated, nil
}

// stop stops a built shard: its shipper first, so that a graceful stop
// can still read the WAL for the final snapshot, then its log, WAL and
// row store.
func (sh *Shard) stop(graceful bool) {
	if sh.shipper != nil {
		// Graceful close flushes the remaining backlog to OSS; a crash
		// abandons it (the exposure window a recovery must tolerate).
		sh.shipper.Stop(graceful)
	}
	// Stopping the node fails what is still in flight with ErrStopped;
	// callers in PendingAppend.Wait then find the worker down and
	// return ErrWorkerDown.
	sh.node.Stop()
	if sh.wal != nil {
		_ = sh.wal.Close()
	}
	sh.rs.Close()
}

// walDir is the shard's raft WAL directory under DataDir.
func (w *Worker) walDir(id flow.ShardID) string {
	return fmt.Sprintf("%s/shard-%d/replica-0", w.cfg.DataDir, id)
}

// maybeHydrateShard rebuilds a shard's WAL from the shipped OSS
// generation when the local data directory is empty (disk loss) but a
// generation is registered. Returns the snapshot's dedup ids for
// preloading. Runs before the worker lock: it does OSS reads and disk
// writes that must not serialize the worker.
func (w *Worker) maybeHydrateShard(id flow.ShardID) ([]uint64, bool, error) {
	opts := w.cfg.WALShip
	if opts == nil || opts.Registry == nil || w.cfg.DataDir == "" {
		return nil, false, nil
	}
	dir := w.walDir(id)
	names, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, false, err
	}
	if len(names) > 0 {
		return nil, false, nil // local WAL survived: normal recovery
	}
	st, ok, _, err := ship.Hydrate(opts.Store, opts.Registry, int64(id))
	if err != nil {
		return nil, false, fmt.Errorf("worker %d shard %d: hydrate: %w", w.cfg.ID, id, err)
	}
	if !ok {
		return nil, false, nil // nothing ever shipped: genuinely fresh shard
	}
	if err := raft.WriteRecoveryWAL(dir, wal.Options{}, st.Term, st.Applied, st.AppliedTerm, st.Entries); err != nil {
		return nil, false, fmt.Errorf("worker %d shard %d: recovery WAL: %w", w.cfg.ID, id, err)
	}
	return st.DedupIDs, true, nil
}

// shipSource snapshots the shard's logical state for a generation
// roll: the WAL base (= archive checkpoint), the live entries above
// it, and the dedup ids at or below it — all under the apply lock, so
// the cut is consistent with the archived row set. Shipping requires
// DataDir, so the WAL exists.
func (w *Worker) shipSource(sh *Shard) ship.Source {
	ws := sh.wal
	return func() (ship.State, error) {
		sh.applyMu.Lock()
		defer sh.applyMu.Unlock()
		base, baseTerm := ws.Base()
		return ship.State{
			Term:        ws.Term(),
			Applied:     base,
			AppliedTerm: baseTerm,
			DedupIDs:    sh.seen.SnapshotBelow(base),
			Entries:     ws.Entries(),
		}, nil
	}
}

// apply is the shard's state machine: it inserts a committed entry's
// rows into the row store. One raft entry carries a group of client
// batches; each sub applies (and dedups) independently, and the entry's
// index is marked applied only after every sub landed, so WAL replay
// after a crash re-presents a partially-applied group.
func (sh *Shard) apply(index uint64, data []byte) {
	if d := sh.applyDelay.Load(); d > 0 {
		// Injected apply lag sleeps before taking the apply lock: the
		// backlog accumulates in the bounded apply queue, not behind a
		// held mutex.
		time.Sleep(time.Duration(d))
	}
	sh.applyMu.Lock()
	defer sh.applyMu.Unlock()
	if index <= sh.applied.Load() {
		// Replayed entry already applied (and archived). Outside WAL
		// replay this must never fire: raft delivers strictly increasing
		// indexes, so a hit here on a live node means an acked entry's
		// rows are being dropped.
		sh.staleSkips.Add(1)
		return
	}
	ok := true
	err := ForEachSub(data, func(bid uint64, batch []byte) error {
		slot, dup := sh.seen.Probe(bid)
		if dup {
			// A retried batch that already applied at an earlier index:
			// consume the sub without duplicating rows.
			sh.dedupSkips.Add(1)
			return nil
		}
		// The row store keeps batch, which aliases the entry's Data:
		// raft never modifies an entry's Data once it is proposed, and
		// every Data it decodes (raft.DecodeEntry, so WAL replay and
		// hydration too) is a fresh buffer.
		n, aerr := sh.rs.AppendBatch(batch)
		switch {
		case aerr == nil:
			sh.seen.Insert(slot, bid, index)
			sh.appliedRows.Add(int64(n))
		case errors.Is(aerr, rowstore.ErrClosed):
			sh.appendFails.Add(1)
			ok = false
		default:
			sh.decodeFails.Add(1)
			ok = false
		}
		return nil
	})
	if err != nil {
		sh.frameFails.Add(1)
	}
	if err == nil && ok {
		sh.applied.Store(index)
	}
}

// Shards returns the ids of hosted shards.
func (w *Worker) Shards() []flow.ShardID {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]flow.ShardID, 0, len(w.shards))
	for id := range w.shards {
		out = append(out, id)
	}
	return out
}

func (w *Worker) shard(id flow.ShardID) (*Shard, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	sh, ok := w.shards[id]
	if !ok {
		return nil, fmt.Errorf("worker %d: no shard %d", w.cfg.ID, id)
	}
	return sh, nil
}

// Append writes one batch of rows into a shard (phase one of the
// two-phase write) and waits for the outcome. The batch commits
// through the shard's raft node — the client is acked only after the
// entry is persisted; backpressure from the raft queues surfaces as
// raft.ErrBackpressure. Rows are checked against the schema first;
// callers that have already done so use AppendTrustedCtx.
func (w *Worker) Append(shardID flow.ShardID, rows []schema.Row) error {
	for i, r := range rows {
		if err := r.Conforms(w.sch); err != nil {
			return fmt.Errorf("worker %d shard %d: row %d: %w", w.cfg.ID, shardID, i, err)
		}
	}
	return w.AppendTrustedCtx(context.Background(), shardID, rows)
}

// AppendTrustedCtx is EnqueueAppend of a single batch, waited for.
func (w *Worker) AppendTrustedCtx(ctx context.Context, shardID flow.ShardID, rows []schema.Row) error {
	one := [1][]schema.Row{rows}
	return w.EnqueueAppend(ctx, shardID, one[:]).Wait()
}

// PendingAppend is the outcome of one EnqueueAppend call; Wait collects
// it.
type PendingAppend struct {
	err error // the outcome, when sh is nil

	// Otherwise the unit is one group proposal in flight on sh's raft
	// node.
	w    *Worker
	sh   *Shard
	prop raft.Pending
}

// Wait blocks until the unit has committed or failed and returns that
// outcome; a node stopped under it by the worker going down fails it
// with ErrWorkerDown. It
// takes no context: an in-flight proposal is not abandoned mid-commit —
// a commit outcome must stay unambiguous. Wait then waits, for at most
// 5 s more, until the node has applied the commit index it reads after
// the ack: that index covers this unit's entry (and may cover later
// ones), so an ack means the rows are visible. A stop before the apply
// leaves the unit committed in the log the shard restarts on, and a
// slow apply past the bound leaves it committed too: both still ack.
func (p PendingAppend) Wait() error {
	if p.sh == nil {
		return p.err
	}
	if err := p.w.stopped(p.prop.Wait()); err != nil {
		return err
	}
	p.sh.waitApplied()
	if p.sh.shipper != nil && p.w.cfg.WALShip.Sync {
		// Sync shipping: the ack must imply the rows are in OSS. The
		// commit hook offered this unit's entry before the proposal was
		// acked, so the barrier covers it. On error the caller retries
		// and the re-commit dedups.
		if err := p.sh.shipper.Barrier(); err != nil {
			return fmt.Errorf("worker %d shard %d: ship barrier: %w", p.w.cfg.ID, p.sh.ID, err)
		}
	}
	return nil
}

// EnqueueAppend is the worker's one write entry: it hands the shard a
// unit of batches — each encoded as its own sub-proposal with its own
// content-derived batch id, so a batch retried after an ambiguous
// outcome (a crash between commit and ack) is suppressed however it is
// regrouped — and returns without waiting for the commit, so a
// broker can enqueue every shard of a client batch before it waits on
// any. The unit is one raft proposal, framed once into the buffer raft
// retains and pushed onto the shard node's sync_queue, where it meets
// other callers' units: the node group-commits whatever is queued (one
// WAL sync). Rows are not checked against the schema here: the broker
// has done that, and the row store checks again on insert.
//
// It never blocks and fails fast, before any raft work, on a dead ctx,
// a down worker, an overloaded shipper — and a full sync_queue: that
// refusal, raft.ErrBackpressure, is the paper's BFC reaching the client,
// and nothing of the unit is retained. A shard's node is its whole peer
// set and leads from AddShard on, so the unit is proposed at once.
func (w *Worker) EnqueueAppend(ctx context.Context, shardID flow.ShardID, batches [][]schema.Row) PendingAppend {
	if err := ctx.Err(); err != nil {
		return PendingAppend{err: err}
	}
	if w.down.Load() {
		return PendingAppend{err: ErrWorkerDown}
	}
	sh, err := w.shard(shardID)
	if err != nil {
		return PendingAppend{err: err}
	}
	if sh.shipper != nil && !w.cfg.WALShip.Sync && sh.shipper.Overloaded() {
		// Async shipping bounds acked-but-unshipped exposure: once the
		// backlog exceeds MaxBacklog (OSS down, breaker open), refuse
		// new appends instead of growing local-only acked state.
		return PendingAppend{err: raft.ErrBackpressure}
	}
	prop, err := sh.node.ProposeAsync(encodeUnit(batches))
	if err != nil {
		return PendingAppend{err: w.stopped(err)}
	}
	sh.units.Add(1)
	sh.subs.Add(int64(len(batches)))
	return PendingAppend{w: w, sh: sh, prop: prop}
}

// stopped maps raft.ErrStopped, the error of a node stopped under a
// proposal, to ErrWorkerDown when the worker is down, so that callers
// fail over as from a worker found down at enqueue.
func (w *Worker) stopped(err error) error {
	if errors.Is(err, raft.ErrStopped) && w.down.Load() {
		return ErrWorkerDown
	}
	return err
}

// SlowShardApply injects (or clears, d = 0) a delay before every
// apply of one shard — the gray-failure knob for a node that is alive
// but lagging.
func (w *Worker) SlowShardApply(id flow.ShardID, d time.Duration) error {
	sh, err := w.shard(id)
	if err != nil {
		return err
	}
	sh.applyDelay.Store(int64(d))
	return nil
}

// MemoryFootprint approximates the worker's dynamic memory: raft
// sync/apply queue payloads, unshipped WAL backlog, and the two cache
// levels. The brownout gate asserts this stays bounded while faults
// make every queue want to grow — BFC's promise is precisely that
// degradation shows up as rejections, not as memory.
func (w *Worker) MemoryFootprint() int64 {
	var total int64
	w.mu.RLock()
	shards := make([]*Shard, 0, len(w.shards))
	for _, sh := range w.shards {
		shards = append(shards, sh)
	}
	w.mu.RUnlock()
	for _, sh := range shards {
		syncBytes, applyBytes := sh.node.QueueBytes()
		total += syncBytes + applyBytes
		if sh.shipper != nil {
			total += sh.shipper.Stats().UnshippedBytes
		}
	}
	total += w.blockCache.MemoryUsed()
	total += w.objectCache.Used()
	return total
}

// ApplyCounters aggregates the shards' apply-path counters.
// Every field except DedupSkips and AppliedRows must be zero in a
// healthy cluster: each counts acked rows that were silently dropped.
// DedupSkips counts content-addressed duplicate suppressions,
// legitimate only when ambiguous outcomes force retries (a worker
// crash and recovery). AppliedRows is the total row count inserted
// into the row stores — comparing it against acked and
// archived+resident totals localizes a loss to the raft/apply side or
// the archive side.
type ApplyCounters struct {
	DecodeFails int64 // subs whose batch failed to decode
	AppendFails int64 // subs whose rows the row store rejected
	FrameFails  int64 // entries whose group framing failed mid-decode
	StaleSkips  int64 // live entries dropped by the replay guard
	DedupSkips  int64
	AppliedRows int64
}

// Lost reports whether any counter indicates dropped acked rows.
func (a ApplyCounters) Lost() bool {
	return a.DecodeFails > 0 || a.AppendFails > 0 || a.FrameFails > 0 || a.StaleSkips > 0
}

// Add accumulates b into a.
func (a *ApplyCounters) Add(b ApplyCounters) {
	a.DecodeFails += b.DecodeFails
	a.AppendFails += b.AppendFails
	a.FrameFails += b.FrameFails
	a.StaleSkips += b.StaleSkips
	a.DedupSkips += b.DedupSkips
	a.AppliedRows += b.AppliedRows
}

// ApplyStats sums the apply-path counters across shards.
func (w *Worker) ApplyStats() ApplyCounters {
	var out ApplyCounters
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, sh := range w.shards {
		out.Add(ApplyCounters{
			DecodeFails: sh.decodeFails.Load(),
			AppendFails: sh.appendFails.Load(),
			FrameFails:  sh.frameFails.Load(),
			StaleSkips:  sh.staleSkips.Load(),
			DedupSkips:  sh.dedupSkips.Load(),
			AppliedRows: sh.appliedRows.Load(),
		})
	}
	return out
}

// CoalesceStats sums, across shards, how many raft proposals the append
// path issued — one per unit EnqueueAppend accepted — and how many
// sub-proposals (tenant batches) those carried; the ratio is how many
// batches share a raft entry.
func (w *Worker) CoalesceStats() (groups, batches int64) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, sh := range w.shards {
		groups += sh.units.Load()
		batches += sh.subs.Load()
	}
	return groups, batches
}

// ShipSummary aggregates WAL-shipping observability across a worker's
// shards: the exposure window (unshipped bytes/entries, oldest
// last-ship age) plus lifetime ship counters.
type ShipSummary struct {
	Shards           int
	UnshippedBytes   int64
	UnshippedEntries int64
	MaxLastShipAge   time.Duration
	Chunks           int64
	Snapshots        int64
	Rolls            int64
	Errors           int64
	Fenced           int
}

// ShipStats sums shipping stats across shards (zero value when WAL
// shipping is off).
func (w *Worker) ShipStats() ShipSummary {
	var out ShipSummary
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, sh := range w.shards {
		if sh.shipper == nil {
			continue
		}
		st := sh.shipper.Stats()
		out.Shards++
		out.UnshippedBytes += st.UnshippedBytes
		out.UnshippedEntries += st.UnshippedEntries
		if st.LastShipAge > out.MaxLastShipAge {
			out.MaxLastShipAge = st.LastShipAge
		}
		out.Chunks += st.Chunks
		out.Snapshots += st.Snapshots
		out.Rolls += st.Rolls
		out.Errors += st.Errors
		if st.Fenced {
			out.Fenced++
		}
	}
	return out
}

// Hydrations reports how many shards this worker rebuilt from the
// shipped OSS log (disk-loss recovery).
func (w *Worker) Hydrations() int64 { return w.hydrations.Load() }

// QueryRealtimeCtx executes a query over one shard's row store (the
// not-yet-archived data), returning a partial result whose Resident
// names the segments the scan covered. A shard with nothing resident
// answers with a bare empty partial before any query set-up: archived
// reads pay for this call too. The tenant and time range are matched on
// the row tables (rowstore.Store.SelectTenant), which also decides the
// predicates on those two columns; for the rest, only the columns they
// test are decoded, a block of scanBatch candidates at a time, and of
// the matches only the projected columns, straight into one result slab
// — so the allocations do not grow with the matches. The scan is pure
// memory work, so the context is checked at entry and once per block
// rather than per row.
func (w *Worker) QueryRealtimeCtx(ctx context.Context, shardID flow.ShardID, q *query.Query) (*query.Result, error) {
	if w.down.Load() {
		return nil, ErrWorkerDown
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh, err := w.shard(shardID)
	if err != nil {
		return nil, err
	}
	tenant, minTS, maxTS, ok := q.KeyRange(w.sch)
	if !ok {
		return nil, fmt.Errorf("worker: query must constrain %s with equality", w.sch.TenantCol)
	}
	if rows, _, _ := sh.rs.Stats(); rows == 0 {
		return &query.Result{}, nil
	}
	preds, err := q.Compile(w.sch)
	if err != nil {
		return nil, err
	}
	res := query.NewResult(q, w.sch)
	sel, covered := sh.rs.SelectTenant(tenant, minTS, maxTS)
	res.Resident = covered
	if sel.Len() == 0 {
		return res, nil
	}
	countOnly := q.CountStar && q.GroupBy == ""
	var matched []int32 // positions in sel
	if !countOnly {
		matched = make([]int32, 0, sel.Len())
	}
	predCols, local := residualPreds(preds, w.sch, tenant, minTS, maxTS)
	switch {
	case len(local) == 0 && countOnly: // every candidate matches
		res.Count = int64(sel.Len())
	case len(local) == 0:
		for i := range sel.Len() {
			matched = append(matched, int32(i))
		}
	default:
		const scanBatch = 1024
		block := min(scanBatch, sel.Len())
		idx := make([]int32, block)
		cand := cellRows(block, len(predCols))
		for first := 0; first < sel.Len(); first += block {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			n := min(block, sel.Len()-first)
			for k := range idx[:n] {
				idx[k] = int32(first + k)
			}
			sel.Decode(idx[:n], predCols, cand[:n])
			for k, r := range cand[:n] {
				switch {
				case !query.EvalCompiled(local, r):
				case countOnly:
					res.Count++
				default:
					matched = append(matched, idx[k])
				}
			}
		}
	}
	if len(matched) > 0 {
		cols := query.EffectiveColumns(q, w.sch)
		rows := cellRows(len(matched), len(cols))
		sel.Decode(matched, cols, rows)
		res.AddRows(q, rows)
	}
	return res, nil
}

// residualPreds drops the predicates the row tables have already
// decided for every row SelectTenant(tenant, minTS, maxTS) returns — one
// on the tenant column that holds for tenant, a comparison on the time
// column that holds at both ends of [minTS, maxTS] — and re-points the
// rest at their columns' places in the projection it returns, the
// distinct columns they test.
func residualPreds(preds []query.CompiledPred, sch *schema.Schema, tenant, minTS, maxTS int64) ([]int, []query.CompiledPred) {
	tenantIdx, timeIdx := sch.TenantIdx(), sch.TimeIdx()
	var cols []int
	var local []query.CompiledPred
	for _, cp := range preds {
		p := cp.Pred
		switch {
		case p.Match:
		case cp.Col == tenantIdx && p.EvalRow(schema.IntValue(tenant)):
			continue
		case cp.Col == timeIdx && p.Op != sma.NE &&
			p.EvalRow(schema.IntValue(minTS)) && p.EvalRow(schema.IntValue(maxTS)):
			continue
		}
		j := slices.Index(cols, cp.Col)
		if j < 0 {
			j = len(cols)
			cols = append(cols, cp.Col)
		}
		local = append(local, query.CompiledPred{Col: j, Pred: p})
	}
	return cols, local
}

// cellRows returns n rows of width cells each, cut from one cell slab.
func cellRows(n, width int) []schema.Row {
	cells := make([]schema.Value, n*width)
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = cells[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// AdmitBlock stores a LogBlock's packed bytes in this worker's block
// cache under the keys a read of the object at path looks up, and
// reports whether it did (a down worker does not). The catalog need not
// hold path yet: keys are content-addressed, so admitted bytes can never
// be stale, and an unregistered key is read by nobody. packed must not
// be modified afterwards.
func (w *Worker) AdmitBlock(path string, packed []byte) bool {
	if w.down.Load() {
		return false
	}
	f := prefetch.CachedFetcher{Key: path, Cache: w.blockCache, BlockSize: w.cfg.BlockSize}
	f.Admit(packed)
	return true
}

// handOff is the builder's Config.Handoff: it passes a just-uploaded
// LogBlock to the block cache of its read home and counts where the
// bytes went. In this repository the peer is a worker of the same
// process; a deployment sends them over the worker-to-worker link.
func (w *Worker) handOff(path string, packed []byte) {
	home := w
	if w.cfg.ReadHome != nil {
		home = w.cfg.ReadHome(path)
	}
	outcome := handoffPeer
	switch {
	case home == nil || !home.AdmitBlock(path, packed):
		outcome = handoffDropped
	case home == w:
		outcome = handoffLocal
	}
	w.handoffs[outcome][0].Add(1)
	w.handoffs[outcome][1].Add(int64(len(packed)))
}

// HandoffStats reports, in LogBlocks and bytes, where the blocks this
// worker committed were admitted: its own block cache, a peer's (the
// bytes that cross the worker-to-worker link in a deployment), or
// nowhere because the read home was down or gone.
func (w *Worker) HandoffStats() (localBlocks, localBytes, peerBlocks, peerBytes, droppedBlocks, droppedBytes int64) {
	h := &w.handoffs
	return h[handoffLocal][0].Load(), h[handoffLocal][1].Load(),
		h[handoffPeer][0].Load(), h[handoffPeer][1].Load(),
		h[handoffDropped][0].Load(), h[handoffDropped][1].Load()
}

// fetcherFor builds the cached, prefetching fetcher for one object,
// sized from the catalog so that reading a registered LogBlock never
// asks the store how big it is. A path the catalog does not hold (or
// an entry recorded without a size) leaves Size 0, and the fetcher
// falls back to one Head.
func (w *Worker) fetcherFor(path string) *prefetch.CachedFetcher {
	info, _ := w.catalog.Lookup(path)
	return &prefetch.CachedFetcher{
		Store:      w.store,
		Key:        path,
		Cache:      w.blockCache,
		BlockSize:  w.cfg.BlockSize,
		Pool:       w.pool,
		ObjectSize: info.Bytes,
	}
}

// ctxFetcher binds one query's context to a shared cached fetcher: the
// cache, in-flight merge, and resolved object size live on the base
// (shared across queries), while cancellation bites per call. It is
// what lets a cached long-lived Reader serve a deadline-bounded query
// without leaking that query's context into the cache.
type ctxFetcher struct {
	ctx  context.Context
	base *prefetch.CachedFetcher
}

// Fetch implements logblock.Fetcher.
func (c ctxFetcher) Fetch(off, size int64) ([]byte, error) {
	return c.base.FetchCtx(c.ctx, off, size)
}

// Size implements logblock.Fetcher.
func (c ctxFetcher) Size() (int64, error) {
	return c.base.SizeCtx(c.ctx)
}

// bindCtx returns a view of r whose byte source is bounded by ctx. A
// context that can never be canceled returns r unchanged (no
// per-query allocation on the common background path).
func bindCtx(ctx context.Context, r *logblock.Reader) *logblock.Reader {
	if ctx.Done() == nil {
		return r
	}
	if base, ok := r.Fetcher().(*prefetch.CachedFetcher); ok {
		return r.WithFetcher(ctxFetcher{ctx: ctx, base: base})
	}
	return r
}

// baseFetcher returns the cached fetcher under r, bound to ctx or not.
func baseFetcher(r *logblock.Reader) *prefetch.CachedFetcher {
	switch f := r.Fetcher().(type) {
	case *prefetch.CachedFetcher:
		return f
	case ctxFetcher:
		return f.base
	}
	return nil
}

// openReaderCtx opens a LogBlock reader, consulting the object cache for
// the parsed manifest+meta. Cached readers are charged their actual
// retained bytes — and re-charged on every hit, since memoized index
// segments grow a reader after insertion. Each reader shares the object
// cache as its decoded-vector level, so match and materialize passes
// (and repeated queries) decode each column block once. It returns a
// ctx-bound view: the cached reader (shared decoded state, base fetcher)
// stays context-free in the object cache; the returned view reads bytes
// under ctx. A reader's key is its path as is, so a hit builds no
// string: object paths end in ".tar" and the vectors shared through the
// same cache are keyed "vec:<path>/<col>/<block>", so no two collide.
func (w *Worker) openReaderCtx(ctx context.Context, path string) (*logblock.Reader, error) {
	if v, ok := w.objectCache.Get(path); ok {
		r := v.(*logblock.Reader)
		w.objectCache.Put(path, r, r.RetainedBytes())
		return bindCtx(ctx, r), nil
	}
	base := w.fetcherFor(path)
	var open logblock.Fetcher = base
	if ctx.Done() != nil {
		open = ctxFetcher{ctx: ctx, base: base}
	}
	r, err := logblock.OpenReader(open)
	if err != nil {
		return nil, err
	}
	r.SetVectorCache(w.objectCache, path)
	// Cache the context-free view; hand the caller the ctx-bound one.
	cached := r.WithFetcher(base)
	w.objectCache.Put(path, cached, cached.RetainedBytes())
	return r, nil
}

// QueryBlocksCtx executes a query over a set of archived LogBlocks,
// returning the merged partial result. With a prefetch pool attached,
// LogBlocks are processed concurrently and each fetches what it needs
// in one parallel wave per dependency level — open, indexes, data (the
// paper's Figure 10 pipeline); without one, loading is fully serial —
// the "without parallel prefetch" baseline. An expired context
// returns before any storage read, cancellation mid-scan stops issuing
// new block scans and aborts the in-flight OSS reads (through the
// ctx-bound fetchers), and every concurrency slot is released on the
// way out — a canceled query must not strand capacity.
func (w *Worker) QueryBlocksCtx(ctx context.Context, paths []string, q *query.Query, opts query.ExecOptions) (*query.Result, error) {
	if w.down.Load() {
		return nil, ErrWorkerDown
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := query.NewResult(q, w.sch)
	if w.pool == nil || len(paths) <= 1 {
		for _, path := range paths {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := w.queryOneBlock(ctx, path, q, opts, res); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		sem  = make(chan struct{}, w.cfg.QueryConcurrency)
		errs []error
	)
	for _, path := range paths {
		path := path
		// Acquire the concurrency slot context-aware: a canceled query
		// stops launching block scans instead of queueing behind the
		// very congestion that made it miss its deadline.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			part := query.NewResult(q, w.sch)
			err := w.queryOneBlock(ctx, path, q, opts, part)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			res.Merge(part)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return res, nil
}

// queryOneBlock runs q over one LogBlock. With a prefetch pool its
// dependent storage round trips are one per level, however many parts
// a level needs: opening the reader (the object's tail: trailer,
// manifest and meta), then the indexes the predicates probe, then the
// data blocks of the matched rows' projected columns. Each level's
// parts are known only once the level before it has been read. Without a pool every read loads its
// own cache blocks, one by one.
func (w *Worker) queryOneBlock(ctx context.Context, path string, q *query.Query, opts query.ExecOptions, res *query.Result) error {
	r, err := w.openReaderCtx(ctx, path)
	if err != nil {
		return fmt.Errorf("worker %d: open %s: %w", w.cfg.ID, path, err)
	}
	plan, err := query.PlanBlock(r.Meta, q, opts)
	if err != nil {
		return fmt.Errorf("worker %d: match %s: %w", w.cfg.ID, path, err)
	}
	defer plan.Release()
	if w.pool != nil {
		if err := prefetchMembers(ctx, r, indexMembers(r, plan)); err != nil {
			return fmt.Errorf("worker %d: prefetch indexes of %s: %w", w.cfg.ID, path, err)
		}
	}
	matched, err := plan.Match(r, &res.Stats)
	if err != nil {
		return fmt.Errorf("worker %d: match %s: %w", w.cfg.ID, path, err)
	}
	// A plain LIMIT stops work here: rows beyond the cap are neither
	// fetched (their column blocks drop out of the data wave) nor
	// materialized.
	if n := q.RowCap(); n > 0 {
		matched.KeepFirst(n)
	}
	if q.CountStar && q.GroupBy == "" {
		res.Count += int64(matched.Count())
		return nil
	}
	var cols []int // the projection, read only when a row matched
	if matched.Any() {
		cols = query.EffectiveColumns(q, r.Meta.Schema)
	}
	if w.pool != nil {
		if err := prefetchMembers(ctx, r, dataMembers(r, matched, cols)); err != nil {
			return fmt.Errorf("worker %d: prefetch data of %s: %w", w.cfg.ID, path, err)
		}
	}
	rows, err := query.Materialize(r, matched, cols)
	if err != nil {
		return fmt.Errorf("worker %d: materialize %s: %w", w.cfg.ID, path, err)
	}
	res.AddRows(q, rows)
	return nil
}

// indexMembers returns the extents of the indexes matching by plan will
// read and the reader has not parsed yet.
func indexMembers(r *logblock.Reader, plan *query.BlockPlan) []logblock.Extent {
	var buf [8]int
	var exts []logblock.Extent
	for _, ci := range plan.IndexColumns(buf[:0]) {
		if !r.IndexLoaded(ci) {
			exts = append(exts, r.Manifest.IndexExtent(ci))
		}
	}
	return exts
}

// dataMembers returns the extents of the column blocks materializing
// the columns cols of the matched rows will read and the decoded-vector
// cache does not hold. A vector evicted after this check is read on
// demand.
func dataMembers(r *logblock.Reader, matched *bitutil.Bitset, cols []int) []logblock.Extent {
	if len(cols) == 0 {
		return nil
	}
	var exts []logblock.Extent
	for bi := 0; bi < r.Meta.NumBlocks; bi++ {
		start, end := r.Meta.BlockRowRange(bi)
		if !matched.AnyInRange(start, end) {
			continue
		}
		for _, ci := range cols {
			if !r.VectorCached(ci, bi) {
				exts = append(exts, r.Manifest.DataExtent(ci, bi))
			}
		}
	}
	return exts
}

// prefetchMembers brings the cache blocks under the given parts of r
// into the block cache in one parallel wave. A part the object does not
// have (the zero extent) covers no block; reading it reports it.
func prefetchMembers(ctx context.Context, r *logblock.Reader, exts []logblock.Extent) error {
	f := baseFetcher(r)
	if f == nil || len(exts) == 0 {
		return nil
	}
	ranges := make([]prefetch.Range, len(exts))
	for i, ext := range exts {
		ranges[i] = prefetch.Range{Off: ext.Offset, Size: ext.Size}
	}
	return f.Warm(ctx, ranges)
}

// archiveLoop drains every shard's row store on the archive cadence.
func (w *Worker) archiveLoop() {
	defer close(w.archiveDone)
	ticker := time.NewTicker(w.cfg.ArchiveInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.archiveStop:
			if !w.crashed.Load() {
				// Graceful close: archive what's resident, with the
				// window of a drain somebody waits on.
				w.drainAll(builder.FlushWindow)
			}
			return
		case <-ticker.C:
			// One commit at a time: the round's length sets the next
			// round's block size (builder.FlushWindow).
			w.drainAll(1)
		}
	}
}

// drainAll drains every shard with at most window commits in flight.
func (w *Worker) drainAll(window int) {
	w.mu.RLock()
	shards := make([]*Shard, 0, len(w.shards))
	for _, sh := range w.shards {
		shards = append(shards, sh)
	}
	w.mu.RUnlock()
	w.archiveMu.Lock()
	defer w.archiveMu.Unlock()
	for _, sh := range shards {
		w.drainShardLocked(sh, window)
	}
}

// drainShardLocked archives one shard's resident rows and, on success,
// checkpoints the shard's raft WAL up to the index applied before the
// seal: those rows are now durable on object storage, so their WAL
// segments can be recycled (the paper's checkpointing task).
//
// The seal and the applied-index snapshot happen together under the
// shard's apply lock, so the archived row set and the checkpointed raft
// index agree exactly: every row applied at index ≤ appliedBefore is in
// the sealed segments, and no row from a later apply is. A segment
// auto-sealed by a concurrent apply after the snapshot waits for the
// next drain. Without this, a crash after the checkpoint could drop
// acked rows (index marked applied but rows not archived) or replay
// them twice (rows archived but produced by entries above the mark).
//
// With WAL shipping, the drain first waits until the shipper has every
// entry up to appliedBefore in OSS (the commit hook offered each one
// before it applied): a LogBlock never holds rows whose entries and
// batch ids are missing from the shipped log, so a shard hydrated after
// a disk wipe still suppresses a client's retry of an archived batch.
// If the shipper fails, the drain returns its error and the rows stay
// resident for the next one. At most window LogBlock commits are in
// flight (builder.DrainSegments).
func (w *Worker) drainShardLocked(sh *Shard, window int) error {
	sh.applyMu.Lock()
	appliedBefore := sh.applied.Load()
	sh.rs.Seal()
	segs := sh.rs.Sealed()
	sh.applyMu.Unlock()
	if sh.shipper != nil && len(segs) > 0 {
		if err := sh.shipper.WaitShipped(appliedBefore); err != nil {
			return fmt.Errorf("worker %d shard %d: drain waits for the shipper: %w", w.cfg.ID, sh.ID, err)
		}
	}
	if _, err := w.bld.DrainSegments(sh.rs, segs, window); err != nil {
		return err
	}
	if appliedBefore > 0 {
		if sh.wal != nil {
			_ = sh.wal.Checkpoint(appliedBefore)
		}
		if sh.shipper != nil {
			// Rows at or below appliedBefore are in LogBlocks now; the
			// mark rides in shipped commit records so hydration never
			// re-applies them, and it gates the next generation roll.
			sh.shipper.NoteArchived(appliedBefore)
		}
	}
	return nil
}

// waitApplied waits, for at most 5 s, until the node has applied
// everything it has committed. A proposal ack fires at commit, and the
// state machine sees the entry asynchronously: an append's Wait closes
// that gap before it acks, and an explicit flush before it seals, since
// it promises "everything acked is archived" — and a slow apply (past
// Wait's bound) can leave acked rows not yet in the row store.
// Best-effort: past 5 s, or once the node stops, the caller proceeds
// with whatever has applied.
func (sh *Shard) waitApplied() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = sh.node.WaitApplied(ctx, sh.node.Committed())
}

// FlushShard force-archives one shard's resident rows, with up to
// builder.FlushWindow LogBlock commits in flight. Cluster.Flush calls
// it; no route change does (the paper flushes a shard a rebalance takes
// off a tenant's route instead of migrating its data, ROADMAP item 9).
// It barriers on the apply pipeline first so rows committed but not yet
// applied make the drain.
func (w *Worker) FlushShard(id flow.ShardID) error {
	if w.down.Load() {
		return ErrWorkerDown
	}
	sh, err := w.shard(id)
	if err != nil {
		return err
	}
	sh.waitApplied()
	w.archiveMu.Lock()
	defer w.archiveMu.Unlock()
	return w.drainShardLocked(sh, builder.FlushWindow)
}

// CompactTenant merges the tenant's small adjacent LogBlocks (see
// builder.CompactTenant). Serialized with archiving so a drain never
// races a rewrite of the same catalog entries.
func (w *Worker) CompactTenant(tenant int64, targetRows int) (int, error) {
	w.archiveMu.Lock()
	defer w.archiveMu.Unlock()
	return w.bld.CompactTenant(tenant, targetRows)
}

// RewriteLegacy packs again the tenant's LogBlocks that an older
// release wrote (see builder.RewriteLegacy), serialized with archiving
// as CompactTenant is.
func (w *Worker) RewriteLegacy(tenant int64) (int, error) {
	w.archiveMu.Lock()
	defer w.archiveMu.Unlock()
	return w.bld.RewriteLegacy(tenant)
}

// CacheStats exposes block-cache hit rates for experiments.
func (w *Worker) CacheStats() (memHits, memMisses, diskHits, diskMisses int64) {
	return w.blockCache.Stats()
}

// PurgeCaches empties all cache levels (cold-start experiments).
func (w *Worker) PurgeCaches() {
	w.blockCache.Purge()
	w.objectCache.Purge()
}

// ResidentRows reports rows not yet archived across shards.
func (w *Worker) ResidentRows() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var total int64
	for _, sh := range w.shards {
		rows, _, _ := sh.rs.Stats()
		total += rows
	}
	return total
}

// Close stops the worker gracefully: the archive loop drains resident
// rows to object storage once more, then raft groups, row stores, and
// the prefetch pool shut down. Safe to call concurrently and more than
// once (including after Crash) — only the first stop runs.
func (w *Worker) Close() { w.shutdown(true) }

// Crash stops the worker as a process kill would: no final archive
// drain, no checkpoint — resident rows and in-memory raft state are
// abandoned. Everything the worker acked survives only through what is
// already durable (raft WALs on disk, LogBlocks on OSS); a recovery
// rebuild (New + AddShard on the same DataDir) must reconstruct exactly
// the acked rows from those two sources.
func (w *Worker) Crash() {
	w.crashed.Store(true)
	w.shutdown(false)
}

// Alive reports whether the worker is serving (not crashed or closed).
func (w *Worker) Alive() bool { return !w.down.Load() }

// shutdown is the single stop path shared by Close and Crash.
func (w *Worker) shutdown(graceful bool) {
	w.stopOnce.Do(func() {
		if !graceful {
			w.crashed.Store(true)
		}
		w.down.Store(true)
		close(w.archiveStop)
		<-w.archiveDone
		w.mu.Lock()
		for _, sh := range w.shards {
			sh.stop(graceful)
		}
		w.mu.Unlock()
		if w.pool != nil {
			w.pool.Close()
		}
	})
}

// Proposal encode/decode lives in proposal.go (group framing, batch
// ids, pooled encode buffers).
