// Package logstore is a cloud-native, multi-tenant log database — a
// from-scratch Go implementation of the system described in "LogStore:
// A Cloud-Native and Multi-Tenant Log Database" (SIGMOD 2021).
//
// A Cluster embeds the whole system in-process: a controller (metadata
// catalog, hotspot manager running the max-flow traffic scheduler,
// background expiration), a set of worker nodes (a raft-logged
// write-optimized row store per shard, background conversion to
// columnar LogBlocks on object storage, multi-level caches and parallel
// prefetch on the read path), and brokers (SQL parsing, weighted tenant
// routing, scatter-gather execution). Object storage is pluggable; the
// default is an in-memory store, and oss.SimStore adds realistic
// latency and bandwidth limits.
//
// Quickstart:
//
//	c, err := logstore.Open(logstore.Config{})
//	defer c.Close()
//	c.Append(rows...)
//	res, err := c.Query("SELECT log FROM request_log WHERE tenant_id = 7 AND ts >= 0 AND ts <= 1e12")
package logstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"logstore/internal/backpressure"
	"logstore/internal/broker"
	"logstore/internal/builder"
	"logstore/internal/controller"
	"logstore/internal/flow"
	"logstore/internal/meta"
	"logstore/internal/metrics"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/rowstore"
	"logstore/internal/schema"
	"logstore/internal/ship"
	"logstore/internal/worker"
)

// Re-exported types: the public API surface of the library.
type (
	// Result is a finalized query result.
	Result = query.Result
	// ExecStats is a Result's account of the skipping work done for it.
	ExecStats = query.ExecStats
	// GroupCount is one GROUP BY bucket of a Result.
	GroupCount = query.GroupCount
	// Row is one log record, positionally matching the table schema.
	Row = schema.Row
	// Value is one typed cell.
	Value = schema.Value
	// Schema describes a log table.
	Schema = schema.Schema
	// Column is one table attribute.
	Column = schema.Column
	// BlockInfo is a catalog entry for one archived LogBlock.
	BlockInfo = meta.BlockInfo
	// Algorithm selects the traffic-scheduling algorithm.
	Algorithm = flow.Algorithm
	// TenantID identifies a tenant.
	TenantID = flow.TenantID
	// WorkerState is a worker's health as the cluster sees it.
	WorkerState = flow.WorkerState
)

// Worker health states (see flow.HealthTracker).
const (
	WorkerUp   = flow.WorkerUp
	WorkerDead = flow.WorkerDead
	WorkerSlow = flow.WorkerSlow
)

// ErrOverloaded is the typed admission-shed error; errors.As against
// *ErrOverloaded yields the tenant, the exhausted budget, and a
// RetryAfter hint.
type ErrOverloaded = backpressure.ErrOverloaded

// Traffic-scheduling algorithm choices.
const (
	AlgorithmNone    = flow.AlgorithmNone
	AlgorithmGreedy  = flow.AlgorithmGreedy
	AlgorithmMaxFlow = flow.AlgorithmMaxFlow
)

// IntValue builds an integer cell.
func IntValue(v int64) Value { return schema.IntValue(v) }

// StringValue builds a string cell.
func StringValue(s string) Value { return schema.StringValue(s) }

// RequestLogSchema returns the paper's sample application-log table.
func RequestLogSchema() *Schema { return schema.RequestLogSchema() }

// Config configures an embedded cluster. The zero value is a sensible
// small deployment: 3 workers × 4 shards (one raft node each), max-flow
// scheduling, in-memory object storage.
type Config struct {
	// Schema is the log table (nil = RequestLogSchema).
	Schema *Schema
	// Workers is the number of worker nodes (0 = 3).
	Workers int
	// ShardsPerWorker is the initial shard count per worker (0 = 4).
	ShardsPerWorker int
	// Store is the object storage backend (nil = in-memory MemStore).
	// Wrap with oss.NewSimStore for realistic latency experiments.
	Store oss.Store
	// Algorithm selects traffic scheduling (default AlgorithmMaxFlow;
	// use AlgorithmNone to reproduce the unbalanced baseline).
	Algorithm Algorithm
	// WorkerCapacityPerSec is c(D_k) (0 = 400_000 rows/s).
	WorkerCapacityPerSec float64
	// ShardCapacityPerSec is c(P_j) (0 = 100_000 rows/s).
	ShardCapacityPerSec float64
	// TenantShardLimit is f_max, one tenant's cap per shard
	// (0 = 100_000 rows/s).
	TenantShardLimit float64
	// BalanceInterval is the hotspot-manager cadence (paper: 300 s;
	// 0 disables the loop — call RebalanceNow for manual control).
	BalanceInterval time.Duration
	// ExpireInterval is the retention-enforcement cadence (0 disables).
	ExpireInterval time.Duration
	// ArchiveInterval is the row→LogBlock conversion cadence (0 = 1 s).
	ArchiveInterval time.Duration
	// MaxSegmentRows seals row-store segments at a row count
	// (0 = 50_000).
	MaxSegmentRows int
	// DataSkipping toggles SMA+index pruning on archived reads
	// (nil = enabled).
	DataSkipping *bool
	// PrefetchThreads sizes each worker's parallel prefetch pool
	// (0 = 32; negative disables prefetch: serial loading).
	PrefetchThreads int
	// QueryConcurrency bounds how many archived LogBlocks one query
	// processes concurrently per worker (0 = GOMAXPROCS).
	QueryConcurrency int
	// CacheMemoryBytes sizes each worker's memory block cache
	// (0 = 64 MiB).
	CacheMemoryBytes int64
	// CacheDir enables each worker's SSD cache level under this
	// directory ("" = memory-only).
	CacheDir string
	// CacheDiskBytes sizes the SSD level (0 with CacheDir set = 1 GiB).
	CacheDiskBytes int64
	// RaftTick accelerates raft timing (0 = 10 ms).
	RaftTick time.Duration
	// DataDir, when set, puts every shard's raft log on disk
	// (WAL-backed) under DataDir/worker-N/, surviving process restarts.
	DataDir string
	// ShipWAL continuously streams every shard's committed raft log
	// into object storage as generation-scoped snapshot + chunk objects
	// under wal/<shard>/, making OSS the only durable truth: a worker
	// whose DataDir was wiped (total disk loss) hydrates its shards
	// entirely from the shipped state on recovery. Requires DataDir.
	ShipWAL bool
	// ShipSync blocks each append until its entries are archived
	// in OSS (zero acked-but-unshipped exposure, higher ack latency).
	// When false shipping is asynchronous: acked entries ride the next
	// chunk upload, at most 100 ms or 1 MiB away, and past 16 MiB of
	// acked-but-unshipped bytes per shard (object store unreachable)
	// async appends see backpressure until the shipper drains.
	ShipSync bool
	// RaftQueueItems bounds each shard's Raft sync/apply queues (BFC);
	// 0 keeps raft defaults. Small values trip backpressure earlier.
	RaftQueueItems int
	// HeartbeatInterval is the worker health-check cadence: each beat
	// marks live workers up and advances the miss counter of silent
	// ones (0 disables the loop — health stays optimistic). Three
	// consecutive misses mark a worker dead.
	HeartbeatInterval time.Duration
	// HedgeDelay enables hedged block sub-queries on the brokers: a
	// straggling worker's block set is speculatively re-dispatched to
	// another worker after this delay (0 disables hedging).
	HedgeDelay time.Duration
	// AdmitTenantRowsPerSec / AdmitTenantBytesPerSec enable per-tenant
	// admission control on the brokers: each tenant refills a rows/s
	// and a bytes/s token bucket, and a batch that would overdraw
	// either is shed with ErrOverloaded{RetryAfter} instead of queuing
	// behind everyone else's work (0 = that budget unlimited; both 0
	// with AdmitGlobalBytes 0 = admission off).
	AdmitTenantRowsPerSec  float64
	AdmitTenantBytesPerSec float64
	// AdmitGlobalBytes caps in-flight append bytes across all tenants —
	// the cluster-wide memory guard (0 = unlimited).
	AdmitGlobalBytes int64
	// SlowWorkerThreshold arms gray-failure detection: a worker whose
	// sub-query latency EWMA exceeds it is flagged WorkerSlow, steered
	// out of the primary read partition, and scales down the admission
	// refill rate (0 disables).
	SlowWorkerThreshold time.Duration
	// WorkerStoreWrap, when set, wraps each worker's object-store view
	// (the raw configured Store, pre-retry) — the chaos hook for
	// injecting per-worker OSS faults (e.g. oss.NewFlakyStore stalls on
	// one worker only). The cluster-level catalog/controller paths are
	// not wrapped.
	WorkerStoreWrap func(flow.WorkerID, oss.Store) oss.Store
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Schema == nil {
		out.Schema = schema.RequestLogSchema()
	}
	if out.Workers <= 0 {
		out.Workers = 3
	}
	if out.ShardsPerWorker <= 0 {
		out.ShardsPerWorker = 4
	}
	if out.Store == nil {
		out.Store = oss.NewMemStore()
	}
	if out.WorkerCapacityPerSec <= 0 {
		out.WorkerCapacityPerSec = 400_000
	}
	if out.ShardCapacityPerSec <= 0 {
		out.ShardCapacityPerSec = 100_000
	}
	if out.TenantShardLimit <= 0 {
		out.TenantShardLimit = 100_000
	}
	if out.ArchiveInterval <= 0 {
		out.ArchiveInterval = time.Second
	}
	if out.MaxSegmentRows <= 0 {
		out.MaxSegmentRows = 50_000
	}
	if out.PrefetchThreads == 0 {
		out.PrefetchThreads = 32
	}
	if out.CacheMemoryBytes <= 0 {
		out.CacheMemoryBytes = 64 << 20
	}
	if out.CacheDir != "" && out.CacheDiskBytes <= 0 {
		out.CacheDiskBytes = 1 << 30
	}
	return out
}

// Cluster is an embedded LogStore deployment.
type Cluster struct {
	cfg      Config
	sch      *schema.Schema
	store    *oss.RetryingStore
	catalog  *meta.Manager
	ctrl     *controller.Controller
	shipGens *ship.Registry // nil unless ShipWAL

	mu         sync.RWMutex
	workers    map[flow.WorkerID]*worker.Worker
	workerIDs  []flow.WorkerID // workers' keys, ascending; replaced, never changed in place
	shardOwner map[flow.ShardID]flow.WorkerID
	nextShard  flow.ShardID
	nextWorker flow.WorkerID

	brokers   []*broker.Broker
	nextBrk   atomic.Uint64
	admission *backpressure.Admission // nil when admission is off

	health *flow.HealthTracker
	hbStop chan struct{}
	hbDone chan struct{}

	// recovery bookkeeping (chaos/failover observability)
	crashes    metrics.Counter
	recoveries metrics.Counter
	wipes      metrics.Counter

	closed atomic.Bool
}

// Open builds and starts a cluster.
func Open(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Schema.Validate(); err != nil {
		return nil, err
	}
	if cfg.ShipWAL && cfg.DataDir == "" {
		return nil, fmt.Errorf("logstore: ShipWAL requires DataDir")
	}
	c := &Cluster{
		cfg: cfg,
		sch: cfg.Schema,
		// Every OSS touchpoint in the cluster — builder uploads,
		// prefetch reads, catalog checkpoints, WAL shipping — goes
		// through this one retrying wrapper (a cfg.Store that already
		// retries keeps its own).
		store:      oss.WithDefaultRetry(cfg.Store),
		catalog:    meta.NewManager(),
		workers:    make(map[flow.WorkerID]*worker.Worker),
		shardOwner: make(map[flow.ShardID]flow.WorkerID),
		health:     flow.NewHealthTracker(0),
		hbStop:     make(chan struct{}),
		hbDone:     make(chan struct{}),
	}
	if cfg.ShipWAL {
		// One cluster-wide generation registry: workers racing to ship
		// the same shard (recovery overlap) fence each other through it.
		c.shipGens = ship.NewRegistry(c.store)
	}
	if cfg.AdmitTenantRowsPerSec > 0 || cfg.AdmitTenantBytesPerSec > 0 || cfg.AdmitGlobalBytes > 0 {
		// One admission layer shared by both brokers: the budgets are
		// per tenant and per cluster, not per broker, so round-robin
		// dispatch must not double them. SlowFraction couples it to the
		// gray-failure detector: the more of the fleet is slow, the less
		// the cluster admits.
		c.admission = backpressure.NewAdmission(backpressure.AdmissionConfig{
			TenantRowsPerSec:  cfg.AdmitTenantRowsPerSec,
			TenantBytesPerSec: cfg.AdmitTenantBytesPerSec,
			GlobalBytes:       cfg.AdmitGlobalBytes,
			SlowFraction:      c.health.SlowFraction,
		})
	}
	// Started before any fallible step: Close waits on the loop, and
	// Open's error paths all go through Close. The loop reads c.workers
	// under c.mu from its first tick, so the provisioning below must
	// hold the write lock; c.admission it reads unlocked, so that is
	// assigned above, before the loop exists.
	go c.heartbeatLoop()
	c.mu.Lock()
	for i := 0; i < cfg.Workers; i++ {
		if _, err := c.addWorkerLocked(); err != nil {
			c.mu.Unlock()
			c.Close()
			return nil, err
		}
	}
	c.mu.Unlock()
	bal := flow.DefaultBalancerConfig()
	bal.TenantShardLimit = cfg.TenantShardLimit
	ctrl, err := controller.New(controller.Config{
		Algorithm:       cfg.Algorithm,
		Balancer:        bal,
		BalanceInterval: cfg.BalanceInterval,
		ExpireInterval:  cfg.ExpireInterval,
		CheckpointKey:   "meta/checkpoint.json",
		ShipGens:        c.shipGens,
	}, c.topologyLocked(), nil, c.catalog, c.store, c.scaleOut)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.ctrl = ctrl
	// Recover the catalog from the last checkpoint when the object
	// store already holds one (reopening a cluster over existing data).
	if _, err := c.store.Head("meta/checkpoint.json"); err == nil {
		if err := ctrl.Recover(); err != nil {
			c.Close()
			return nil, fmt.Errorf("logstore: recover catalog: %w", err)
		}
	}

	exec := query.ExecOptions{DataSkipping: true}
	if cfg.DataSkipping != nil {
		exec.DataSkipping = *cfg.DataSkipping
	}
	if cfg.SlowWorkerThreshold > 0 {
		c.health.SetSlowThreshold(cfg.SlowWorkerThreshold)
	}
	// Two brokers behind the round-robin "SLB".
	for i := 0; i < 2; i++ {
		r := flow.NewRouter(c.shardIDsLocked(), int64(i)+1)
		ctrl.Scheduler().Subscribe(r.Update)
		b, err := broker.New(broker.Config{
			ID: i, Exec: exec, Seed: int64(i) + 100,
			Health:     c.health,
			HedgeDelay: cfg.HedgeDelay,
			Admission:  c.admission,
		}, c.sch, r, ctrl.Collector(), c.catalog, c)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.brokers = append(c.brokers, b)
	}
	ctrl.Start()
	return c, nil
}

// heartbeatLoop is the cluster's failure detector: on each interval it
// beats the tracker for every worker still answering Alive and advances
// the miss counter of the rest. Brokers consult the resulting state to
// steer sub-queries and writes away from dead workers.
func (c *Cluster) heartbeatLoop() {
	defer close(c.hbDone)
	if c.cfg.HeartbeatInterval <= 0 {
		<-c.hbStop
		return
	}
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-ticker.C:
			c.mu.RLock()
			for id, w := range c.workers {
				if w.Alive() {
					c.health.Beat(id)
				}
			}
			c.mu.RUnlock()
			c.health.Tick()
			if c.admission != nil {
				// Tenant buckets idle for a minute are reclaimed; an
				// unbounded tenant-id space must not grow the map forever.
				c.admission.SweepIdle(time.Minute)
			}
		}
	}
}

// addWorkerLocked provisions one worker with the configured shard
// count. Callers hold c.mu: the heartbeat loop reads the worker map
// concurrently from the moment Open starts it.
func (c *Cluster) addWorkerLocked() (*worker.Worker, error) {
	id := c.nextWorker
	c.nextWorker++
	w, err := c.newWorkerLocked(id)
	if err != nil {
		return nil, err
	}
	for s := 0; s < c.cfg.ShardsPerWorker; s++ {
		sid := c.nextShard
		c.nextShard++
		if err := w.AddShard(sid); err != nil {
			w.Close()
			return nil, err
		}
		c.shardOwner[sid] = id
	}
	c.workers[id] = w
	ids := append(slices.Clone(c.workerIDs), id)
	slices.Sort(ids)
	c.workerIDs = ids
	return w, nil
}

// newWorkerLocked builds a worker node with the cluster's configuration.
// The same id always maps to the same DataDir, so rebuilding a crashed
// worker recovers its shards' raft WALs.
func (c *Cluster) newWorkerLocked(id flow.WorkerID) (*worker.Worker, error) {
	cacheDir := ""
	if c.cfg.CacheDir != "" {
		cacheDir = fmt.Sprintf("%s/worker-%d", c.cfg.CacheDir, id)
	}
	dataDir := ""
	if c.cfg.DataDir != "" {
		dataDir = fmt.Sprintf("%s/worker-%d", c.cfg.DataDir, id)
	}
	var walShip *ship.Options
	if c.cfg.ShipWAL {
		walShip = &ship.Options{
			Store:    c.store,
			Registry: c.shipGens,
			Sync:     c.cfg.ShipSync,
		}
	}
	// Per-worker store view: the chaos hook wraps the raw configured
	// store, and worker.New puts a retry layer of the worker's own over
	// the result, so injected faults sit under retries, exactly like a
	// real flaky backend. Without the hook the worker shares the
	// cluster's retrying store.
	var wstore oss.Store = c.store
	if c.cfg.WorkerStoreWrap != nil {
		wstore = c.cfg.WorkerStoreWrap(id, c.cfg.Store)
	}
	w, err := worker.New(worker.Config{
		ID:               id,
		CapacityPerSec:   c.cfg.WorkerCapacityPerSec,
		MemoryCacheBytes: c.cfg.CacheMemoryBytes,
		DiskCacheBytes:   c.cfg.CacheDiskBytes,
		DiskCacheDir:     cacheDir,
		PrefetchThreads:  c.cfg.PrefetchThreads,
		QueryConcurrency: c.cfg.QueryConcurrency,
		ArchiveInterval:  c.cfg.ArchiveInterval,
		// TenantIndex implements the paper's future-work real-time-store
		// optimization: sealed segments index rows by tenant (~50×
		// faster tenant scans) without touching the append path.
		RowStore:       rowstore.Options{MaxSegmentRows: c.cfg.MaxSegmentRows, TenantIndex: true},
		Builder:        builder.Config{Table: c.sch.Name},
		RaftTick:       c.cfg.RaftTick,
		DataDir:        dataDir,
		RaftQueueItems: c.cfg.RaftQueueItems,
		WALShip:        walShip,
		ReadHome:       c.readHome,
	}, c.sch, wstore, c.catalog)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// readHome is every worker's Config.ReadHome: the worker the brokers
// send the object's block sub-queries to first, under the health view
// of this instant. It runs on the archive path, possibly inside the
// final drain of a worker this cluster is closing or replacing with
// c.mu held, so it never waits for the lock: while the worker set is
// being changed the hand-off is dropped (nil), which costs the block's
// first reader one fetch.
func (c *Cluster) readHome(path string) *worker.Worker {
	if !c.mu.TryRLock() {
		return nil
	}
	defer c.mu.RUnlock()
	_, primary := c.health.ReadPartition(c.workerIDs)
	return c.workers[flow.ReadHome(primary, path)]
}

func (c *Cluster) topologyLocked() *flow.Topology {
	topo := &flow.Topology{
		ShardWorker:    make(map[flow.ShardID]flow.WorkerID, len(c.shardOwner)),
		ShardCapacity:  make(map[flow.ShardID]float64, len(c.shardOwner)),
		WorkerCapacity: make(map[flow.WorkerID]float64, len(c.workers)),
	}
	for s, w := range c.shardOwner {
		topo.ShardWorker[s] = w
		topo.ShardCapacity[s] = c.cfg.ShardCapacityPerSec
	}
	for id, w := range c.workers {
		topo.WorkerCapacity[id] = w.Capacity()
	}
	return topo
}

func (c *Cluster) shardIDsLocked() []flow.ShardID {
	out := make([]flow.ShardID, 0, len(c.shardOwner))
	for s := range c.shardOwner {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scaleOut is the controller's ScaleFunc: provision one more worker.
func (c *Cluster) scaleOut() (*flow.Topology, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, false
	}
	if _, err := c.addWorkerLocked(); err != nil {
		return nil, false
	}
	return c.topologyLocked(), true
}

// ---- broker.WorkerPool ----

// Worker implements broker.WorkerPool.
func (c *Cluster) Worker(id flow.WorkerID) (*worker.Worker, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w, ok := c.workers[id]
	return w, ok
}

// ShardOwner implements broker.WorkerPool.
func (c *Cluster) ShardOwner(s flow.ShardID) (flow.WorkerID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w, ok := c.shardOwner[s]
	return w, ok
}

// WorkerIDs implements broker.WorkerPool: the workers' ids, ascending.
// The slice is shared; the caller must not modify it.
func (c *Cluster) WorkerIDs() []flow.WorkerID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.workerIDs
}

// ---- client API ----

func (c *Cluster) broker() *broker.Broker {
	// Round-robin dispatch, standing in for the SLB.
	i := c.nextBrk.Add(1)
	return c.brokers[int(i)%len(c.brokers)]
}

// Append writes log rows; they are immediately visible to queries
// (real-time reads) and archived to object storage in the background.
// Under extreme load it returns a backpressure error; callers should
// slow down and retry. See AppendContext for what an error leaves
// behind.
func (c *Cluster) Append(rows ...Row) error {
	return c.AppendContext(context.Background(), rows...)
}

// AppendContext is Append bounded by ctx and subject to admission
// control when configured: a shed tenant returns *ErrOverloaded with a
// RetryAfter hint at no raft cost (tenants ordered before it in the
// batch are still written).
//
// The batch may span tenants and costs one raft proposal per shard it
// touches, all in flight together. ctx stops the call before anything
// is sent and between re-route retries around a down worker; once sent,
// every shard's proposal is waited for, so the outcome is never
// ambiguous. On error some shards' rows may already be committed:
// resend the same rows unchanged and each tenant's part that did commit
// is recognised by its content and skipped, so the batch lands exactly
// once.
func (c *Cluster) AppendContext(ctx context.Context, rows ...Row) error {
	if c.closed.Load() {
		return fmt.Errorf("logstore: cluster closed")
	}
	// Register unseen tenants under one scheduler lock instead of one
	// per row; consecutive same-tenant rows (the common batch shape)
	// collapse before even reaching the scheduler.
	tidp := tenantIDScratch.Get().(*[]flow.TenantID)
	tids := (*tidp)[:0]
	for i, r := range rows {
		t := flow.TenantID(r.Tenant(c.sch))
		if i > 0 && t == tids[len(tids)-1] {
			continue
		}
		tids = append(tids, t)
	}
	c.ctrl.Scheduler().EnsureTenants(tids)
	*tidp = tids[:0]
	tenantIDScratch.Put(tidp)
	return c.broker().AppendContext(ctx, rows)
}

// tenantIDScratch recycles the per-append tenant id list fed to
// Scheduler.EnsureTenants.
var tenantIDScratch = sync.Pool{New: func() any {
	s := make([]flow.TenantID, 0, 128)
	return &s
}}

// Query executes a SQL query (see internal/query for the dialect: the
// paper's SELECT template plus COUNT(*), MATCH, GROUP BY, ORDER BY,
// LIMIT). Queries must pin a tenant with `tenant_id = N`.
func (c *Cluster) Query(sql string) (*Result, error) {
	return c.QueryContext(context.Background(), sql)
}

// QueryContext is Query bounded by ctx: the deadline propagates through
// the broker's scatter into every worker scan and down to the
// object-storage reads, so an expired deadline returns immediately
// without touching OSS, and cancellation mid-query frees the workers'
// concurrency slots.
func (c *Cluster) QueryContext(ctx context.Context, sql string) (*Result, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("logstore: cluster closed")
	}
	return c.broker().QueryContext(ctx, sql)
}

// SetRetention configures a tenant's data lifetime (0 = keep forever).
func (c *Cluster) SetRetention(tenant int64, d time.Duration) {
	c.catalog.SetRetention(tenant, d)
}

// TenantUsage reports archived rows and bytes for billing.
func (c *Cluster) TenantUsage(tenant int64) (rows, bytes int64) {
	return c.catalog.Usage(tenant)
}

// TenantBlocks lists a tenant's archived LogBlocks.
func (c *Cluster) TenantBlocks(tenant int64) []BlockInfo {
	return c.catalog.Blocks(tenant)
}

// Flush forces every worker to archive resident rows to object storage
// and blocks until done. Workers flush concurrently, and one that fails
// (or is down) does not stop the others: the error joins every
// failure. The LogBlocks it commits are also in their read homes' block
// caches, as after any archive cycle: an experiment that must read from
// OSS purges the workers' caches as well.
func (c *Cluster) Flush() error {
	c.mu.RLock()
	workers := make([]*worker.Worker, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	c.mu.RUnlock()
	errs := make([]error, len(workers))
	eachWorker(workers, func(i int, w *worker.Worker) {
		for _, sid := range w.Shards() {
			err := w.FlushShard(sid)
			errs[i] = errors.Join(errs[i], err)
			if errors.Is(err, worker.ErrWorkerDown) {
				return
			}
		}
	})
	return errors.Join(errs...)
}

// eachWorker runs fn for every worker, each on its own goroutine, and
// returns when all have.
func eachWorker(workers []*worker.Worker, fn func(i int, w *worker.Worker)) {
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, w)
		}()
	}
	wg.Wait()
}

// WaitForArchive polls until no rows remain unarchived or the timeout
// passes; it returns the remaining resident row count.
func (c *Cluster) WaitForArchive(timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for {
		var resident int64
		c.mu.RLock()
		for _, w := range c.workers {
			resident += w.ResidentRows()
		}
		c.mu.RUnlock()
		if resident == 0 || time.Now().After(deadline) {
			return resident
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// CompactNow merges small adjacent LogBlocks for every tenant,
// bounding merged blocks at targetRows rows (0 = builder default).
// Returns the number of source blocks merged away. This is the
// background housekeeping that keeps high-frequency archiving from
// littering object storage with tiny objects.
func (c *Cluster) CompactNow(targetRows int) (int, error) {
	return c.eachTenant(func(w *worker.Worker, tenant int64) (int, error) {
		return w.CompactTenant(tenant, targetRows)
	})
}

// RewriteLegacy packs again, in the current layout, every LogBlock that
// an older release wrote: the objects the query path refuses with
// logblock.ErrLegacyLayout. Run it once after upgrading a cluster in
// place; it returns the number of blocks rewritten, and a second run
// rewrites none.
func (c *Cluster) RewriteLegacy() (int, error) {
	return c.eachTenant((*worker.Worker).RewriteLegacy)
}

// eachTenant runs a catalog-wide housekeeping task on every tenant
// through one worker, summing what it reports.
func (c *Cluster) eachTenant(task func(w *worker.Worker, tenant int64) (int, error)) (int, error) {
	c.mu.RLock()
	var w *worker.Worker
	for _, cand := range c.workers {
		w = cand
		break
	}
	c.mu.RUnlock()
	if w == nil {
		return 0, fmt.Errorf("logstore: no workers")
	}
	total := 0
	for _, tenant := range c.catalog.Tenants() {
		n, err := task(w, tenant)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// RebalanceNow runs one hotspot-manager iteration immediately and
// returns what it did (0 none, 1 rebalanced, 2 scale).
func (c *Cluster) RebalanceNow() flow.Action {
	return c.ctrl.RunBalanceOnce()
}

// ExpireNow enforces retention immediately against the given
// wall-clock, returning the number of LogBlocks deleted.
func (c *Cluster) ExpireNow(nowMS int64) int {
	return c.ctrl.RunExpireOnce(nowMS)
}

// RouteTable returns the current tenant routing table (diagnostics and
// the traffic-control experiments).
func (c *Cluster) RouteTable() flow.RouteTable {
	return c.ctrl.Scheduler().Table()
}

// Collector exposes the traffic monitor (experiments record synthetic
// traffic through it).
func (c *Cluster) Collector() *flow.Collector { return c.ctrl.Collector() }

// ApplyStats sums the workers' apply-path counters (see
// worker.ApplyCounters): silent-drop counters that must stay zero,
// content-addressed duplicate suppressions, and the total rows the
// shards inserted into their row stores.
func (c *Cluster) ApplyStats() worker.ApplyCounters {
	var out worker.ApplyCounters
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, w := range c.workers {
		if !w.Alive() {
			continue
		}
		out.Add(w.ApplyStats())
	}
	return out
}

// CoalesceStats sums, across live workers, how many raft proposals the
// append path issued (one per shard a client batch touches) and how many
// tenant sub-batches those carried; batches/groups is how many share a
// raft entry.
func (c *Cluster) CoalesceStats() (groups, batches int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, w := range c.workers {
		if !w.Alive() {
			continue
		}
		g, b := w.CoalesceStats()
		groups += g
		batches += b
	}
	return groups, batches
}

// Schema returns the cluster's table schema.
func (c *Cluster) TableSchema() *Schema { return c.sch }

// ClusterStats is an operational snapshot of the cluster.
type ClusterStats struct {
	Workers        int   `json:"workers"`
	Shards         int   `json:"shards"`
	Tenants        int   `json:"tenants"`
	ArchivedBlocks int   `json:"archived_blocks"`
	ArchivedBytes  int64 `json:"archived_bytes"`
	ArchivedRows   int64 `json:"archived_rows"`
	ResidentRows   int64 `json:"resident_rows"`
	RouteRules     int   `json:"route_rules"`
	Rebalances     int   `json:"rebalances"`
	ScaleEvents    int   `json:"scale_events"`
	ExpiredBlocks  int   `json:"expired_blocks"`
	CacheMemHits   int64 `json:"cache_mem_hits"`
	CacheMemMisses int64 `json:"cache_mem_misses"`
	// Where the LogBlocks committed by the current worker instances were
	// admitted at commit, in blocks and bytes: the committing worker's own
	// block cache, a peer's (in a deployment these bytes cross the
	// worker-to-worker link), or nowhere because the block's read home
	// was down or being replaced.
	HandoffLocalBlocks   int64 `json:"handoff_local_blocks"`
	HandoffLocalBytes    int64 `json:"handoff_local_bytes"`
	HandoffPeerBlocks    int64 `json:"handoff_peer_blocks"`
	HandoffPeerBytes     int64 `json:"handoff_peer_bytes"`
	HandoffDroppedBlocks int64 `json:"handoff_dropped_blocks"`
	HandoffDroppedBytes  int64 `json:"handoff_dropped_bytes"`
}

// Stats returns an operational snapshot (served by the HTTP front end's
// /stats endpoint).
func (c *Cluster) Stats() ClusterStats {
	var s ClusterStats
	c.mu.RLock()
	s.Workers = len(c.workers)
	s.Shards = len(c.shardOwner)
	for _, w := range c.workers {
		s.ResidentRows += w.ResidentRows()
		hits, misses, _, _ := w.CacheStats()
		s.CacheMemHits += hits
		s.CacheMemMisses += misses
		localN, localB, peerN, peerB, droppedN, droppedB := w.HandoffStats()
		s.HandoffLocalBlocks += localN
		s.HandoffLocalBytes += localB
		s.HandoffPeerBlocks += peerN
		s.HandoffPeerBytes += peerB
		s.HandoffDroppedBlocks += droppedN
		s.HandoffDroppedBytes += droppedB
	}
	c.mu.RUnlock()
	for _, tenant := range c.catalog.Tenants() {
		s.Tenants++
		blocks := c.catalog.Blocks(tenant)
		s.ArchivedBlocks += len(blocks)
		for _, b := range blocks {
			s.ArchivedBytes += b.Bytes
			s.ArchivedRows += b.Rows
		}
	}
	s.RouteRules = c.ctrl.Scheduler().Table().Routes()
	s.Rebalances, s.ScaleEvents, s.ExpiredBlocks = c.ctrl.Stats()
	return s
}

// Workers returns the current worker count.
func (c *Cluster) Workers() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.workers)
}

// ---- node-failure injection & recovery ----

// ShardIDs lists every shard in the cluster, ascending.
func (c *Cluster) ShardIDs() []flow.ShardID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shardIDsLocked()
}

// WorkerHealth reports the failure detector's view of a worker.
func (c *Cluster) WorkerHealth(id flow.WorkerID) WorkerState {
	return c.health.State(id)
}

// CrashWorker kills a worker ungracefully — no flush, no checkpoint,
// exactly as a node death would. The worker stays registered (brokers
// see ErrWorkerDown and fail over / re-route) until RecoverWorker
// rebuilds it.
func (c *Cluster) CrashWorker(id flow.WorkerID) error {
	c.mu.RLock()
	w, ok := c.workers[id]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("logstore: no worker %d", id)
	}
	if !w.Alive() {
		return nil
	}
	w.Crash()
	c.crashes.Inc()
	return nil
}

// CrashWorkerWipeDisk kills a worker ungracefully AND destroys its
// local state — the raft WALs under DataDir/worker-N and its SSD cache
// — simulating the total loss of a cloud instance's disk, not just the
// process. RecoverWorker then finds nothing local to replay: with
// ShipWAL enabled it hydrates every hosted shard from the shipped WAL
// (latest snapshot + chunk suffix) on object storage alone.
func (c *Cluster) CrashWorkerWipeDisk(id flow.WorkerID) error {
	if c.cfg.DataDir == "" {
		return fmt.Errorf("logstore: CrashWorkerWipeDisk requires DataDir")
	}
	if err := c.CrashWorker(id); err != nil {
		return err
	}
	if err := os.RemoveAll(fmt.Sprintf("%s/worker-%d", c.cfg.DataDir, id)); err != nil {
		return fmt.Errorf("logstore: wipe worker %d data: %w", id, err)
	}
	if c.cfg.CacheDir != "" {
		if err := os.RemoveAll(fmt.Sprintf("%s/worker-%d", c.cfg.CacheDir, id)); err != nil {
			return fmt.Errorf("logstore: wipe worker %d cache: %w", id, err)
		}
	}
	c.wipes.Inc()
	return nil
}

// RecoverWorker rebuilds a crashed worker in place: a fresh node with
// the same id and DataDir re-opens every hosted shard's raft WAL,
// replays un-archived entries into a new row store, and resumes
// serving. With durable storage configured, every row acked before the
// crash is queryable afterwards (resident via replay, or already
// archived on OSS).
func (c *Cluster) RecoverWorker(id flow.WorkerID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.workers[id]
	if !ok {
		return fmt.Errorf("logstore: no worker %d", id)
	}
	if old.Alive() {
		return nil
	}
	old.Close() // release caches/pool of the dead instance; idempotent
	w, err := c.newWorkerLocked(id)
	if err != nil {
		return fmt.Errorf("logstore: recover worker %d: %w", id, err)
	}
	sids := make([]flow.ShardID, 0)
	for sid, owner := range c.shardOwner {
		if owner == id {
			sids = append(sids, sid)
		}
	}
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	for _, sid := range sids {
		if err := w.AddShard(sid); err != nil {
			w.Close()
			return fmt.Errorf("logstore: recover worker %d shard %d: %w", id, sid, err)
		}
	}
	c.workers[id] = w
	c.health.Beat(id) // don't wait a heartbeat round to route to it
	c.recoveries.Inc()
	return nil
}

// shardWorker resolves the worker hosting a shard.
func (c *Cluster) shardWorker(s flow.ShardID) (*worker.Worker, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	wid, ok := c.shardOwner[s]
	if !ok {
		return nil, fmt.Errorf("logstore: no shard %d", s)
	}
	w, ok := c.workers[wid]
	if !ok {
		return nil, fmt.Errorf("logstore: shard %d owner %d missing", s, wid)
	}
	return w, nil
}

// SlowShardApply injects (d > 0) or clears (d = 0) an apply-path delay
// on one shard: commits keep acking while its state machine lags —
// the classic gray failure of an overloaded but live node.
func (c *Cluster) SlowShardApply(s flow.ShardID, d time.Duration) error {
	w, err := c.shardWorker(s)
	if err != nil {
		return err
	}
	return w.SlowShardApply(s, d)
}

// MemoryProxy approximates the cluster's dynamic memory: every live
// worker's queue and cache footprint plus the admission layer's
// in-flight append bytes. Chaos gates assert it stays bounded while
// faults are pushing every queue toward growth.
func (c *Cluster) MemoryProxy() int64 {
	var total int64
	c.mu.RLock()
	for _, w := range c.workers {
		if w.Alive() {
			total += w.MemoryFootprint()
		}
	}
	c.mu.RUnlock()
	if c.admission != nil {
		total += c.admission.InflightBytes()
	}
	return total
}

// RecoveryStats summarizes the cluster's failure handling: node crashes
// injected/observed, workers rebuilt, and the
// brokers' failover, hedge, and write re-route counts.
type RecoveryStats struct {
	Crashes    int64 `json:"crashes"`
	Recoveries int64 `json:"recoveries"`
	Failovers  int64 `json:"failovers"`
	Hedges     int64 `json:"hedges"`
	Reroutes   int64 `json:"reroutes"`
	// Disk-loss durability (ShipWAL): wipes injected, shards hydrated
	// from OSS, lifetime ship counters, and the current exposure window
	// (acked rows not yet readable from OSS alone).
	Wipes            int64 `json:"wipes"`
	Hydrations       int64 `json:"hydrations"`
	ShipChunks       int64 `json:"ship_chunks"`
	ShipSnapshots    int64 `json:"ship_snapshots"`
	ShipErrors       int64 `json:"ship_errors"`
	UnshippedBytes   int64 `json:"unshipped_bytes"`
	UnshippedEntries int64 `json:"unshipped_entries"`
	MaxLastShipAgeMS int64 `json:"max_last_ship_age_ms"`
	// Graceful degradation: requests stopped by caller cancellation,
	// requests cut short by an expired deadline, and batches shed by
	// admission control (broker view / admission layer view).
	Canceled        int64 `json:"canceled"`
	DeadlineExpired int64 `json:"deadline_expired"`
	Shed            int64 `json:"shed"`
	Admitted        int64 `json:"admitted"`
}

// RecoveryStats returns the current failure-handling counters.
func (c *Cluster) RecoveryStats() RecoveryStats {
	s := RecoveryStats{
		Crashes:    c.crashes.Value(),
		Recoveries: c.recoveries.Value(),
		Wipes:      c.wipes.Value(),
	}
	for _, b := range c.brokers {
		f, h, r := b.Stats()
		s.Failovers += f
		s.Hedges += h
		s.Reroutes += r
		canceled, expired, shed := b.DegradeStats()
		s.Canceled += canceled
		s.DeadlineExpired += expired
		s.Shed += shed
	}
	if c.admission != nil {
		s.Admitted, _ = c.admission.Stats()
	}
	c.mu.RLock()
	for _, w := range c.workers {
		s.Hydrations += w.Hydrations()
		if !w.Alive() {
			continue
		}
		ss := w.ShipStats()
		s.ShipChunks += ss.Chunks
		s.ShipSnapshots += ss.Snapshots
		s.ShipErrors += ss.Errors
		s.UnshippedBytes += ss.UnshippedBytes
		s.UnshippedEntries += ss.UnshippedEntries
		if ms := ss.MaxLastShipAge.Milliseconds(); ms > s.MaxLastShipAgeMS {
			s.MaxLastShipAgeMS = ms
		}
	}
	c.mu.RUnlock()
	return s
}

// Close stops background loops and all nodes. Resident (unarchived)
// rows are flushed to object storage on the way down.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	close(c.hbStop)
	<-c.hbDone
	if c.ctrl != nil {
		c.ctrl.Stop()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	workers := make([]*worker.Worker, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	// Each worker's final drain archives its resident rows.
	eachWorker(workers, func(_ int, w *worker.Worker) { w.Close() })
	// Persist the catalog so a reopen over the same store recovers all
	// tenant metadata.
	if c.ctrl != nil {
		_ = c.ctrl.Checkpoint()
	}
}
