package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	logstore "logstore"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// Dataset and rate sizes. They are set by the run-time budget: the
// driver makes some ninety runs in under an hour and every run sets up
// at least three times, so a set-up has about three seconds.
const (
	// queryRows is the archived history behind query_cold and
	// query_warm: 19.9 MB of user data, 25.6 MB of LogBlocks in 1000
	// objects, one per tenant.
	queryRows = 100_000
	// queryCacheBytes is CacheMemoryBytes for the query workloads: the
	// per-worker raw-byte block cache (the decoded-object cache beside
	// it is fixed at 32 MiB per worker).
	queryCacheBytes = 8 << 20
	// query_warm reads the hot set: the warmTenants hottest tenants
	// (about 45% of all rows), whose archived bytes must stay within
	// warmBudgetBytes, a quarter of the three workers' block caches.
	warmTenants     = 8
	warmBudgetBytes = 3 * queryCacheBytes / 4
	// mixedPreloadRows is the archived history under mixed_paced, drawn
	// over the mixedPreloadTenants hottest tenants only: archiving costs
	// about 2 ms of CPU and 2 ms of sleep per tenant, and the reader
	// visits only the hottest mixedReadTenants.
	mixedPreloadRows    = 20_000
	mixedPreloadTenants = 100
	// mixedBatchesPerSec paces mixed_paced's writer: 100 batches of 200
	// rows, 20 000 rows/s, about a fifth of this cluster's closed-loop
	// in-memory capacity on two cores.
	mixedBatchesPerSec = 100
	// mixedPairsPerSec paces mixed_paced's reader.
	mixedPairsPerSec = 100
	// mixedReadTenants is how many of the hottest tenants the
	// mixed_paced reader cycles over.
	mixedReadTenants = 100
	// recentWindowMS is mixed_paced's "last minute" of data time.
	recentWindowMS = 60_000
	// A run sets up at least setupMin times and goes on, up to setupMax
	// times, while all its set-ups together have taken less than
	// setupBudget; setup_s is the median. Cheap set-ups (a fifth of a
	// second on ingest_durable) get the repeats a steady median needs.
	setupMin    = 3
	setupMax    = 7
	setupBudget = 3 * time.Second
	// ladderInputs bounds the recorded batches and queries the traced
	// run replays through the per-layer ladder.
	ladderInputs = 200
)

// Timestamp layout: preloaded histories start at historyStartMS; each
// live writer owns a disjoint range from writerStartMS on, because the
// ingest path dedups batches by content hash and only one generator
// stream guarantees unique timestamps.
const (
	historyStartMS = 1_000
	writerStartMS  = 1_000_000_000
	writerSpanMS   = 1_000_000_000
)

// env is one set-up: a running cluster over a metered, simulated object
// store, plus whatever dataset the workload preloaded.
type env struct {
	c     *logstore.Cluster
	store *meteredStore
	mem   *oss.MemStore // the bytes under the latency model (ladder reads them raw)
	dir   string        // scratch directory, removed on close

	// tracer is the traced run's recorder (nil in the untraced run);
	// rec is tracer while spans are being recorded, nil while not.
	tracer *recorder
	rec    atomic.Pointer[recorder]

	data *dataset          // preloaded history (nil for ingest_durable)
	cold [][]*checkedQuery // query_cold laps
	warm []*checkedQuery   // query_warm cycle

	ackedRows  atomic.Int64
	ackedBytes atomic.Int64

	mu sync.Mutex
	// ackedByTenant counts acked rows per tenant, for the read-back
	// check after ingest.
	ackedByTenant map[int64]int64
	// batches and queries are the first inputs the measured run issued,
	// kept for the ladder; setupBatches are the first that set-up did,
	// for the workloads whose run appends nothing.
	batches      [][]schema.Row
	setupBatches [][]schema.Row
	queries      []string
}

// endSetup separates what set-up appended from what the run will.
func (e *env) endSetup() {
	e.setupBatches, e.batches = e.batches, nil
}

// recordedBatches is the ladder's write-side input.
func (e *env) recordedBatches() [][]schema.Row {
	if len(e.batches) > 0 {
		return e.batches
	}
	return e.setupBatches
}

// setTracing turns span recording on or off in a traced run: root spans
// around client calls, child spans around object-store calls.
func (e *env) setTracing(on bool) {
	rec := e.tracer
	if !on {
		rec = nil
	}
	e.rec.Store(rec)
	e.store.rec.Store(rec)
}

func (e *env) close() {
	e.c.Close()
	if e.dir != "" {
		_ = os.RemoveAll(e.dir) // scratch data; a leftover is harmless and gitignored
	}
}

// noteAcked books an acknowledged batch.
func (e *env) noteAcked(b []schema.Row) {
	var bytes int64
	for _, r := range b {
		bytes += int64(r.Size())
	}
	e.ackedRows.Add(int64(len(b)))
	e.ackedBytes.Add(bytes)
	e.mu.Lock()
	for _, r := range b {
		e.ackedByTenant[r[colTenant].I]++
	}
	if len(e.batches) < ladderInputs {
		e.batches = append(e.batches, b)
	}
	e.mu.Unlock()
}

func (e *env) noteQuery(sql string) {
	e.mu.Lock()
	if len(e.queries) < ladderInputs {
		e.queries = append(e.queries, sql)
	}
	e.mu.Unlock()
}

// open starts a cluster on a fresh simulated object store: an in-memory
// store behind the default latency model (2 ms per request, 200 MB/s,
// 20% jitter — it sleeps, it does not burn CPU).
func open(o *options, cfg logstore.Config) (*env, error) {
	mem := oss.NewMemStore()
	e := &env{
		mem:           mem,
		store:         &meteredStore{inner: oss.NewSimStore(mem, oss.DefaultLatencyModel(), o.seed)},
		ackedByTenant: make(map[int64]int64),
	}
	cfg.Store = e.store
	if cfg.DataDir != "" {
		e.dir = cfg.DataDir
	}
	c, err := logstore.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open cluster: %w", err)
	}
	e.c = c
	return e, nil
}

// preload appends a generated history from two goroutines, archives all
// of it, and keeps the dataset as the oracle.
func (e *env) preload(d *dataset) error {
	var next atomic.Int64
	err := fanOut(2, func(int) error {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(d.batches) {
				return nil
			}
			if err := e.c.AppendContext(context.Background(), d.batches[i]...); err != nil {
				return fmt.Errorf("preload batch %d: %w", i, err)
			}
			e.noteAcked(d.batches[i])
		}
	})
	if err != nil {
		return err
	}
	e.data = d
	return e.archiveAll()
}

// archiveAll moves every resident row to object storage and waits for
// the row stores to drain.
func (e *env) archiveAll() error {
	if err := flushParallel(e.c); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if left := e.c.WaitForArchive(20 * time.Second); left != 0 {
		return fmt.Errorf("flush left %d rows resident", left)
	}
	return nil
}

// ---- ingest_mem / ingest_durable ----

// setupIngest opens an empty cluster, its raft logs in memory or, when
// durable, on fsynced WALs under a scratch directory.
func setupIngest(o *options, durable bool) (*env, error) {
	var cfg logstore.Config
	if durable {
		dir, err := scratchDir(o)
		if err != nil {
			return nil, err
		}
		cfg.DataDir = dir
	}
	e, err := open(o, cfg)
	if err != nil {
		if cfg.DataDir != "" {
			_ = os.RemoveAll(cfg.DataDir)
		}
		return nil, err
	}
	// The cluster is ready when every shard group has elected a leader;
	// one multi-tenant batch reaches most shards and waits for theirs.
	probe := generate(o.seed, tenants, batchRows, historyStartMS, 1)
	if err := e.c.AppendContext(context.Background(), probe.batches[0]...); err != nil {
		e.close()
		return nil, fmt.Errorf("probe batch: %w", err)
	}
	e.noteAcked(probe.batches[0])
	return e, nil
}

// writer is a closed-loop append client: generate a batch, append it,
// wait for the ack, repeat. Generation happens between operations and
// is in no latency sample.
func (e *env) writer(o *options, id int) client {
	return func(stop func() bool, log *opLog) {
		gen := workload.NewGenerator(workload.GeneratorConfig{
			Tenants: tenants, Theta: theta, Seed: o.seed*16 + int64(id) + 1,
			StartMS: writerStartMS + int64(id)*writerSpanMS,
		})
		for !stop() {
			b := gen.Batch(batchRows)
			start := time.Now()
			err := e.send(o, b)
			end := time.Now()
			log.record(sample{end: end, latency: end.Sub(start), ok: err == nil})
		}
	}
}

// send appends one batch under a root span and books the ack.
func (e *env) send(o *options, b []schema.Row) error {
	ctx := context.Background()
	var id int64
	var start time.Time
	rec := e.rec.Load()
	if rec != nil {
		id, start = rec.newID(), time.Now()
		ctx = withSpan(ctx, id)
	}
	err := e.c.AppendContext(ctx, b...)
	if rec != nil {
		rec.put(id, 0, id, "Cluster.AppendContext", start, time.Now())
	}
	if err != nil {
		o.logf("append: %v", err)
		return err
	}
	e.noteAcked(b)
	return nil
}

// ---- query_cold / query_warm ----

func setupQuery(o *options, warmPass bool) (*env, error) {
	e, err := open(o, logstore.Config{
		CacheMemoryBytes: queryCacheBytes,
		// Only the flush below archives, so the block layout is one
		// LogBlock per tenant and shard, not a function of how many
		// one-second archive cycles the preload happened to span.
		ArchiveInterval: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	d := generate(o.seed, tenants, queryRows, historyStartMS, historyMS/queryRows)
	if err := e.preload(d); err != nil {
		e.close()
		return nil, err
	}
	grid := d.queryGrid(o.seed)
	e.cold = laps(grid)
	e.warm = e.warmSet(grid)
	if warmPass {
		if err := e.warmCaches(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// warmSet returns the hot set's queries, shape by shape: the hottest
// tenants in rank order, fewer if their archived bytes would pass the
// warm budget.
func (e *env) warmSet(grid [][]*checkedQuery) []*checkedQuery {
	var chosen []int
	var bytes int64
	for t := 0; t < tenants; t++ {
		for _, blk := range e.c.TenantBlocks(int64(t)) {
			bytes += blk.Bytes
		}
		if bytes > warmBudgetBytes || len(chosen) == warmTenants {
			break
		}
		chosen = append(chosen, t)
	}
	var out []*checkedQuery
	for s := 0; s < shapes; s++ {
		for _, t := range chosen {
			if q := grid[t][s]; q != nil {
				out = append(out, q)
			}
		}
	}
	return out
}

// warmCaches runs every warm query once so the measured interval finds
// its blocks cached. Eight goroutines: the pass is set-up, and the time
// in it is object-store sleep that overlaps.
func (e *env) warmCaches() error {
	var next atomic.Int64
	return fanOut(8, func(int) error {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(e.warm) {
				return nil
			}
			if _, err := e.c.QueryContext(context.Background(), e.warm[i].SQL); err != nil {
				return fmt.Errorf("warming pass: %w", err)
			}
		}
	})
}

// queryStats accumulates what the executor reported for each query.
type queryStats struct {
	mu       sync.Mutex
	exec     query.ExecStats // running sum of every Result.Stats
	queries  int
	examined int       // queries that examined at least one LogBlock
	probed   []float64 // index lookups + column blocks scanned, per query
	matched  []float64 // rows matched, per query
	wrong    int
}

func (qs *queryStats) note(res *logstore.Result, ok bool) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.queries++
	qs.exec.Add(res.Stats)
	if res.Stats.BlocksExamined > 0 {
		qs.examined++
	}
	qs.probed = append(qs.probed, float64(res.Stats.IndexLookups+res.Stats.ColumnBlocksScanned))
	qs.matched = append(qs.matched, float64(res.Stats.RowsMatched))
	if !ok {
		qs.wrong++
	}
}

// perQuery is what the executor reported per query, over every query the
// run issued (warm-up and read-back included), under the names the
// per-layer list gives them.
func (qs *queryStats) perQuery() map[string]float64 {
	n, ex := float64(qs.queries), qs.exec
	return map[string]float64{
		"query.blocks_examined_per_query":    ratio(float64(ex.BlocksExamined), n),
		"query.blocks_skipped_sma_per_query": ratio(float64(ex.BlocksSkippedBySMA), n),
		"query.index_lookups_per_query":      ratio(float64(ex.IndexLookups), n),
		"query.colblocks_scanned_per_query":  ratio(float64(ex.ColumnBlocksScanned), n),
		"query.colblocks_skipped_per_query":  ratio(float64(ex.ColumnBlocksSkipped), n),
		"query.rows_matched_per_query":       ratio(float64(ex.RowsMatched), n),
	}
}

// query runs one SQL statement under a root span, checks the row count
// with check, and records the sample. It reports whether the query
// succeeded and was right.
func (e *env) query(o *options, log *opLog, qs *queryStats, sql string, check func(got int) bool) bool {
	ctx := context.Background()
	var id int64
	rec := e.rec.Load()
	if rec != nil {
		// The cluster only threads a cancellable context down to its
		// storage reads, so the span tag rides on one.
		var cancel context.CancelFunc
		id = rec.newID()
		ctx, cancel = context.WithCancel(withSpan(ctx, id))
		defer cancel()
	}
	e.noteQuery(sql)
	start := time.Now()
	res, err := e.c.QueryContext(ctx, sql)
	end := time.Now()
	if rec != nil {
		rec.put(id, 0, id, "Cluster.QueryContext", start, end)
	}
	ok := err == nil
	if err != nil {
		o.logf("query: %v", err)
	} else {
		got := len(res.Rows)
		if got == 0 {
			got = int(res.Count)
		}
		right := check(got)
		if !right {
			o.logf("query returned %d rows, oracle disagrees: %s", got, sql)
		}
		qs.note(res, right)
		ok = right
	}
	if log != nil {
		log.record(sample{end: end, latency: end.Sub(start), ok: ok})
	}
	return ok
}

// purgeCaches empties every worker's block and object cache.
func (e *env) purgeCaches() {
	for _, id := range e.c.WorkerIDs() {
		if w, ok := e.c.Worker(id); ok {
			w.PurgeCaches()
		}
	}
}

// coldReader is a closed-loop reader over the cold laps. The readers
// share one cursor; whoever starts a lap first empties every cache, so
// each query of a lap meets its tenant's LogBlocks uncached. (The issue
// sizes the history at twice all cache levels instead; that is 240 MiB
// of LogBlocks, minutes of set-up, and the run budget has seconds.)
func (e *env) coldReader(o *options, cursor *atomic.Int64, qs *queryStats) client {
	var flat []*checkedQuery
	lapStart := make(map[int]bool)
	for _, lap := range e.cold {
		lapStart[len(flat)] = true
		flat = append(flat, lap...)
	}
	return func(stop func() bool, log *opLog) {
		for !stop() {
			i := int(cursor.Add(1)-1) % len(flat)
			if lapStart[i] {
				e.purgeCaches()
			}
			q := flat[i]
			e.query(o, log, qs, q.SQL, func(got int) bool { return got == q.want })
		}
	}
}

// warmReader is a closed-loop reader cycling over the warmed set.
func (e *env) warmReader(o *options, cursor *atomic.Int64, qs *queryStats) client {
	return func(stop func() bool, log *opLog) {
		for !stop() {
			q := e.warm[int(cursor.Add(1)-1)%len(e.warm)]
			e.query(o, log, qs, q.SQL, func(got int) bool { return got == q.want })
		}
	}
}

// ---- mixed_paced ----

func setupMixed(o *options) (*env, error) {
	e, err := open(o, logstore.Config{})
	if err != nil {
		return nil, err
	}
	if err := e.preload(generate(o.seed, mixedPreloadTenants, mixedPreloadRows, historyStartMS, 1)); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// pacedWriter sends one batch every 1/mixedBatchesPerSec seconds from a
// single goroutine and publishes the newest timestamp it has written.
func (e *env) pacedWriter(o *options, newest *atomic.Int64) client {
	return func(stop func() bool, log *opLog) {
		gen := workload.NewGenerator(workload.GeneratorConfig{
			Tenants: tenants, Theta: theta, Seed: o.seed*16 + 1, StartMS: writerStartMS,
		})
		var b []schema.Row
		p := pacer{clk: wallClock{}, start: time.Now(), interval: time.Second / mixedBatchesPerSec}
		p.run(stop,
			func(int) { b = gen.Batch(batchRows) },
			func(int) error {
				err := e.send(o, b)
				if err == nil {
					newest.Store(b[len(b)-1][colTS].I)
				}
				return err
			},
			log.record)
	}
}

// pairReader is mixed_paced's reader, paced like the writer: one pair
// every 1/mixedPairsPerSec seconds, timed from its due time. One
// operation is a pair — a last-minute query, then a full-history query
// for slow requests, on the same tenant — because the two kinds differ
// several fold in cost and the median of their union would sit on the
// boundary between them. Per-kind samples go to recent and history.
//
// The issue has this reader closed-loop, soaking up whatever CPU the
// writer leaves. On two cores that measures the leftover of a nearly
// full box: the same commit gave 985 to 1636 pairs/s across ten runs.
// At a fixed rate below saturation both sides report latency and the
// process reports CPU per operation, and those repeat.
func (e *env) pairReader(o *options, newest *atomic.Int64, qs *queryStats, recent, history *opLog) client {
	// Everything preloaded is in a full-history query's range, so its
	// count can only exceed the oracle's by rows written since.
	floors := make([]int, mixedReadTenants)
	for t := range floors {
		floors[t] = e.data.expect(workload.QuerySpec{Tenant: int64(t), StartMS: 0, EndMS: endOfTime, MinLat: 100})
	}
	return func(stop func() bool, log *opLog) {
		p := pacer{clk: wallClock{}, start: time.Now(), interval: time.Second / mixedPairsPerSec}
		p.run(stop, nil,
			func(i int) error {
				t := i % mixedReadTenants
				now := max(newest.Load(), writerStartMS)
				ok1 := e.query(o, recent, qs, fmt.Sprintf(
					"SELECT log FROM request_log WHERE tenant_id = %d AND ts >= %d AND ts <= %d",
					t, now-recentWindowMS, now),
					func(int) bool { return true })
				ok2 := e.query(o, history, qs, fmt.Sprintf(
					"SELECT log FROM request_log WHERE tenant_id = %d AND ts >= 0 AND ts <= %d AND latency >= 100",
					t, now),
					func(got int) bool { return got >= floors[t] })
				if !ok1 || !ok2 {
					return errPairFailed
				}
				return nil
			},
			log.record)
	}
}

var errPairFailed = errors.New("a query of the pair failed or was wrong")

// scratchDir makes a fresh directory under benchmark/out for data that
// must be on disk (raft WALs, ladder fixtures).
func scratchDir(o *options) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(o.outDir, "scratch-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
