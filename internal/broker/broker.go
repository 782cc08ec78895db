// Package broker implements LogStore's distributed query layer (paper
// §3): brokers accept SQL requests, parse and validate them, route
// writes by the tenant routing table pushed from the controller's
// hotspot manager, scatter sub-queries — real-time reads to the shards
// that may hold the tenant's recent data, archived reads to workers
// chosen by cache affinity — and merge the partial results into the
// client response.
package broker

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"logstore/internal/backpressure"
	"logstore/internal/flow"
	"logstore/internal/meta"
	"logstore/internal/metrics"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/worker"
)

// WorkerPool resolves workers and shard placement; the cluster harness
// implements it.
type WorkerPool interface {
	// Worker returns the worker node by id.
	Worker(id flow.WorkerID) (*worker.Worker, bool)
	// ShardOwner returns the worker hosting a shard.
	ShardOwner(s flow.ShardID) (flow.WorkerID, bool)
	// WorkerIDs lists all workers (ascending). The caller must not
	// modify the slice.
	WorkerIDs() []flow.WorkerID
}

// Config configures a broker.
type Config struct {
	ID int
	// ExecOptions controls archived-read optimizations; the default
	// enables data skipping (the paper's production setting).
	Exec query.ExecOptions
	// Seed randomizes weighted routing.
	Seed int64
	// Health, when set, steers sub-queries and writes away from workers
	// the cluster believes are down or slow, and enables failover:
	// a failed block sub-query is retried on the next healthy worker.
	// Nil treats every worker as healthy (single-node setups, tests).
	Health *flow.HealthTracker
	// HedgeDelay, when positive, re-dispatches a block sub-query to a
	// second worker if the first has not answered within the delay (the
	// paper's tail-latency hedge); first success wins. At most one
	// hedge is launched per block set.
	HedgeDelay time.Duration
	// AppendRetryWindow bounds how long Append keeps re-routing a
	// tenant batch around a down worker before giving up (0 = 5s).
	AppendRetryWindow time.Duration
	// Admission, when set, rate-limits appends per tenant (rows/s and
	// bytes/s token buckets) under a global in-flight byte budget,
	// shedding excess with *backpressure.ErrOverloaded before any
	// routing or raft work is done. Nil disables admission control.
	Admission *backpressure.Admission
}

// Broker is one query-layer node.
type Broker struct {
	cfg       Config
	sch       *schema.Schema
	router    *flow.Router
	collector *flow.Collector
	catalog   *meta.Manager
	pool      WorkerPool

	// failover/hedge/reroute counters, exposed through Stats.
	failovers metrics.Counter
	hedges    metrics.Counter
	reroutes  metrics.Counter

	// degradation counters, exposed through DegradeStats: requests
	// stopped by caller cancellation, by an expired deadline, and
	// batches shed by admission control.
	canceled metrics.Counter
	expired  metrics.Counter
	shed     metrics.Counter
}

// New constructs a broker. The router must be subscribed to the
// controller's scheduler by the caller (scheduler.Subscribe(r.Update)).
func New(cfg Config, sch *schema.Schema, router *flow.Router,
	collector *flow.Collector, catalog *meta.Manager, pool WorkerPool) (*Broker, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if router == nil || collector == nil || catalog == nil || pool == nil {
		return nil, fmt.Errorf("broker: nil dependency")
	}
	return &Broker{cfg: cfg, sch: sch, router: router, collector: collector, catalog: catalog, pool: pool}, nil
}

// tenantSub is one tenant's rows of a client batch, in arrival order:
// the unit of routing, of admission and of exactly-once dedup (the
// worker encodes each as its own sub-proposal).
type tenantSub struct {
	tenant int64
	shard  flow.ShardID // where the current round routed it
	rows   []schema.Row // a run of appendScratch.rows
	num    int32        // groupByTenant's: order of first appearance in the batch
}

// shardUnit is one round's bucket of tenant subs bound for one shard,
// subs[lo:hi], and what became of it: err (set without enqueueing: the
// shard has no live owner) or else pending.
type shardUnit struct {
	lo, hi  int
	wid     flow.WorkerID
	pending worker.PendingAppend
	err     error
	retry   bool // err is a dead or missing owner: re-route
}

// appendScratch is the reusable grouping state of one AppendContext
// call. The slices and the map keep their capacity across calls, but no
// entry outlives its call (release empties the map and drops the row
// references), so a pooled scratch is as large as the largest batch it
// has served, not the tenant population.
type appendScratch struct {
	subOf   map[int64]int32 // tenant → index in subs while rows are counted
	rowSub  []int32         // rowSub[i]: the sub, as first numbered, of row i
	cursor  []int32         // by that number: the sub's row count, then where its next row goes in rows
	rows    []schema.Row    // the call's rows ordered by (tenant, arrival)
	subs    []tenantSub
	units   []shardUnit
	batches [][]schema.Row // one unit's EnqueueAppend argument
	charges []backpressure.TenantCharge
	traffic []flow.TenantRows // one committed unit's, for the collector
}

var appendScratchPool = sync.Pool{New: func() any {
	return &appendScratch{subOf: make(map[int64]int32)}
}}

func (s *appendScratch) release() {
	clear(s.subOf)
	clear(s.rows)
	clear(s.subs)
	clear(s.units)
	clear(s.batches)
	appendScratchPool.Put(s)
}

// groupByTenant checks rows against the schema and splits them into one
// tenantSub per tenant, ascending, by a counting sort: number and count
// the tenants, order them, then deal each row to its tenant's run of
// s.rows. A tenant's rows keep their arrival order, so its sub-proposal
// bytes — and with them its batch id — depend only on the rows the
// client sent for it.
func (s *appendScratch) groupByTenant(sch *schema.Schema, rows []schema.Row) error {
	tenantIdx := sch.TenantIdx()
	subs, rowSub, cursor := s.subs[:0], s.rowSub[:0], s.cursor[:0]
	for i, r := range rows {
		if err := r.Conforms(sch); err != nil {
			return fmt.Errorf("broker: row %d: %w", i, err)
		}
		t := r[tenantIdx].I
		j, ok := s.subOf[t]
		if !ok {
			j = int32(len(subs))
			s.subOf[t] = j
			subs = append(subs, tenantSub{tenant: t, num: j})
			cursor = append(cursor, 0)
		}
		cursor[j]++
		rowSub = append(rowSub, j)
	}
	slices.SortFunc(subs, func(x, y tenantSub) int { return cmp.Compare(x.tenant, y.tenant) })
	s.rows = slices.Grow(s.rows[:0], len(rows))[:len(rows)]
	off := int32(0)
	for i := range subs {
		c := &cursor[subs[i].num]
		subs[i].rows = s.rows[off : off+*c]
		off, *c = off+*c, off
	}
	for i, r := range rows {
		c := &cursor[rowSub[i]]
		s.rows[*c] = r
		*c++
	}
	s.subs, s.rowSub, s.cursor = subs, rowSub, cursor
	return nil
}

// countCtxErr attributes a context failure to the right degradation
// counter and returns err unchanged.
func (b *Broker) countCtxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		b.expired.Inc()
	case errors.Is(err, context.Canceled):
		b.canceled.Inc()
	}
	return err
}

// AppendContext routes and writes a batch of rows, which may span
// tenants, at the cost of one raft proposal per shard the batch
// touches: the rows are grouped into per-tenant subs, admission charges
// them, every admitted sub is routed by the routing table, the subs are
// bucketed by shard, every bucket is enqueued on its worker as one unit
// before any is waited for, and then all outcomes are collected.
//
// Admission runs up front in one locked pass over every tenant sub
// (clock, degradation probe and lock amortized across the call) and
// admits a prefix in tenant order: a shed tenant stops the charging
// scan at no routing, raft or clock cost, the admitted prefix is still
// written, and the typed *backpressure.ErrOverloaded (with its retry
// hint) surfaces after, unless the write itself failed.
//
// Failure: ctx is checked before each unit is enqueued and between
// rounds; once enqueued a unit is always waited for, because an
// abandoned commit would have an ambiguous outcome. Every unit of a
// round therefore resolves — other shards' units commit whatever one
// shard's does — and the error returned is the first in shard order. A
// unit whose owner is down is not an error yet: see appendSubs. After
// any error the client may resend the same batch unchanged: each
// tenant's sub carries a batch id derived from its rows alone, so the
// subs that did commit are suppressed on the shard and the rest land,
// exactly once.
func (b *Broker) AppendContext(ctx context.Context, rows []schema.Row) error {
	if len(rows) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return b.countCtxErr(err)
	}
	scratch := appendScratchPool.Get().(*appendScratch)
	defer scratch.release()
	if err := scratch.groupByTenant(b.sch, rows); err != nil {
		return err
	}
	subs := scratch.subs
	var admErr error
	if adm := b.cfg.Admission; adm != nil {
		// Byte sizing is skipped when no budget is denominated in bytes.
		needBytes := adm.NeedsBytes()
		charges := scratch.charges[:0]
		for _, sub := range subs {
			var bytes int64
			if needBytes {
				for _, r := range sub.rows {
					bytes += int64(r.Size())
				}
			}
			charges = append(charges, backpressure.TenantCharge{Tenant: sub.tenant, Rows: len(sub.rows), Bytes: bytes})
		}
		scratch.charges = charges
		n, charged, err := adm.AdmitBatch(charges)
		defer adm.Release(charged)
		if err != nil {
			b.shed.Inc()
			admErr = err
		}
		subs = subs[:n]
	}
	if err := b.appendSubs(ctx, scratch, subs); err != nil {
		return err
	}
	return admErr
}

// appendSubs writes tenant subs in rounds of route → bucket by shard →
// enqueue every bucket → wait for every bucket. One round is the whole
// of a healthy append. A bucket whose owning worker is down (health
// says dead, the pool no longer has it, or the write came back
// ErrWorkerDown) is re-routed in the next round, its tenants only, a
// beat later, until the cluster swaps in the recovered worker — whose
// shard raft group elects its own leader — or the retry window closes;
// reroutes counts those extra rounds. Raft leadership moves inside a
// worker are handled below the broker (the worker's propose retries
// across elections itself). Any other error ends the call after its
// round.
func (b *Broker) appendSubs(ctx context.Context, s *appendScratch, subs []tenantSub) error {
	// The deadline is read lazily so the success path (every append,
	// under load) never touches the clock.
	var deadline time.Time
	for len(subs) > 0 {
		if err := ctx.Err(); err != nil {
			return b.countCtxErr(err)
		}
		for i := range subs {
			subs[i].shard = b.router.Route(flow.TenantID(subs[i].tenant))
		}
		slices.SortFunc(subs, func(x, y tenantSub) int {
			if c := cmp.Compare(x.shard, y.shard); c != 0 {
				return c
			}
			return cmp.Compare(x.tenant, y.tenant) // deterministic write order
		})
		units := s.units[:0]
		for lo := 0; lo < len(subs); {
			hi := lo + 1
			for hi < len(subs) && subs[hi].shard == subs[lo].shard {
				hi++
			}
			units = append(units, b.enqueueUnit(ctx, s, subs, lo, hi))
			lo = hi
		}
		s.units = units

		var firstErr, downErr error
		down := 0 // subs[:down] go round again
		for _, u := range units {
			err := u.err
			if err == nil {
				err = u.pending.Wait()
			}
			unit := subs[u.lo:u.hi]
			switch {
			case err == nil:
				traffic := s.traffic[:0]
				for _, sub := range unit {
					traffic = append(traffic, flow.TenantRows{Tenant: flow.TenantID(sub.tenant), Rows: int64(len(sub.rows))})
				}
				s.traffic = traffic
				b.collector.RecordUnit(unit[0].shard, u.wid, traffic)
			case u.retry || errors.Is(err, worker.ErrWorkerDown):
				downErr = err
				down += copy(subs[down:], unit)
			case firstErr != nil:
				// Resolved like every unit; only the first error is reported.
			case isCtxErr(err):
				firstErr = b.countCtxErr(err)
			default:
				firstErr = fmt.Errorf("broker: append %d tenants to shard %d: %w", len(unit), unit[0].shard, err)
			}
		}
		if firstErr != nil {
			return firstErr
		}
		if subs = subs[:down]; down == 0 {
			break
		}
		if deadline.IsZero() {
			window := b.cfg.AppendRetryWindow
			if window <= 0 {
				window = 5 * time.Second
			}
			deadline = time.Now().Add(window)
		} else if time.Now().After(deadline) {
			return fmt.Errorf("broker: append tenant %d: no live route: %w", subs[0].tenant, downErr)
		}
		b.reroutes.Inc()
		if err := sleepInterruptible(ctx, 5*time.Millisecond); err != nil {
			return b.countCtxErr(err)
		}
	}
	return nil
}

// enqueueUnit hands subs[lo:hi], all routed to one shard, to the
// shard's owner as one unit and returns without waiting for it.
func (b *Broker) enqueueUnit(ctx context.Context, s *appendScratch, subs []tenantSub, lo, hi int) shardUnit {
	u := shardUnit{lo: lo, hi: hi}
	shard := subs[lo].shard
	wid, ok := b.pool.ShardOwner(shard)
	if !ok {
		u.err = fmt.Errorf("broker: shard %d has no owner", shard)
		return u
	}
	u.wid = wid
	w, ok := b.pool.Worker(wid)
	switch {
	case !ok:
		u.err, u.retry = fmt.Errorf("broker: worker %d not found", wid), true
	case b.cfg.Health != nil && b.cfg.Health.State(wid) == flow.WorkerDead:
		// Known-dead: don't burn the window inside a 5s worker-side
		// leader wait; re-check after a beat.
		u.err, u.retry = fmt.Errorf("broker: worker %d is down", wid), true
	default:
		batches := s.batches[:0]
		for _, sub := range subs[lo:hi] {
			batches = append(batches, sub.rows)
		}
		s.batches = batches
		u.pending = w.EnqueueAppend(ctx, shard, batches)
	}
	return u
}

// sleepInterruptible pauses for d or until ctx dies, whichever comes
// first. A context that cannot be canceled takes the plain-sleep path.
func sleepInterruptible(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// QueryContext parses, plans, scatters, and merges one SQL query. A
// dead context returns before planning, and cancellation mid-scatter
// stops the sub-queries.
func (b *Broker) QueryContext(ctx context.Context, sql string) (*query.Result, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	return b.ExecuteContext(ctx, q)
}

// ExecuteContext runs a parsed query under ctx. The context flows into
// every archived-block sub-query (through the worker's scan and down to
// object-storage reads) and every real-time scan, so one client
// deadline bounds the whole scatter.
//
// Each row is read exactly once although the archive loop moves rows
// from the row stores to LogBlocks while the query runs. The real-time
// scans come first and report the row-store segments their snapshots
// covered; only then is the catalog pruned, and a LogBlock born from a
// covered segment is left out — its rows were in that scan (a drain
// registers a segment's blocks before it releases the segment, so for a
// while both hold them). The order closes the other gap: a segment
// released before the scan had registered all its blocks by then, so the
// prune, which is later still, finds them.
func (b *Broker) ExecuteContext(ctx context.Context, q *query.Query) (*query.Result, error) {
	if err := q.Validate(b.sch); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, b.countCtxErr(err)
	}
	tenant, minTS, maxTS, ok := q.KeyRange(b.sch)
	if !ok {
		return nil, fmt.Errorf("broker: query must constrain %s with equality", b.sch.TenantCol)
	}
	workerIDs := b.pool.WorkerIDs()
	if len(workerIDs) == 0 {
		return nil, fmt.Errorf("broker: no workers")
	}
	final := query.NewResult(q, b.sch)

	// Real-time sub-queries go to every shard in the old and new routing
	// plans. A shard without an owner may have been removed; archived
	// data covers it.
	var buf [4]subQuery // the usual scatter, on the stack
	subs := buf[:0]
	for _, shard := range b.router.ReadShards(flow.TenantID(tenant)) {
		if wid, ok := b.pool.ShardOwner(shard); ok {
			subs = append(subs, subQuery{wid: wid, shard: shard})
		}
	}
	if err := b.mergeParts(ctx, q, final, subs); err != nil {
		return nil, err
	}

	// Archived blocks from the LogBlock map, partitioned by path hash
	// (stable → cache affinity) across the workers the health tracker
	// considers able to serve reads; slow-flagged ones are kept out of
	// that partition and serve only as failover tail.
	serving, primary := b.cfg.Health.ReadPartition(workerIDs)
	var tail []flow.WorkerID // slow workers: failover only
	for _, s := range serving {
		if !slices.Contains(primary, s) {
			tail = append(tail, s)
		}
	}
	subs = buf[:0]
	for _, blk := range b.catalog.Prune(tenant, minTS, maxTS) {
		if blk.BornSegment != 0 && slices.Contains(final.Resident, blk.BornSegment) {
			continue
		}
		wid := flow.ReadHome(primary, blk.Path)
		i := slices.IndexFunc(subs, func(s subQuery) bool { return s.wid == wid })
		if i < 0 {
			i = len(subs)
			subs = append(subs, subQuery{wid: wid, cands: candidatesFrom(wid, primary, tail)})
		}
		subs[i].paths = append(subs[i].paths, blk.Path)
	}
	final.Resident = nil // the broker's working state, not part of the answer

	if err := b.mergeParts(ctx, q, final, subs); err != nil {
		return nil, err
	}
	if err := final.Finalize(q); err != nil {
		return nil, err
	}
	return final, nil
}

// subQuery is one part of a query's scatter: the real-time scan of a
// shard on its owner wid or, with paths set, a block set of archived
// LogBlocks run on the first of cands that answers (wid heads them).
type subQuery struct {
	wid   flow.WorkerID
	shard flow.ShardID
	paths []string
	cands candidates
}

func (b *Broker) runSub(ctx context.Context, q *query.Query, s *subQuery) (*query.Result, error) {
	if s.paths != nil {
		return b.runBlockSet(ctx, s.paths, q, s.cands)
	}
	w, ok := b.pool.Worker(s.wid)
	if !ok {
		return nil, fmt.Errorf("broker: worker %d not found", s.wid)
	}
	return w.QueryRealtimeCtx(ctx, s.shard, q)
}

// mergeParts runs the sub-queries and merges their partial results into
// final in order. The common single sub-query runs on the caller's
// goroutine and costs no allocation. Every sub-query finishes before it
// returns; the error is that of the lowest index that failed.
func (b *Broker) mergeParts(ctx context.Context, q *query.Query, final *query.Result, subs []subQuery) error {
	switch len(subs) {
	case 0:
		return nil
	case 1:
		part, err := b.runSub(ctx, q, &subs[0])
		if err != nil {
			return b.partErr(err)
		}
		final.Merge(part)
		return nil
	}
	// The goroutines get their own copy, so that subs can live on the
	// caller's stack.
	return b.mergeConcurrent(ctx, q, final, slices.Clone(subs))
}

// mergeConcurrent is mergeParts for two or more sub-queries: all but the
// last on goroutines of their own, the last on the caller's.
func (b *Broker) mergeConcurrent(ctx context.Context, q *query.Query, final *query.Result, subs []subQuery) error {
	n := len(subs)
	parts := make([]*query.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = b.runSub(ctx, q, &subs[i])
		}(i)
	}
	parts[n-1], errs[n-1] = b.runSub(ctx, q, &subs[n-1])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return b.partErr(err)
		}
	}
	for _, p := range parts {
		final.Merge(p)
	}
	return nil
}

// partErr is a failed sub-query's error as the query returns it, a
// context's counted as a degradation.
func (b *Broker) partErr(err error) error {
	if isCtxErr(err) {
		return b.countCtxErr(err)
	}
	return err
}

// candidates orders the workers a block set may run on: the cache-affine
// preferred worker first, then the rest of primary in rotation, then the
// slow tail. Each worker appears once — failover tries every live
// worker at most once.
type candidates struct {
	primary, tail []flow.WorkerID
	start         int // primary[start] is the preferred worker
}

// candidatesFrom orders primary from preferred (from its head when it is
// not there), then tail.
func candidatesFrom(preferred flow.WorkerID, primary, tail []flow.WorkerID) candidates {
	return candidates{primary: primary, tail: tail, start: max(0, slices.Index(primary, preferred))}
}

func (c candidates) len() int { return len(c.primary) + len(c.tail) }

func (c candidates) at(i int) flow.WorkerID {
	if i < len(c.primary) {
		return c.primary[(c.start+i)%len(c.primary)]
	}
	return c.tail[i-len(c.primary)]
}

// attempt runs one block sub-query on worker wid.
func (b *Broker) attempt(ctx context.Context, wid flow.WorkerID, paths []string, q *query.Query) (*query.Result, error) {
	w, ok := b.pool.Worker(wid)
	if !ok {
		return nil, fmt.Errorf("broker: worker %d not found", wid)
	}
	start := time.Now()
	res, err := w.QueryBlocksCtx(ctx, paths, q, b.cfg.Exec)
	// Feed the gray-failure detector: completion latency of every
	// sub-query, successful or not, but never latencies inflated by
	// our own caller's cancellation.
	if b.cfg.Health != nil && ctx.Err() == nil {
		b.cfg.Health.ReportLatency(wid, time.Since(start))
	}
	return res, err
}

// runBlockSet executes one block sub-query with failover and (when
// configured) a single hedged re-dispatch. Archived blocks are readable
// by any worker — OSS is the shared source of truth — so a sub-query
// that fails on one worker (crash mid-query, ErrWorkerDown) is retried
// on the next candidate. Where no hedge can fire, the candidates are
// tried in turn on the caller's goroutine. With HedgeDelay set and a
// second candidate, the first attempt runs on its own goroutine, so
// that a worker stalled past the delay gets one speculative duplicate
// on the next candidate; first success wins and stragglers drain into
// the buffered channel.
func (b *Broker) runBlockSet(ctx context.Context, paths []string, q *query.Query, cands candidates) (*query.Result, error) {
	if cands.len() == 0 {
		return nil, fmt.Errorf("broker: no workers for block set")
	}
	if b.cfg.HedgeDelay <= 0 || cands.len() == 1 {
		var errs []error
		for i := 0; i < cands.len(); i++ {
			if i > 0 {
				b.failovers.Inc()
			}
			res, err := b.attempt(ctx, cands.at(i), paths, q)
			if err == nil {
				return res, nil
			}
			if isCtxErr(err) {
				return nil, err
			}
			errs = append(errs, err)
		}
		return nil, errors.Join(errs...)
	}
	return b.runHedged(ctx, paths, q, cands)
}

// runHedged is runBlockSet with a hedge armed.
func (b *Broker) runHedged(ctx context.Context, paths []string, q *query.Query, cands candidates) (*query.Result, error) {
	type part struct {
		res *query.Result
		err error
	}
	resc := make(chan part, cands.len())
	launch := func(wid flow.WorkerID) {
		go func() {
			res, err := b.attempt(ctx, wid, paths, q)
			resc <- part{res, err}
		}()
	}
	launched := 1
	launch(cands.at(0))
	t := time.NewTimer(b.cfg.HedgeDelay)
	defer t.Stop()
	hedge := t.C
	outstanding := 1
	var errs []error
	for {
		select {
		case p := <-resc:
			outstanding--
			if p.err == nil {
				return p.res, nil
			}
			errs = append(errs, p.err)
			if isCtxErr(p.err) {
				// Our caller's context died: failover would rerun the
				// same doomed sub-query elsewhere.
				return nil, p.err
			}
			if launched < cands.len() {
				b.failovers.Inc()
				launch(cands.at(launched))
				launched++
				outstanding++
			} else if outstanding == 0 {
				return nil, errors.Join(errs...)
			}
		case <-hedge:
			hedge = nil
			if launched < cands.len() {
				b.hedges.Inc()
				// The first worker has been silent for the whole hedge
				// delay — that silence is itself a latency observation.
				if b.cfg.Health != nil && ctx.Err() == nil {
					b.cfg.Health.ReportLatency(cands.at(0), b.cfg.HedgeDelay)
				}
				launch(cands.at(launched))
				launched++
				outstanding++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// isCtxErr reports whether err is the caller's context ending.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats reports the broker's failure-handling counters: block sub-query
// failovers, hedged re-dispatches, and append re-route retries.
func (b *Broker) Stats() (failovers, hedges, reroutes int64) {
	return b.failovers.Value(), b.hedges.Value(), b.reroutes.Value()
}

// DegradeStats reports the graceful-degradation counters: requests
// stopped by caller cancellation, requests refused or cut short by an
// expired deadline, and batches shed by admission control.
func (b *Broker) DegradeStats() (canceled, expired, shed int64) {
	return b.canceled.Value(), b.expired.Value(), b.shed.Value()
}

// Router exposes the broker's router (the scheduler subscribes it).
func (b *Broker) Router() *flow.Router { return b.router }
