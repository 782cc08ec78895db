package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"logstore/internal/builder"
	"logstore/internal/cache"
	"logstore/internal/flow"
	"logstore/internal/httpapi"
	"logstore/internal/logblock"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/prefetch"
	"logstore/internal/query"
	"logstore/internal/raft"
	"logstore/internal/rowstore"
	"logstore/internal/schema"
	"logstore/internal/wal"
	"logstore/internal/worker"
)

// The ladder replays the workload's first recorded batches and queries
// through each layer's exported functions, bottom up, on the quiescent
// cluster and on stand-alone fixtures built from exported constructors.
// One span per call; a layer's self time is its rung's median minus the
// rung below. Nothing here is gated: the numbers say where an end-to-end
// microsecond is spent, not how many there are under load.
const (
	// ladderSubs bounds the tenant sub-batches sent through the wal,
	// raft and worker rungs (one fsync each on the durable variants).
	ladderSubs = 1000
	// ladderBatches bounds the client batches sent through the Cluster
	// and httpapi rungs (about 50 ms each when every proposal fsyncs).
	ladderBatches = 40
	// ladderQueries bounds the queries sent through the read rungs (a
	// cold one sleeps several milliseconds in the simulated store).
	ladderQueries = 100
	// ladderShiftMS moves replayed rows into timestamps of their own,
	// rung by rung: the ingest path drops a batch it has seen before.
	ladderShiftMS = int64(1) << 40
)

type ladder struct {
	o   *options
	e   *env
	l   *layerSet
	rec *recorder
	sch *schema.Schema
	dir string
}

// subBatch is one tenant's rows of one client batch: the unit the broker
// hands to a worker and a worker proposes to raft.
type subBatch struct {
	batch  int // index of the client batch it came from
	tenant int64
	rows   []schema.Row
}

// splitByTenant fans client batches out the way the broker does: one
// sub-batch per tenant, tenants in ascending order.
func splitByTenant(batches [][]schema.Row) []subBatch {
	var out []subBatch
	for bi, b := range batches {
		by := make(map[int64][]schema.Row)
		var order []int64
		for _, r := range b {
			t := r[colTenant].I
			if _, ok := by[t]; !ok {
				order = append(order, t)
			}
			by[t] = append(by[t], r)
		}
		slices.Sort(order)
		for _, t := range order {
			out = append(out, subBatch{batch: bi, tenant: t, rows: by[t]})
		}
	}
	return out
}

// shifted copies rows with their timestamps moved by k*ladderShiftMS.
func shifted(rows []schema.Row, k int64) []schema.Row {
	out := make([]schema.Row, len(rows))
	for i, r := range rows {
		c := slices.Clone(r)
		c[colTS].I += k * ladderShiftMS
		out[i] = c
	}
	return out
}

// rung runs fn for inputs 0..n-1, records one span per call under
// parents[i] (nil = none), and returns the call durations.
func (ld *ladder) rung(name string, n int, ids, parents []int64, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, fmt.Errorf("%s #%d: %w", name, i, err)
		}
		end := time.Now()
		var id, parent int64
		if parents != nil {
			parent = parents[i]
		}
		if ids != nil {
			id = ids[i]
		} else {
			id = ld.rec.newID()
		}
		ld.rec.put(id, parent, 0, name, start, end)
		out = append(out, end.Sub(start))
	}
	return out, nil
}

func (ld *ladder) reserve(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = ld.rec.newID()
	}
	return ids
}

func medianUS(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = us(d)
	}
	return median(vals)
}

// runLadder runs both sides of the ladder and fills the per-layer
// timings.
func runLadder(o *options, e *env, l *layerSet) error {
	dir, err := scratchDir(o)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ld := &ladder{o: o, e: e, l: l, rec: e.tracer, sch: e.c.TableSchema(), dir: dir}
	if err := ld.writeSide(); err != nil {
		return err
	}
	return ld.readSide()
}

// ---- write side: wal → raft → rowstore → worker → Cluster → httpapi ----

func (ld *ladder) writeSide() error {
	e, l := ld.e, ld.l
	batches := e.recordedBatches()
	subs := splitByTenant(batches)
	if len(subs) > ladderSubs {
		subs = subs[:ladderSubs]
	}
	nb := min(len(batches), ladderBatches)

	// Ids of the upper rungs are reserved first so lower rungs can name
	// them as parents: a sub-batch's worker call hangs under its
	// batch's Cluster call, which hangs under the HTTP call.
	httpIDs, clusterIDs, workerIDs := ld.reserve(nb), ld.reserve(nb), ld.reserve(len(subs))
	workerParents := make([]int64, len(subs))
	for i, s := range subs {
		if s.batch < nb {
			workerParents[i] = clusterIDs[s.batch]
		}
	}

	// worker.encode: what a worker does to a sub-batch before raft.
	payloads := make([][]byte, len(subs))
	var buf []byte
	enc, err := ld.rung("worker.AppendSubProposal", len(subs), nil, workerIDs, func(i int) error {
		buf = worker.AppendSubProposal(buf[:0], subs[i].rows)
		return nil
	})
	if err != nil {
		return err
	}
	var userBytes int64
	for i, s := range subs {
		payloads[i] = worker.EncodeGroupProposal([][]byte{worker.AppendSubProposal(nil, s.rows)})
		for _, r := range s.rows {
			userBytes += int64(r.Size())
		}
	}
	subsPerBatch := ratio(float64(len(splitByTenant(batches))), float64(len(batches)))
	l.set("worker.encode_us_per_batch", medianUS(enc)*subsPerBatch)

	// wal: one record per proposal, then the fsync the ack waits for.
	walDir := filepath.Join(ld.dir, "wal")
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return err
	}
	var syncs []time.Duration
	appends, err := ld.rung("wal.AppendBatch+Sync", len(payloads), nil, nil, func(i int) error {
		if _, err := log.AppendBatch([][]byte{payloads[i]}); err != nil {
			return err
		}
		mid := time.Now()
		err := log.Sync()
		syncs = append(syncs, time.Since(mid))
		return err
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	for i := range appends {
		appends[i] -= syncs[i]
	}
	l.set("wal.append_us", medianUS(appends))
	l.set("wal.sync_us", medianUS(syncs))
	l.set("wal.bytes_per_user_byte", ratio(float64(dirBytes(walDir)), float64(userBytes)))

	// raft: propose → quorum commit on three nodes over the in-process
	// network, with the log in memory and on a fsynced WAL.
	raftMem, err := ld.raftRung("raft.Propose(mem)", "", payloads, workerIDs)
	if err != nil {
		return err
	}
	raftWAL, err := ld.raftRung("raft.Propose(wal)", filepath.Join(ld.dir, "raft"), payloads, workerIDs)
	if err != nil {
		return err
	}
	l.set("raft.propose_commit_us_mem", medianUS(raftMem))
	l.set("raft.propose_commit_us_wal", medianUS(raftWAL))
	l.set("raft.self_us", medianUS(raftWAL)-medianUS(appends)-medianUS(syncs))

	// rowstore: the apply side of a committed sub-batch, then the
	// real-time read of each tenant, then the drain to LogBlocks.
	rs, err := rowstore.New(ld.sch, rowstore.Options{MaxSegmentRows: 50_000, TenantIndex: true})
	if err != nil {
		return err
	}
	defer rs.Close()
	rsAppend, err := ld.rung("rowstore.Append", len(subs), nil, workerIDs, func(i int) error {
		return rs.Append(subs[i].rows...)
	})
	if err != nil {
		return err
	}
	l.set("rowstore.append_us_per_batch", medianUS(rsAppend)*subsPerBatch)
	scanTenants := distinctTenants(subs)
	scans, err := ld.rung("rowstore.ScanTenant", len(scanTenants), nil, nil, func(i int) error {
		n := 0
		rs.ScanTenant(scanTenants[i], 0, endOfTime, func(schema.Row) bool { n++; return true })
		if n == 0 {
			return fmt.Errorf("tenant %d has no rows in the fixture", scanTenants[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("rowstore.scan_tenant_us", medianUS(scans))
	rows, _, _ := rs.Stats()
	bld, err := builder.New(builder.Config{}, ld.sch, oss.NewMemStore(), meta.NewManager())
	if err != nil {
		return err
	}
	drain, err := ld.rung("builder.DrainStore", 1, nil, nil, func(int) error {
		_, err := bld.DrainStore(rs)
		return err
	})
	if err != nil {
		return err
	}
	l.set("builder.drain_us_per_krow", ratio(us(drain[0]), float64(rows)/1000))

	// worker: one tenant sub-batch through a live shard — encode,
	// coalesce, raft (on this cluster's storage), ack.
	shards := e.c.ShardIDs()
	shardOf := func(tenant int64) flow.ShardID { return shards[int(tenant)%len(shards)] }
	workerOf := func(s flow.ShardID) (*worker.Worker, error) {
		wid, ok := e.c.ShardOwner(s)
		if !ok {
			return nil, fmt.Errorf("shard %d has no owner", s)
		}
		w, ok := e.c.Worker(wid)
		if !ok {
			return nil, fmt.Errorf("worker %d not found", wid)
		}
		return w, nil
	}
	ctx := context.Background()
	wAppend, err := ld.rung("Worker.AppendTrustedCtx", len(subs), workerIDs, workerParents, func(i int) error {
		s := shardOf(subs[i].tenant)
		w, err := workerOf(s)
		if err != nil {
			return err
		}
		return w.AppendTrustedCtx(ctx, s, shifted(subs[i].rows, 1))
	})
	if err != nil {
		return err
	}
	l.set("worker.append_us", medianUS(wAppend))
	below := medianUS(raftMem)
	if e.dir != "" { // this cluster's raft logs are on disk
		below = medianUS(raftWAL)
	}
	l.set("worker.append_self_us", medianUS(wAppend)-below)

	// The rows just appended are resident on the shards they went to:
	// the real-time read of one tenant on one shard.
	realtime, err := ld.rung("Worker.QueryRealtimeCtx", len(scanTenants), nil, nil, func(i int) error {
		t := scanTenants[i]
		q, err := query.Parse(fmt.Sprintf("SELECT log FROM request_log WHERE tenant_id = %d AND ts >= %d AND ts <= %d",
			t, ladderShiftMS, 2*ladderShiftMS))
		if err != nil {
			return err
		}
		s := shardOf(t)
		w, err := workerOf(s)
		if err != nil {
			return err
		}
		_, err = w.QueryRealtimeCtx(ctx, s, q)
		return err
	})
	if err != nil {
		return err
	}
	l.set("worker.queryrealtime_us", medianUS(realtime))

	// Cluster: the whole client batch through a broker.
	cAppend, err := ld.rung("Cluster.AppendContext", nb, clusterIDs, httpIDs, func(i int) error {
		return e.c.AppendContext(ctx, shifted(batches[i], 2)...)
	})
	if err != nil {
		return err
	}
	l.set("broker.append_self_us", medianUS(cAppend)-medianUS(wAppend)*subsPerBatch)

	// httpapi: the same batch as a pre-encoded JSON body.
	handler := httpapi.Handler(e.c)
	bodies := make([][]byte, nb)
	for i := range bodies {
		recs := make([]httpapi.Record, len(batches[i]))
		for j, r := range shifted(batches[i], 3) {
			recs[j] = httpapi.Record{Tenant: r[colTenant].I, TS: r[colTS].I, IP: r[colIP].S, API: r[colAPI].S,
				Latency: r[colLatency].I, Fail: r[colFail].S, Log: r[colLog].S}
		}
		if bodies[i], err = json.Marshal(recs); err != nil {
			return err
		}
	}
	hAppend, err := ld.rung("httpapi POST /append", nb, httpIDs, nil, func(i int) error {
		return serve(handler, "/append", bodies[i])
	})
	if err != nil {
		return err
	}
	l.set("httpapi.append_self_us", medianUS(hAppend)-medianUS(cAppend))
	return nil
}

// serve sends one request through the handler, in process.
func serve(h http.Handler, path string, body []byte) error {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rr.Code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", rr.Code, strings.TrimSpace(rr.Body.String()))
	}
	return nil
}

func distinctTenants(subs []subBatch) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, s := range subs {
		if !seen[s.tenant] {
			seen[s.tenant] = true
			out = append(out, s.tenant)
		}
	}
	return out
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// raftRung stands up three raft nodes on a LocalNetwork — logs in memory
// when dir is empty, on WAL storage under dir otherwise — waits for a
// leader, and times Propose (propose → quorum commit) per payload.
func (ld *ladder) raftRung(name, dir string, payloads [][]byte, parents []int64) ([]time.Duration, error) {
	net := raft.NewLocalNetwork(ld.o.seed)
	peers := []raft.NodeID{0, 1, 2}
	var nodes []*raft.Node
	var stores []*raft.WALStorage
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, s := range stores {
			_ = s.Close() // fixture teardown; the directory is deleted next
		}
	}()
	for _, id := range peers {
		cfg := raft.Config{ID: id, Peers: peers, Transport: net.Transport(id), Seed: int64(id),
			SM: raft.StateMachineFunc(func(uint64, []byte) {})}
		if dir != "" {
			s, err := raft.OpenWALStorage(filepath.Join(dir, fmt.Sprintf("replica-%d", id)), wal.Options{})
			if err != nil {
				return nil, err
			}
			stores = append(stores, s)
			cfg.Storage = s
		}
		n, err := raft.NewNode(cfg)
		if err != nil {
			return nil, err
		}
		net.Register(n)
		nodes = append(nodes, n)
	}
	var leader *raft.Node
	for deadline := time.Now().Add(10 * time.Second); leader == nil; {
		for _, n := range nodes {
			if n.IsLeader() {
				leader = n
			}
		}
		if leader == nil {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("%s: no leader elected", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return ld.rung(name, len(payloads), nil, parents, func(i int) error {
		return leader.Propose(payloads[i])
	})
}

// ---- read side: parse → logblock/kernels → prefetch → worker → Cluster → httpapi ----

func (ld *ladder) readSide() error {
	e, l := ld.e, ld.l
	sqls := e.queries
	if len(sqls) > ladderQueries {
		sqls = sqls[:ladderQueries]
	}
	n := len(sqls)
	httpIDs, clusterIDs, coldIDs, warmIDs := ld.reserve(n), ld.reserve(n), ld.reserve(n), ld.reserve(n)

	parsed := make([]*query.Query, n)
	parse, err := ld.rung("query.Parse", n, nil, clusterIDs, func(i int) error {
		q, err := query.Parse(sqls[i])
		parsed[i] = q
		return err
	})
	if err != nil {
		return err
	}
	l.set("query.parse_us", medianUS(parse))

	// The broker's plan for each query, recomputed from the catalog's
	// public view: the tenant's LogBlocks that overlap the time range.
	paths := make([][]string, n)
	var pruned, listed float64
	for i, q := range parsed {
		tenant, minTS, maxTS, ok := q.KeyRange(ld.sch)
		if !ok {
			return fmt.Errorf("recorded query has no tenant range: %s", sqls[i])
		}
		for _, b := range e.c.TenantBlocks(tenant) {
			listed++
			if b.MaxTS < minTS || b.MinTS > maxTS {
				pruned++
				continue
			}
			paths[i] = append(paths[i], b.Path)
		}
	}
	l.set("meta.prune_ratio", ratio(pruned, listed))

	// Block-level rungs take each query's first LogBlock.
	var blockQ []int
	for i := range paths {
		if len(paths[i]) > 0 {
			blockQ = append(blockQ, i)
		}
	}
	nblk := len(blockQ)
	parentsOf := func(ids []int64) []int64 {
		out := make([]int64, nblk)
		for j, qi := range blockQ {
			out[j] = ids[qi]
		}
		return out
	}
	opts := query.ExecOptions{DataSkipping: true}

	// logblock: open (manifest + meta) and decode from bytes in memory;
	// kernels: match + materialize on the reader once it is warm.
	readers := make([]*logblock.Reader, nblk)
	opened, err := ld.rung("logblock.OpenReader", nblk, nil, parentsOf(coldIDs), func(j int) error {
		raw, err := e.mem.Get(paths[blockQ[j]][0])
		if err != nil {
			return err
		}
		readers[j], err = logblock.OpenReader(logblock.BytesFetcher(raw))
		return err
	})
	if err != nil {
		return err
	}
	l.set("logblock.open_us", medianUS(opened))
	var decoded float64
	decode, err := ld.rung("logblock.BlockVector", nblk, nil, parentsOf(coldIDs), func(j int) error {
		r := readers[j]
		for col := range r.Meta.Columns {
			if _, err := r.BlockVector(col, 0); err != nil {
				return err
			}
			decoded++
		}
		return nil
	})
	if err != nil {
		return err
	}
	var decodeTotal time.Duration
	for _, d := range decode {
		decodeTotal += d
	}
	l.set("logblock.decode_us_per_colblock", ratio(us(decodeTotal), decoded))
	var stats query.ExecStats
	exec := func(j int) error {
		_, err := query.ExecuteBlock(readers[j], parsed[blockQ[j]], opts, &stats)
		return err
	}
	for j := 0; j < nblk; j++ { // first touch memoizes the index segments
		if err := exec(j); err != nil {
			return err
		}
	}
	kernel, err := ld.rung("query.ExecuteBlock", nblk, nil, parentsOf(warmIDs), exec)
	if err != nil {
		return err
	}
	l.set("query.kernel_us_per_block", medianUS(kernel))

	// prefetch: the whole object through a cached fetcher over the
	// simulated store — cold (Head + parallel ranged reads), then warm.
	bc, err := cache.NewBlockCache(cache.BlockCacheConfig{MemoryBytes: 256 << 20})
	if err != nil {
		return err
	}
	pool := prefetch.NewService(32, 0)
	defer pool.Close()
	fetchers := make([]*prefetch.CachedFetcher, nblk)
	sizes := make([]int64, nblk)
	for j, qi := range blockQ {
		key := paths[qi][0]
		info, err := e.mem.Head(key)
		if err != nil {
			return err
		}
		sizes[j] = info.Size
		fetchers[j] = &prefetch.CachedFetcher{Store: e.store, Key: key, Cache: bc, Pool: pool}
	}
	fetch := func(j int) error {
		_, err := fetchers[j].Fetch(0, sizes[j])
		return err
	}
	fetchCold, err := ld.rung("CachedFetcher.Fetch(cold)", nblk, nil, parentsOf(coldIDs), fetch)
	if err != nil {
		return err
	}
	fetchWarm, err := ld.rung("CachedFetcher.Fetch(warm)", nblk, nil, parentsOf(warmIDs), fetch)
	if err != nil {
		return err
	}
	l.set("prefetch.fetch_cold_us", medianUS(fetchCold))
	l.set("prefetch.fetch_warm_us", medianUS(fetchWarm))

	// worker: a query's whole block set on one worker, with every cache
	// level emptied first, then again.
	ids := e.c.WorkerIDs()
	w, ok := e.c.Worker(ids[0])
	if !ok {
		return fmt.Errorf("worker %d not found", ids[0])
	}
	ctx := context.Background()
	qb := func(i int) error {
		_, err := w.QueryBlocksCtx(ctx, paths[i], parsed[i], opts)
		return err
	}
	var qbCold, qbWarm []time.Duration
	for i := 0; i < n; i++ {
		// Cold then warm for the same query, back to back: the purge
		// before the next cold call takes this one's blocks with it.
		w.PurgeCaches()
		for _, r := range []struct {
			name string
			ids  []int64
			out  *[]time.Duration
		}{{"Worker.QueryBlocksCtx(cold)", coldIDs, &qbCold}, {"Worker.QueryBlocksCtx(warm)", warmIDs, &qbWarm}} {
			d, err := ld.rung(r.name, 1, r.ids[i:], clusterIDs[i:], func(int) error { return qb(i) })
			if err != nil {
				return err
			}
			*r.out = append(*r.out, d...)
		}
	}
	l.set("worker.queryblocks_cold_us", medianUS(qbCold))
	l.set("worker.queryblocks_warm_us", medianUS(qbWarm))

	// Cluster and httpapi, warm: each query once to fill the caches of
	// the workers the broker picks, then timed.
	for _, sql := range sqls {
		if _, err := e.c.QueryContext(ctx, sql); err != nil {
			return err
		}
	}
	cQuery, err := ld.rung("Cluster.QueryContext", n, clusterIDs, httpIDs, func(i int) error {
		_, err := e.c.QueryContext(ctx, sqls[i])
		return err
	})
	if err != nil {
		return err
	}
	l.set("broker.query_self_us", medianUS(cQuery)-medianUS(qbWarm))
	handler := httpapi.Handler(e.c)
	hQuery, err := ld.rung("httpapi POST /query", n, httpIDs, nil, func(i int) error {
		return serve(handler, "/query", []byte(sqls[i]))
	})
	if err != nil {
		return err
	}
	l.set("httpapi.query_self_us", medianUS(hQuery)-medianUS(cQuery))
	return nil
}
