package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"logstore/internal/builder"
	"logstore/internal/meta"
	"logstore/internal/metrics"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/rowstore"
	"logstore/internal/schema"
	"logstore/internal/worker"
	"logstore/internal/workload"
)

// queryDataset is a pre-archived corpus shared by the query-latency
// experiments: LogBlocks for a Zipfian multi-tenant history in a
// zero-latency base store, plus the catalog and the paper's query set.
type queryDataset struct {
	sch      *schema.Schema
	base     *oss.MemStore
	catalog  *meta.Manager
	queries  []workload.QuerySpec
	topOrder []int64 // tenants by descending row count
	rowCount map[int64]int
}

// buildQueryDataset ingests and archives the evaluation corpus (§6.3:
// 48-hour history, 1000 tenants, θ=0.99, six queries per tenant).
func buildQueryDataset(s Scale) (*queryDataset, error) {
	ds := &queryDataset{
		sch:      schema.RequestLogSchema(),
		base:     oss.NewMemStore(),
		catalog:  meta.NewManager(),
		rowCount: map[int64]int{},
	}
	// Spread rows across a simulated 48h window.
	const windowMS = 48 * 3600_000
	step := int64(windowMS / s.Rows)
	if step < 1 {
		step = 1
	}
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: s.Tenants, Theta: 0.99, Seed: s.Seed, StartMS: 1_000_000, StepMS: step,
	})
	// BlockRows shrinks with the corpus so each LogBlock spans several
	// column blocks, as at production scale — block-level SMA skipping
	// (Figure 8, step 4) has nothing to skip in single-block objects.
	bld, err := builder.New(builder.Config{Table: ds.sch.Name, MaxRowsPerBlock: 20_000, BlockRows: 128},
		ds.sch, ds.base, ds.catalog)
	if err != nil {
		return nil, err
	}
	// Segment sizing: ~12 archive rounds so large tenants span many
	// LogBlocks, as 48 hours of production ingest would.
	segRows := s.Rows / 12
	if segRows < 2000 {
		segRows = 2000
	}
	rs, err := rowstore.New(ds.sch, rowstore.Options{MaxSegmentRows: segRows})
	if err != nil {
		return nil, err
	}
	remaining := s.Rows
	for remaining > 0 {
		n := segRows
		if n > remaining {
			n = remaining
		}
		batch := gen.Batch(n)
		for _, r := range batch {
			ds.rowCount[r.Tenant(ds.sch)]++
		}
		if err := rs.Append(batch...); err != nil {
			return nil, err
		}
		if _, err := bld.DrainStore(rs); err != nil {
			return nil, err
		}
		remaining -= n
	}
	for t := range ds.rowCount {
		ds.topOrder = append(ds.topOrder, t)
	}
	sort.Slice(ds.topOrder, func(i, j int) bool {
		if ds.rowCount[ds.topOrder[i]] != ds.rowCount[ds.topOrder[j]] {
			return ds.rowCount[ds.topOrder[i]] > ds.rowCount[ds.topOrder[j]]
		}
		return ds.topOrder[i] < ds.topOrder[j]
	})
	ds.queries = workload.GenerateQueries(workload.QuerySetConfig{
		Tenants:        s.Tenants,
		PerTenant:      s.QueriesPerTenant,
		HistoryStartMS: 1_000_000,
		HistoryEndMS:   1_000_000 + int64(s.Rows)*step,
		Seed:           s.Seed + 7,
	})
	return ds, nil
}

// storageProfile selects how the read worker reaches the LogBlocks.
type storageProfile int

const (
	profileLocal storageProfile = iota // local SSD class: ~50µs, 1 GB/s
	profileOSS                         // object storage: ~2ms, 200 MB/s
)

func (ds *queryDataset) store(p storageProfile, seed int64) oss.Store {
	switch p {
	case profileLocal:
		return oss.NewSimStore(ds.base, oss.LatencyModel{
			RequestLatency:       50 * time.Microsecond,
			BandwidthBytesPerSec: 1 << 30,
			JitterFrac:           0.1,
			MaxConcurrent:        256,
		}, seed)
	default:
		return oss.NewSimStore(ds.base, oss.LatencyModel{
			RequestLatency:       2 * time.Millisecond,
			BandwidthBytesPerSec: 200 << 20,
			JitterFrac:           0.2,
			MaxConcurrent:        64,
		}, seed)
	}
}

// newReadWorker builds a query-only worker over the dataset.
func (ds *queryDataset) newReadWorker(p storageProfile, prefetchOn bool, seed int64) (*worker.Worker, error) {
	threads := 32
	if !prefetchOn {
		threads = -1
	}
	return worker.New(worker.Config{
		ID:               0,
		MemoryCacheBytes: 256 << 20,
		PrefetchThreads:  threads,
		// The simulated stores model wall-clock latency, not CPU work, so
		// keep 8 LogBlocks in flight regardless of the host's core count.
		QueryConcurrency: 8,
		// File blocks shrink with the corpus, like BlockRows above: with
		// the production 128 KiB granularity every tiny-scale object is a
		// single cache block and selective member reads cannot save I/O.
		BlockSize:       4 << 10,
		ArchiveInterval: time.Hour,
		Builder:         builder.Config{Table: ds.sch.Name},
	}, ds.sch, ds.store(p, seed), ds.catalog)
}

// runQuery executes one generated query and returns its wall time and
// the executor's account of it.
func (ds *queryDataset) runQuery(w *worker.Worker, spec workload.QuerySpec, opts query.ExecOptions) (time.Duration, query.ExecStats, error) {
	var none query.ExecStats
	q, err := query.Parse(spec.SQL)
	if err != nil {
		return 0, none, err
	}
	blocks := ds.catalog.Prune(spec.Tenant, spec.StartMS, spec.EndMS)
	paths := make([]string, len(blocks))
	for i, b := range blocks {
		paths[i] = b.Path
	}
	start := time.Now()
	res, err := w.QueryBlocksCtx(context.Background(), paths, q, opts)
	if err != nil {
		return 0, none, err
	}
	return time.Since(start), res.Stats, nil
}

// queriesFor returns the query set of one tenant.
func (ds *queryDataset) queriesFor(tenant int64) []workload.QuerySpec {
	var out []workload.QuerySpec
	for _, q := range ds.queries {
		if q.Tenant == tenant {
			out = append(out, q)
		}
	}
	return out
}

// Fig15 regenerates Figure 15: per-tenant mean query latency for the
// hottest tenants, with and without the data-skipping strategy.
func Fig15(s Scale) (*Table, error) {
	ds, err := buildQueryDataset(s)
	if err != nil {
		return nil, err
	}
	withW, err := ds.newReadWorker(profileOSS, true, 11)
	if err != nil {
		return nil, err
	}
	defer withW.Close()
	withoutW, err := ds.newReadWorker(profileOSS, true, 12)
	if err != nil {
		return nil, err
	}
	defer withoutW.Close()

	t := &Table{
		Name: "fig15-data-skipping",
		Comment: "Figure 15: mean query latency (ms) per top tenant,\n" +
			"with vs without the data-skipping strategy (rank 1 = largest tenant),\n" +
			"and what the skipping levels did per query: comparisons the column\n" +
			"SMAs implied, index probes and the BKD leaves they read, column\n" +
			"blocks decoded with skipping on and off.",
		Header: []string{"tenant_rank", "rows", "with_skipping_ms", "without_skipping_ms", "speedup",
			"preds_implied", "index_lookups", "index_leaves", "colblocks_scanned", "colblocks_scanned_without"},
	}
	for rank := 0; rank < s.QueryTenants && rank < len(ds.topOrder); rank++ {
		tenant := ds.topOrder[rank]
		var withMS, withoutMS float64
		var with, without query.ExecStats
		qs := ds.queriesFor(tenant)
		for _, spec := range qs {
			// Cold caches per query: the paper's Figure 15 measures a
			// dataset far larger than worker memory, where full scans
			// cannot live off cached decoded vectors.
			withW.PurgeCaches()
			d, st, err := ds.runQuery(withW, spec, query.ExecOptions{DataSkipping: true})
			if err != nil {
				return nil, fmt.Errorf("fig15 with-skipping tenant %d: %w", tenant, err)
			}
			withMS += float64(d.Microseconds()) / 1000
			with.Add(st)
			withoutW.PurgeCaches()
			d, st, err = ds.runQuery(withoutW, spec, query.ExecOptions{DataSkipping: false})
			if err != nil {
				return nil, fmt.Errorf("fig15 without-skipping tenant %d: %w", tenant, err)
			}
			withoutMS += float64(d.Microseconds()) / 1000
			without.Add(st)
		}
		n := float64(len(qs))
		speedup := 0.0
		if withMS > 0 {
			speedup = withoutMS / withMS
		}
		t.Rows = append(t.Rows, []float64{
			float64(rank + 1), float64(ds.rowCount[tenant]),
			withMS / n, withoutMS / n, speedup,
			float64(with.PredsImpliedBySMA) / n, float64(with.IndexLookups) / n, float64(with.IndexLeavesScanned) / n,
			float64(with.ColumnBlocksScanned) / n, float64(without.ColumnBlocksScanned) / n,
		})
	}
	return t, nil
}

// Fig16 regenerates Figure 16: per-tenant mean latency on local
// storage, on OSS with the parallel prefetch strategy, and on OSS
// without it; plus the warm-cache rerun the paper quotes as ~6×.
func Fig16(s Scale) (*Table, error) {
	ds, err := buildQueryDataset(s)
	if err != nil {
		return nil, err
	}
	local, err := ds.newReadWorker(profileLocal, true, 21)
	if err != nil {
		return nil, err
	}
	defer local.Close()
	ossPrefetch, err := ds.newReadWorker(profileOSS, true, 22)
	if err != nil {
		return nil, err
	}
	defer ossPrefetch.Close()
	ossSerial, err := ds.newReadWorker(profileOSS, false, 23)
	if err != nil {
		return nil, err
	}
	defer ossSerial.Close()

	t := &Table{
		Name: "fig16-parallel-prefetch",
		Comment: "Figure 16: mean query latency (ms) per top tenant:\n" +
			"local storage vs OSS+prefetch(32) vs OSS serial; plus warm-cache rerun on OSS+prefetch.",
		Header: []string{"tenant_rank", "local_ms", "oss_prefetch_ms", "oss_serial_ms", "oss_prefetch_warm_ms"},
	}
	run := func(w *worker.Worker, spec workload.QuerySpec, purge bool) (float64, error) {
		if purge {
			w.PurgeCaches()
		}
		d, _, err := ds.runQuery(w, spec, query.ExecOptions{DataSkipping: true})
		return float64(d.Microseconds()) / 1000, err
	}
	for rank := 0; rank < s.QueryTenants && rank < len(ds.topOrder); rank++ {
		tenant := ds.topOrder[rank]
		qs := ds.queriesFor(tenant)
		var localMS, prefMS, serialMS, warmMS float64
		for _, spec := range qs {
			v, err := run(local, spec, true)
			if err != nil {
				return nil, err
			}
			localMS += v
			v, err = run(ossPrefetch, spec, true) // cold
			if err != nil {
				return nil, err
			}
			prefMS += v
			v, err = run(ossPrefetch, spec, false) // warm rerun
			if err != nil {
				return nil, err
			}
			warmMS += v
			v, err = run(ossSerial, spec, true)
			if err != nil {
				return nil, err
			}
			serialMS += v
		}
		n := float64(len(qs))
		t.Rows = append(t.Rows, []float64{
			float64(rank + 1), localMS / n, prefMS / n, serialMS / n, warmMS / n,
		})
	}
	return t, nil
}

// Fig17 regenerates Figure 17: the latency distribution of the full
// mixed query workload before any optimization (no skipping, serial
// loading, cold caches) and after all optimizations (skipping, 32-way
// prefetch, multi-level cache).
func Fig17(s Scale) (*Table, error) {
	ds, err := buildQueryDataset(s)
	if err != nil {
		return nil, err
	}
	before, err := ds.newReadWorker(profileOSS, false, 31)
	if err != nil {
		return nil, err
	}
	defer before.Close()
	after, err := ds.newReadWorker(profileOSS, true, 32)
	if err != nil {
		return nil, err
	}
	defer after.Close()

	hBefore := metrics.NewHistogram(0)
	hAfter := metrics.NewHistogram(0)
	// The mixed workload: every generated query for the top tenants
	// (the tail tenants' latencies are uniformly tiny, §6.3.1).
	limit := s.QueryTenants * s.QueriesPerTenant * 3
	count := 0
	for rank := 0; rank < len(ds.topOrder) && count < limit; rank++ {
		tenant := ds.topOrder[rank]
		for _, spec := range ds.queriesFor(tenant) {
			before.PurgeCaches() // before-opt has no cache layer
			d, _, err := ds.runQuery(before, spec, query.ExecOptions{DataSkipping: false})
			if err != nil {
				return nil, err
			}
			hBefore.Observe(float64(d.Microseconds()) / 1000)
			d, _, err = ds.runQuery(after, spec, query.ExecOptions{DataSkipping: true})
			if err != nil {
				return nil, err
			}
			hAfter.Observe(float64(d.Microseconds()) / 1000)
			count++
		}
	}
	t := &Table{
		Name: "fig17-overall-latency-distribution",
		Comment: "Figure 17: query latency quantiles (ms) before vs after enabling\n" +
			"all optimizations (data skipping + multi-level cache + parallel prefetch).",
		Header: []string{"quantile", "before_ms", "after_ms"},
	}
	for _, q := range []float64{0.50, 0.75, 0.90, 0.95, 0.99} {
		t.Rows = append(t.Rows, []float64{q, hBefore.Quantile(q), hAfter.Quantile(q)})
	}
	return t, nil
}
