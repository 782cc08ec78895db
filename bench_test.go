package logstore

// Benchmark harness: one benchmark per evaluation figure of the paper
// (regenerating its table at reduced scale per iteration), plus
// end-to-end micro-benchmarks grounding the absolute single-process
// numbers (ingest throughput, realtime and archived query latency).
//
// Full-size figure regeneration lives in cmd/logstore-bench; see
// EXPERIMENTS.md for recorded outputs.

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"logstore/internal/experiments"
	"logstore/internal/worker"
	"logstore/internal/workload"
)

func benchScale() experiments.Scale {
	return experiments.Scale{
		Tenants:          200,
		Rows:             24_000,
		QueryTenants:     5,
		QueriesPerTenant: 6,
		TotalRate:        1_000_000,
		Workers:          4,
		ShardsPerWorker:  3,
		Seed:             1,
	}
}

// BenchmarkFig1DailyThroughputCurve regenerates Figure 1.
func BenchmarkFig1DailyThroughputCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.Fig1(); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig2TenantDataSize regenerates Figure 2.
func BenchmarkFig2TenantDataSize(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if tb := experiments.Fig2(s); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig11TenantRowCounts regenerates Figure 11.
func BenchmarkFig11TenantRowCounts(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if tb := experiments.Fig11(s); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig12TrafficControl regenerates Figure 12 (a, b, c):
// throughput, latency, and route counts under none/greedy/max-flow.
func BenchmarkFig12TrafficControl(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		a, bb, c := experiments.Fig12(s)
		if len(a.Rows) == 0 || len(bb.Rows) == 0 || len(c.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig13AccessStddev regenerates Figure 13 (a, b).
func BenchmarkFig13AccessStddev(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		x, y := experiments.Fig13(s)
		if len(x.Rows) == 0 || len(y.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig14DetailedAccesses regenerates Figure 14 (a, b, c).
func BenchmarkFig14DetailedAccesses(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		x, y, z := experiments.Fig14(s)
		if len(x.Rows) == 0 || len(y.Rows) == 0 || len(z.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig15DataSkipping regenerates Figure 15 (live queries over
// simulated OSS, with vs without the data-skipping strategy).
func BenchmarkFig15DataSkipping(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16ParallelPrefetch regenerates Figure 16 (local vs
// OSS+prefetch vs OSS serial, plus warm-cache rerun).
func BenchmarkFig16ParallelPrefetch(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17OverallLatency regenerates Figure 17 (latency
// distribution before vs after all optimizations).
func BenchmarkFig17OverallLatency(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17(s); err != nil {
			b.Fatal(err)
		}
	}
}

// shifter returns a function that moves every timestamp of rows past
// the batch's own span, so the next append of the same rows is new
// content. The ingest benchmarks generate their batch once, outside the
// timer, and shift it after each append: a batch re-sent unchanged is
// suppressed by a replicated shard as a retried duplicate (the benchmark
// would time raft, not the apply), and no client re-sends the same rows.
// Appends copy the rows, so changing them afterwards is allowed.
func shifter(c *Cluster, rows []Row) func() {
	tsIdx := c.TableSchema().TimeIdx()
	lo, hi := rows[0][tsIdx].I, rows[0][tsIdx].I
	for _, r := range rows {
		lo, hi = min(lo, r[tsIdx].I), max(hi, r[tsIdx].I)
	}
	return func() {
		for _, r := range rows {
			r[tsIdx].I += hi - lo + 1
		}
	}
}

// BenchmarkIngestThroughput measures end-to-end append throughput of an
// embedded cluster with in-memory raft logs: rows/sec through broker routing,
// shard row stores, and traffic accounting. Every iteration appends
// distinct rows (shifter).
func BenchmarkIngestThroughput(b *testing.B) {
	cfg := Config{
		Workers:         2,
		ShardsPerWorker: 2,
		ArchiveInterval: time.Hour, // keep the bench about the write path
		MaxSegmentRows:  1 << 20,
	}
	// LOGSTORE_BENCH_ADMIT=1 layers admission control over the same
	// write path with budgets far above the offered load: the A/B gate
	// (`make benchdiff-admission`) bounds the bookkeeping cost of
	// admission itself, with shedding never triggered.
	if os.Getenv("LOGSTORE_BENCH_ADMIT") == "1" {
		cfg.AdmitTenantRowsPerSec = 1e12
		cfg.AdmitTenantBytesPerSec = 1e15
		cfg.AdmitGlobalBytes = 1 << 50
	}
	c, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 100, Theta: 0.99, Seed: 1})
	const batch = 1000
	rows := g.Batch(batch)
	shift := shifter(c, rows)
	b.SetBytes(int64(batch))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Append(rows...); err != nil {
			b.Fatal(err)
		}
		shift()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkEncodeBatch measures the sub-proposal row encoder on the
// ingest hot path: size-hinted single-allocation encode (amortized to
// zero by buffer reuse) of a 1000-row batch including its
// content-address backfill.
func BenchmarkEncodeBatch(b *testing.B) {
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 100, Theta: 0.99, Seed: 1})
	const batch = 1000
	rows := g.Batch(batch)
	var buf []byte
	b.SetBytes(int64(batch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = worker.AppendSubProposal(buf[:0], rows)
	}
	b.StopTimer()
	if len(buf) == 0 {
		b.Fatal("empty encode")
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkAppendGroupCommit drives the durable write path from
// concurrent writers, the regime group commit exists for: while one
// group's WAL fsync is in flight, newly arriving appends queue up for
// the next drain of the raft sync_queue, so the dominant per-commit
// costs amortize across batches. Each writer's batches are distinct (a
// shared batch would be suppressed by content-address dedup).
func BenchmarkAppendGroupCommit(b *testing.B) {
	c, err := Open(Config{
		Workers:         1,
		ShardsPerWorker: 1,
		ArchiveInterval: time.Hour,
		MaxSegmentRows:  1 << 20,
		DataDir:         b.TempDir(), // raft WALs on disk: real Sync() per group
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const batch = 200
	sch := c.TableSchema()
	tsIdx := sch.TimeIdx()
	var seeds atomic.Int64
	b.SetBytes(int64(batch))
	// 8 writers per core: group commit amortizes raft costs across
	// writers blocked on the same fsync, so the benchmark needs real
	// append concurrency even on a single-core runner.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// One template batch per writer, made unique per iteration by
		// bumping a timestamp: rows are encoded into the proposal (never retained by the proposer), so
		// in-place mutation is safe and keeps the loop measuring
		// encode+commit rather than row generation.
		seed := seeds.Add(1)
		g := workload.NewGenerator(workload.GeneratorConfig{
			Tenants: 10, Theta: 0, Seed: seed, StartMS: seed * 1_000_000,
		})
		rows := g.Batch(batch)
		var n int64
		for pb.Next() {
			n++
			rows[0][tsIdx] = IntValue(seed*1_000_000 + n)
			if err := c.Append(rows...); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	groups, carried := c.CoalesceStats()
	if groups > 0 {
		b.ReportMetric(float64(carried)/float64(groups), "batches/group")
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkQueryRealtime measures point-in-time retrieval from the
// write-optimized row store.
func BenchmarkQueryRealtime(b *testing.B) {
	c, err := Open(Config{
		Workers: 2, ShardsPerWorker: 2,
		ArchiveInterval: time.Hour, MaxSegmentRows: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 20, Theta: 0.5, Seed: 1, StartMS: 1000})
	if err := c.Append(g.Batch(20000)...); err != nil {
		b.Fatal(err)
	}
	sql := "SELECT log FROM request_log WHERE tenant_id = 0 AND ts >= 1000 AND ts <= 50000 AND latency >= 100"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryArchived measures retrieval over archived LogBlocks
// through the multi-level cache (warm after the first iteration).
func BenchmarkQueryArchived(b *testing.B) {
	c, err := Open(Config{
		Workers: 2, ShardsPerWorker: 2,
		ArchiveInterval: time.Hour, MaxSegmentRows: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 20, Theta: 0.5, Seed: 1, StartMS: 1000})
	if err := c.Append(g.Batch(20000)...); err != nil {
		b.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	sql := "SELECT log FROM request_log WHERE tenant_id = 0 AND ts >= 1000 AND ts <= 50000 AND fail = 'true'"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticsGroupBy measures the lightweight BI aggregation
// path ("which IPs frequently accessed this API in the past day").
func BenchmarkAnalyticsGroupBy(b *testing.B) {
	c, err := Open(Config{
		Workers: 2, ShardsPerWorker: 2,
		ArchiveInterval: time.Hour, MaxSegmentRows: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 5, Theta: 0, Seed: 1, StartMS: 1000})
	if err := c.Append(g.Batch(20000)...); err != nil {
		b.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	sql := fmt.Sprintf("SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND ts <= %d GROUP BY ip ORDER BY count DESC LIMIT 10", int64(1)<<40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkAblationBlockSize regenerates the column-block-size ablation.
func BenchmarkAblationBlockSize(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBlockSize(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCodec regenerates the compression-codec ablation.
func BenchmarkAblationCodec(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCodec(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIndexes regenerates the full-column-indexing ablation.
func BenchmarkAblationIndexes(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationIndexes(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmQuery measures the fixed cost of a warm query through
// Cluster.QueryContext: parse, plan, route, the real-time and archived
// sub-queries and the merge, on a zero-value cluster over a MemStore
// whose LogBlocks every iteration after the warming pass finds cached.
// rows=0 is a needle whose ip no row has (the index answers "none");
// rows=100 a 75-minute slice of the hottest tenant.
func BenchmarkWarmQuery(b *testing.B) {
	const (
		startMS = int64(1_600_000_000_000)
		stepMS  = int64(8640) // 20 000 rows over 48 h
	)
	c, err := Open(Config{ArchiveInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 100, Theta: 0.99, Seed: 1, StartMS: startMS, StepMS: stepMS})
	for i := 0; i < 100; i++ {
		if err := c.Append(g.Batch(200)...); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	from := startMS + 24*3600_000
	for _, bc := range []struct {
		name string
		rows int // want exactly 0, or at least 50
		sql  string
	}{
		{"rows=0", 0, fmt.Sprintf("SELECT log FROM request_log WHERE tenant_id = 0 AND ts >= %d AND ts <= %d AND ip = '192.168.9.9' AND latency >= 100 AND fail = 'false'", from, from+3600_000)},
		{"rows=100", 50, fmt.Sprintf("SELECT log FROM request_log WHERE tenant_id = 0 AND ts >= %d AND ts <= %d", from, from+75*60_000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			res, err := c.QueryContext(ctx, bc.sql) // the warming pass
			if err != nil {
				b.Fatal(err)
			}
			if n := len(res.Rows); (bc.rows == 0) != (n == 0) || n < bc.rows {
				b.Fatalf("%d rows, want %d", n, bc.rows)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.QueryContext(ctx, bc.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
