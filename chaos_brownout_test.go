package logstore

import (
	"context"
	"sync"
	"testing"
	"time"

	"logstore/internal/chaos"
	"logstore/internal/flow"
	"logstore/internal/oss"
	"logstore/internal/workload"
)

// tenantRows builds n rows for one tenant.
func tenantRows(tenant int64, n int, seed int64) []Row {
	g := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: int(tenant) + 1, Theta: 0, Seed: seed, StartMS: 1_000,
	})
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = g.RowForTenant(tenant)
	}
	return rows
}

// TestChaosBrownout is the gray-failure gate (`make chaos`):
// nothing crashes, but one worker's object store stalls on reads, one
// shard lags its applies, and one tenant floods at
// roughly ten times its admission budget — all at once. The cluster
// must degrade gracefully, not collapse: healthy tenants' query p99
// stays within 3x its pre-fault baseline (hedging + slow-worker
// steering route around the stalled store), the memory proxy stays
// bounded (backpressure rejects instead of buffering), the flooding
// tenant is shed with a retry hint rather than breaking others, and
// the exactly-once ledger holds through the whole episode.
func TestChaosBrownout(t *testing.T) {
	seed := chaosSeed(t, 2026)

	var (
		flakyMu sync.Mutex
		flaky   *oss.FlakyStore // worker 0's view of OSS
	)
	cfg := fastConfig()
	cfg.Workers = 3
	cfg.ShardsPerWorker = 2
	// Smaller than any LogBlock: nothing a commit hands to a block cache
	// stays there, so the first read of every new block goes to the store
	// — the working set far beyond the cache that a stalled store hurts.
	cfg.CacheMemoryBytes = 4 << 10
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.HedgeDelay = 20 * time.Millisecond
	cfg.SlowWorkerThreshold = 40 * time.Millisecond
	cfg.AdmitTenantRowsPerSec = 500
	cfg.AdmitGlobalBytes = 32 << 20
	cfg.WorkerStoreWrap = func(id flow.WorkerID, s oss.Store) oss.Store {
		if id != 0 {
			return s
		}
		flakyMu.Lock()
		defer flakyMu.Unlock()
		flaky = oss.NewFlakyStore(s, 0, 0, seed)
		return flaky
	}
	c := openCluster(t, cfg)

	stall := func(n int, d, tail time.Duration, p float64) func() {
		return func() {
			flakyMu.Lock()
			defer flakyMu.Unlock()
			flaky.StallNextGets(n, d)
			flaky.SetTailLatency(p, tail)
		}
	}
	// Each phase is about 60 healthy-tenant queries 25 ms apart (30 in
	// -short): long enough for the flood and the ingest to run against
	// the faults. The preload is archived first, so the baseline reads
	// through the same OSS path the faults degrade.
	preload, phase := 400, 1500*time.Millisecond
	if testing.Short() {
		preload, phase = 200, 750*time.Millisecond
	}
	rep, err := chaos.Run(c, chaos.Config{
		Seed: seed, Tenants: 3, Writers: 1, BatchRows: 20, WritePace: 100 * time.Millisecond,
		Readers: 1, QueryPace: 25 * time.Millisecond, QueryDeadline: 2 * time.Second,
		Preload: preload,
		Settle: func() error {
			if err := c.Flush(); err != nil {
				return err
			}
			if resident := c.WaitForArchive(10 * time.Second); resident != 0 {
				t.Fatalf("preload did not archive: %d rows resident", resident)
			}
			return nil
		},
		Schedule: []chaos.Step{{Hold: phase}, {Hold: phase, Faults: []chaos.Fault{
			{Kind: chaos.Hook, Inject: stall(500, 120*time.Millisecond, 80*time.Millisecond, 0.35), Heal: stall(0, 0, 0, 0)},
			{Kind: chaos.SlowApply, Shard: c.ShardIDs()[len(c.ShardIDs())-1], Delay: 2 * time.Millisecond},
			// ~20 retries/s x 250 rows = ~10x the 500 rows/s bucket.
			{Kind: chaos.Flood, Tenant: 3, Rows: 250},
		}}},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, brown := rep.Phases[0], rep.Phases[1]
	if n := base.Failures.Load(); n > 0 {
		t.Fatalf("%d baseline queries failed before any fault", n)
	}
	if brown.Queries.Load() == 0 {
		t.Fatal("no healthy-tenant query succeeded during the fault window")
	}

	// The faults must actually have fired: reads stalled on worker 0,
	// and the hot tenant was shed at least once.
	if n := flaky.InjectedStalls(); n == 0 {
		t.Fatal("no OSS read was ever stalled — the gray failure never fired")
	}
	if rep.Shed == 0 {
		t.Fatalf("hot tenant was never shed (acked %d rows) — admission idle", rep.FloodAcked)
	}
	if rep.FloodAcked == 0 {
		t.Fatal("hot tenant never acked a batch — shed must delay, not starve")
	}

	// Healthy tenants' p99 during the brownout stays within 3x baseline.
	// The floor keeps the bound meaningful when the baseline is only a
	// few milliseconds: hedged sub-queries cost up to ~HedgeDelay extra.
	p99 := func(p *chaos.Phase) time.Duration {
		return time.Duration(p.Latency.Quantile(0.99) * float64(time.Millisecond))
	}
	floor := 50 * time.Millisecond
	if p99(brown) > 3*max(p99(base), floor) {
		t.Fatalf("healthy p99 %v during brownout, want <= 3x max(baseline %v, %v)", p99(brown), p99(base), floor)
	}
	t.Logf("healthy p99 %v (baseline %v), flood shed %d times, %d rows admitted, peak memory proxy %d bytes",
		p99(brown), p99(base), rep.Shed, rep.FloodAcked, rep.MaxMemory)
	if f, n := brown.Failures.Load(), brown.Queries.Load(); f*10 > f+n {
		t.Fatalf("%d of %d healthy query attempts missed a 2s deadline during brownout", f, f+n)
	}

	// Degradation must show up as rejections, not memory growth: the
	// proxy (raft queues + ship backlog + caches + admitted in-flight
	// bytes) stays far below what an unbounded queue would reach.
	if rep.MaxMemory == 0 {
		t.Fatal("memory proxy never sampled above zero")
	}
	if limit := int64(192 << 20); rep.MaxMemory > limit {
		t.Fatalf("memory proxy peaked at %d bytes (limit %d) — a queue grew without bound",
			rep.MaxMemory, limit)
	}

	// Exactly-once through the whole episode: every acked row (preload,
	// steady healthy ingest, every eventually-admitted hot batch) is
	// counted once after heal.
	if err := chaos.VerifyCounts(c, rep.Acked, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	stats := c.RecoveryStats()
	if stats.Shed == 0 {
		t.Fatalf("broker shed counter zero after brownout: %+v", stats)
	}
	if stats.Admitted == 0 {
		t.Fatalf("admission admitted counter zero after brownout: %+v", stats)
	}
}

// TestQueryExpiredDeadlineSkipsOSS: a query arriving with an already
// expired deadline is refused at the door — no object-store read may
// happen on its behalf. A control query afterwards proves the same
// data does cost OSS reads when the deadline allows work.
func TestQueryExpiredDeadlineSkipsOSS(t *testing.T) {
	var stats oss.Stats
	cfg := fastConfig()
	cfg.ArchiveInterval = time.Hour // only the explicit Flush archives
	cfg.Store = oss.NewCountingStore(oss.NewMemStore(), &stats)
	c := openCluster(t, cfg)

	rows := tenantRows(3, 500, 1)
	if err := c.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if resident := c.WaitForArchive(10 * time.Second); resident != 0 {
		t.Fatalf("%d rows still resident after flush", resident)
	}

	// The flush left every block in its read home's block cache; the
	// control query below must find them cold.
	purgeCaches(c)

	reads := func() int64 {
		return stats.Gets.Value() + stats.RangeGets.Value() +
			stats.Heads.Value() + stats.Lists.Value()
	}
	before := reads()

	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer cancel()
	_, err := c.QueryContext(ctx, "SELECT COUNT(*) FROM request_log WHERE tenant_id = 3 AND ts >= 0")
	if err != context.DeadlineExceeded {
		t.Fatalf("expired-deadline query: err = %v, want context.DeadlineExceeded", err)
	}
	if after := reads(); after != before {
		t.Fatalf("expired-deadline query touched OSS: %d reads before, %d after", before, after)
	}
	if got := c.RecoveryStats().DeadlineExpired; got == 0 {
		t.Fatal("deadline_expired counter not incremented")
	}

	res, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 3 AND ts >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 500 {
		t.Fatalf("control query count = %d, want 500", res.Count)
	}
	if after := reads(); after == before {
		t.Fatal("control query performed no OSS reads — the counter would not have caught a leak")
	}
}

// TestCanceledQueriesReleaseCapacity: queries killed mid-flight by
// their deadlines must release every worker concurrency slot and cache
// reference they held. With QueryConcurrency 2 and every OSS read
// stalled, a storm of doomed queries would wedge the cluster for good
// if even one slot leaked; the clean query afterwards proves none did.
func TestCanceledQueriesReleaseCapacity(t *testing.T) {
	seed := chaosSeed(t, 2026)
	var (
		flakyMu sync.Mutex
		flakies []*oss.FlakyStore
	)
	cfg := fastConfig()
	cfg.QueryConcurrency = 2
	cfg.CacheMemoryBytes = 8 << 20
	cfg.WorkerStoreWrap = func(id flow.WorkerID, s oss.Store) oss.Store {
		f := oss.NewFlakyStore(s, 0, 0, seed+int64(id))
		flakyMu.Lock()
		defer flakyMu.Unlock()
		flakies = append(flakies, f)
		return f
	}
	c := openCluster(t, cfg)

	rows := tenantRows(5, 600, seed)
	if err := c.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if resident := c.WaitForArchive(10 * time.Second); resident != 0 {
		t.Fatalf("%d rows still resident after flush", resident)
	}

	stallAll := func(n int, d time.Duration) {
		flakyMu.Lock()
		defer flakyMu.Unlock()
		for _, f := range flakies {
			f.StallNextGets(n, d)
		}
	}
	// Flushed is not cold: the blocks sit in their read homes' caches.
	purgeCaches(c)
	stallAll(10_000, 300*time.Millisecond)

	const storm = 8
	var wg sync.WaitGroup
	errc := make(chan error, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			_, err := c.QueryContext(ctx, "SELECT COUNT(*) FROM request_log WHERE tenant_id = 5 AND ts >= 0")
			errc <- err
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err == nil {
			t.Fatal("a 30ms query succeeded against 300ms-stalled reads")
		}
	}
	if got := c.RecoveryStats().DeadlineExpired + c.RecoveryStats().Canceled; got == 0 {
		t.Fatal("no query was counted canceled/expired during the storm")
	}

	stallAll(0, 0)
	res, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 5 AND ts >= 0")
	if err != nil {
		t.Fatalf("clean query after cancellation storm: %v (leaked concurrency slot?)", err)
	}
	if res.Count != 600 {
		t.Fatalf("clean query count = %d, want 600", res.Count)
	}
	// Cache references died with their queries: the proxy sits within
	// the configured cache capacities, not storm-inflated.
	if m := c.MemoryProxy(); m > 128<<20 {
		t.Fatalf("memory proxy %d bytes after storm — canceled queries pinned cache state", m)
	}
}
