package logstore

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"logstore/internal/flow"
	"logstore/internal/logblock"
	"logstore/internal/oss"
	"logstore/internal/worker"
	"logstore/internal/workload"
)

// fastConfig is a small, quick cluster for integration tests.
func fastConfig() Config {
	return Config{
		Workers:         2,
		ShardsPerWorker: 2,
		ArchiveInterval: 50 * time.Millisecond,
		MaxSegmentRows:  500,
	}
}

func openCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// forEachLogCopy runs f once per way a cluster keeps its shards' logs,
// each as a subtest on its own copy of cfg. "Replicas=1" runs cfg as
// given. "Replicas=3" adds a DataDir and ships every shard's log to
// object storage. The names are kept from when a shard ran one or three
// raft replicas in its worker; the shipped log took those replicas'
// place.
func forEachLogCopy(t *testing.T, cfg Config, f func(t *testing.T, cfg Config)) {
	t.Run("Replicas=1", func(t *testing.T) { f(t, cfg) })
	t.Run("Replicas=3", func(t *testing.T) {
		shipped := cfg
		shipped.DataDir = t.TempDir()
		shipped.ShipWAL = true
		f(t, shipped)
	})
}

// purgeCaches empties every worker's block and object cache. A LogBlock
// is admitted to its read home's block cache when it is committed, so a
// test that needs its next read to come from object storage says so.
func purgeCaches(c *Cluster) {
	for _, id := range c.WorkerIDs() {
		if w, ok := c.Worker(id); ok {
			w.PurgeCaches()
		}
	}
}

func TestEndToEndIngestAndQuery(t *testing.T) {
	c := openCluster(t, fastConfig())
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 10, Theta: 0.5, Seed: 1, StartMS: 1000})
	rows := g.Batch(2000)
	if err := c.Append(rows...); err != nil {
		t.Fatal(err)
	}

	// Real-time visibility: queryable before archive.
	sch := c.TableSchema()
	wantT3 := 0
	for _, r := range rows {
		if r.Tenant(sch) == 3 {
			wantT3++
		}
	}
	res, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 3 AND ts >= 0 AND ts <= 99999999")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(wantT3) {
		t.Fatalf("realtime count = %d, want %d", res.Count, wantT3)
	}

	// Archive everything, then the same query reads from LogBlocks.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if left := c.WaitForArchive(5 * time.Second); left != 0 {
		t.Fatalf("%d rows never archived", left)
	}
	res2, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 3 AND ts >= 0 AND ts <= 99999999")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != int64(wantT3) {
		t.Fatalf("archived count = %d, want %d", res2.Count, wantT3)
	}
	if res2.Stats.BlocksExamined == 0 {
		t.Error("archived query should touch LogBlocks")
	}
	// Tenant physical isolation on OSS.
	for _, b := range c.TenantBlocks(3) {
		if !strings.Contains(b.Path, "tenant-3/") {
			t.Errorf("tenant 3 block at %s", b.Path)
		}
	}
	rowsUsed, bytesUsed := c.TenantUsage(3)
	if rowsUsed != int64(wantT3) || bytesUsed <= 0 {
		t.Errorf("usage = %d rows %d bytes", rowsUsed, bytesUsed)
	}
}

// TestFlushFlushesEveryLiveWorker: a worker that is down fails Flush
// with ErrWorkerDown, and every other worker is flushed all the same.
func TestFlushFlushesEveryLiveWorker(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 3
	cfg.ArchiveInterval = time.Hour // only the Flush below drains
	c := openCluster(t, cfg)
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 60, Theta: 0, Seed: 4, StartMS: 1000})
	if err := c.Append(g.Batch(600)...); err != nil {
		t.Fatal(err)
	}
	ids := c.WorkerIDs()
	for deadline := time.Now().Add(5 * time.Second); c.Stats().ResidentRows < 600; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 600 rows applied", c.Stats().ResidentRows)
		}
	}
	for _, id := range ids {
		if w, _ := c.Worker(id); w.ResidentRows() == 0 {
			t.Fatalf("worker %d holds no rows; the test needs every worker to", id)
		}
	}
	down := ids[1]
	if err := c.CrashWorker(down); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); !errors.Is(err, worker.ErrWorkerDown) {
		t.Fatalf("Flush = %v, want ErrWorkerDown", err)
	}
	for _, id := range ids {
		if w, _ := c.Worker(id); id != down && w.ResidentRows() != 0 {
			t.Errorf("live worker %d holds %d rows after Flush", id, w.ResidentRows())
		}
	}
}

func TestQuerySpansRealtimeAndArchived(t *testing.T) {
	c := openCluster(t, fastConfig())
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 2, StartMS: 1000})
	// First half archived...
	if err := c.Append(g.Batch(300)...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// ...second half stays in the row store.
	if err := c.Append(g.Batch(200)...); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0 AND ts <= 99999999")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 500 {
		t.Fatalf("hybrid count = %d, want 500", res.Count)
	}
}

func TestFullTextAndPredicates(t *testing.T) {
	c := openCluster(t, fastConfig())
	base := int64(5000)
	mk := func(ts int64, ip, api string, latency int64, fail, log string) Row {
		return Row{IntValue(7), IntValue(ts), StringValue(ip), StringValue(api),
			IntValue(latency), StringValue(fail), StringValue(log)}
	}
	if err := c.Append(
		mk(base+1, "10.0.0.1", "/api/a", 50, "false", "request served quickly"),
		mk(base+2, "10.0.0.2", "/api/b", 150, "false", "slow query detected on shard"),
		mk(base+3, "10.0.0.1", "/api/a", 250, "true", "upstream timeout detected"),
	); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	res, err := c.Query(fmt.Sprintf(
		"SELECT log FROM request_log WHERE tenant_id = 7 AND ts >= %d AND ts <= %d AND ip = '10.0.0.1' AND latency >= 100 AND fail = 'true'",
		base, base+10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].S, "timeout") {
		t.Fatalf("paper-template query rows = %+v", res.Rows)
	}

	res, err = c.Query(fmt.Sprintf(
		"SELECT log FROM request_log WHERE tenant_id = 7 AND ts >= %d AND ts <= %d AND log MATCH 'detected'", base, base+10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("MATCH rows = %d, want 2", len(res.Rows))
	}
}

func TestGroupByAggregation(t *testing.T) {
	c := openCluster(t, fastConfig())
	for i := 0; i < 30; i++ {
		ip := fmt.Sprintf("10.0.0.%d", i%3+1)
		if err := c.Append(Row{IntValue(1), IntValue(int64(1000 + i)), StringValue(ip),
			StringValue("/api/q"), IntValue(10), StringValue("false"), StringValue("m")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND ts <= 9999 GROUP BY ip ORDER BY count DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %+v", res.Groups)
	}
	if res.Groups[0].Count != 10 {
		t.Errorf("top group count = %d", res.Groups[0].Count)
	}
}

func TestRetentionExpiration(t *testing.T) {
	c := openCluster(t, fastConfig())
	c.SetRetention(1, time.Hour)
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 2, Theta: 0, Seed: 3, StartMS: 1000})
	if err := c.Append(g.Batch(200)...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	before := len(c.TenantBlocks(1))
	if before == 0 {
		t.Fatal("no archived blocks")
	}
	// "Now" far beyond every row's timestamp: tenant 1 expires fully,
	// tenant 0 (no retention) keeps everything.
	removed := c.ExpireNow(time.Now().UnixMilli() + 365*24*3600_000)
	if removed != before {
		t.Errorf("expired %d of %d blocks", removed, before)
	}
	if got := len(c.TenantBlocks(1)); got != 0 {
		t.Errorf("tenant 1 still has %d blocks", got)
	}
	if got := len(c.TenantBlocks(0)); got == 0 {
		t.Error("tenant 0 lost blocks without a retention policy")
	}
}

func TestHotTenantRebalancing(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 3
	cfg.Algorithm = AlgorithmMaxFlow
	cfg.WorkerCapacityPerSec = 200_000
	cfg.ShardCapacityPerSec = 50_000
	cfg.TenantShardLimit = 50_000
	c := openCluster(t, cfg)
	// Synthetic hot traffic: tenant 5 at ~120k rows/s (vs 42.5k hot
	// threshold) recorded straight into the monitor.
	c.ctrl.Scheduler().EnsureTenant(5)
	var home flow.ShardID
	for s := range c.RouteTable()[5] {
		home = s
	}
	wid, _ := c.ShardOwner(home)
	for i := 0; i < 10; i++ {
		c.Collector().Record(5, home, wid, 120_000)
	}
	if action := c.RebalanceNow(); action != flow.ActionRebalanced {
		t.Fatalf("action = %v", action)
	}
	routes := c.RouteTable()[5]
	if len(routes) < 3 {
		t.Errorf("hot tenant routed to %d shards, want >= 3 (120k / 50k limit)", len(routes))
	}
	// Writes still work after the route change.
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 4, StartMS: 1})
	rows := g.Batch(50)
	for i := range rows {
		rows[i][0] = IntValue(5)
	}
	if err := c.Append(rows...); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 5 AND ts >= 0 AND ts <= 99999")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 50 {
		t.Errorf("post-rebalance count = %d", res.Count)
	}
}

func TestScaleOutOnOverload(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.ShardsPerWorker = 1
	cfg.Algorithm = AlgorithmMaxFlow
	cfg.WorkerCapacityPerSec = 10_000
	cfg.ShardCapacityPerSec = 10_000
	cfg.TenantShardLimit = 10_000
	c := openCluster(t, cfg)
	c.ctrl.Scheduler().EnsureTenant(1)
	var home flow.ShardID
	for s := range c.RouteTable()[1] {
		home = s
	}
	wid, _ := c.ShardOwner(home)
	for i := 0; i < 10; i++ {
		c.Collector().Record(1, home, wid, 100_000)
	}
	before := c.Workers()
	c.RebalanceNow()
	if got := c.Workers(); got <= before {
		t.Errorf("workers = %d, want > %d after overload", got, before)
	}
}

func TestQueryErrors(t *testing.T) {
	c := openCluster(t, fastConfig())
	for _, sql := range []string{
		"garbage",
		"SELECT nope FROM request_log WHERE tenant_id = 1",
		"SELECT log FROM request_log WHERE latency > 5", // no tenant pin
	} {
		if _, err := c.Query(sql); err == nil {
			t.Errorf("Query(%q) should fail", sql)
		}
	}
}

func TestAppendValidation(t *testing.T) {
	c := openCluster(t, fastConfig())
	if err := c.Append(Row{IntValue(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := c.Append(); err != nil {
		t.Errorf("empty append: %v", err)
	}
}

func TestClosedCluster(t *testing.T) {
	c, err := Open(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if err := c.Append(Row{}); err == nil {
		t.Error("append on closed cluster accepted")
	}
	if _, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1"); err == nil {
		t.Error("query on closed cluster accepted")
	}
}

func TestSimulatedOSSBackend(t *testing.T) {
	cfg := fastConfig()
	cfg.Store = oss.NewSimStore(oss.NewMemStore(), oss.LatencyModel{
		RequestLatency: 200 * time.Microsecond,
	}, 1)
	c := openCluster(t, cfg)
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 2, Theta: 0, Seed: 6, StartMS: 10})
	if err := c.Append(g.Batch(100)...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0 AND ts <= 9999")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Error("no rows over simulated OSS")
	}
}

func TestClusterStatsDirect(t *testing.T) {
	c := openCluster(t, fastConfig())
	sch := RequestLogSchema()
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(Row{IntValue(4), IntValue(100), StringValue("1.1.1.1"),
		StringValue("/s"), IntValue(2), StringValue("false"), StringValue("m")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Workers != 2 || s.Shards != 4 || s.Tenants != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.ArchivedRows != 1 || s.ArchivedBytes == 0 || s.ArchivedBlocks == 0 {
		t.Errorf("archive stats = %+v", s)
	}
	if s.ResidentRows != 0 {
		t.Errorf("resident = %d after flush", s.ResidentRows)
	}
	if s.RouteRules == 0 {
		t.Errorf("route rules = %d", s.RouteRules)
	}
}

func TestConfigVariants(t *testing.T) {
	// Data skipping disabled + serial prefetch + SSD cache dir.
	off := false
	cfg := fastConfig()
	cfg.DataSkipping = &off
	cfg.PrefetchThreads = -1
	cfg.CacheDir = t.TempDir()
	c := openCluster(t, cfg)
	// Rows enough for the LogBlock to have indexes, so that a MATCH
	// would probe one if skipping were on.
	rows := make([]Row, logblock.MinIndexedRows)
	for i := range rows {
		msg := "plain row"
		if i == 7 {
			msg = "plain scan me"
		}
		rows[i] = Row{IntValue(1), IntValue(int64(50 + i)), StringValue("2.2.2.2"),
			StringValue("/v"), IntValue(9), StringValue("false"), StringValue(msg)}
	}
	if err := c.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, b := range c.TenantBlocks(1) {
		if b.Rows < logblock.MinIndexedRows {
			t.Fatalf("LogBlock %s has %d rows, too few for indexes", b.Path, b.Rows)
		}
	}
	res, err := c.Query("SELECT log FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND ts <= 1000 AND log MATCH 'scan'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Stats.IndexLookups != 0 {
		t.Errorf("DataSkipping=false still used indexes: %+v", res.Stats)
	}
}

// TestResultStringsOutliveEviction: a result's strings are substrings of
// the decoded column blocks they came from, so a row the client keeps
// keeps its block's arena alive. Emptying the caches, decoding other
// blocks in their place and collecting garbage must change no byte of
// it.
func TestResultStringsOutliveEviction(t *testing.T) {
	cfg := fastConfig()
	cfg.ArchiveInterval = time.Hour
	c := openCluster(t, cfg)
	const tenants, perTenant = 8, 300
	var want []Row
	for tenant := int64(0); tenant < tenants; tenant++ {
		rows := rowsAt(c, tenant, perTenant, 1_000)
		if tenant == 0 {
			want = rows
		}
		if err := c.Append(rows...); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	query := func(tenant int64) []Row {
		t.Helper()
		res, err := c.Query(fmt.Sprintf("SELECT * FROM request_log WHERE tenant_id = %d AND ts >= 0 AND ts <= 99999999", tenant))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	query(0)         // decodes tenant 0's column blocks into the vector cache
	kept := query(0) // and this one is served from them

	purgeCaches(c)
	for round := 0; round < 3; round++ {
		for tenant := int64(1); tenant < tenants; tenant++ {
			query(tenant)
		}
	}
	runtime.GC()

	timeIdx := c.TableSchema().TimeIdx()
	slices.SortFunc(kept, func(a, b Row) int { return cmp.Compare(a[timeIdx].I, b[timeIdx].I) })
	if len(kept) != len(want) {
		t.Fatalf("kept %d rows, want %d", len(kept), len(want))
	}
	for i := range want {
		for ci, v := range want[i] {
			if !kept[i][ci].Equal(v) {
				t.Fatalf("row %d column %d is %v after eviction, want %v", i, ci, kept[i][ci], v)
			}
		}
	}
}
