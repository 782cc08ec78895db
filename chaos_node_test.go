package logstore

import (
	"os"
	"strconv"
	"testing"
	"time"

	"logstore/internal/chaos"
)

// The chaos driver must be able to point at a cluster directly.
var _ chaos.Target = (*Cluster)(nil)

// chaosSeed is LOGSTORE_CHAOS_SEED when set (to explore other
// interleavings), def otherwise.
func chaosSeed(t *testing.T, def int64) int64 {
	t.Helper()
	v := os.Getenv("LOGSTORE_CHAOS_SEED")
	if v == "" {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("LOGSTORE_CHAOS_SEED: %v", err)
	}
	return n
}

// nodeFaultRun plays the seeded mix one fault at a time, each held for
// hold, under one writer of 40-row batches over four tenants and one
// COUNT(*) reader.
func nodeFaultRun(t *testing.T, c *Cluster, seed int64, counts map[chaos.Kind]int, hold time.Duration) *chaos.Report {
	t.Helper()
	faults := chaos.Shuffled(seed, c.WorkerIDs(), counts)
	rep, err := chaos.Run(c, chaos.Config{
		Seed: seed + 1, Tenants: 4, Writers: 1, BatchRows: 40,
		Readers: 1, QueryPace: time.Millisecond,
		Schedule: chaos.OneAtATime(faults, hold), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AckedTotal == 0 || rep.Queries() == 0 {
		t.Fatalf("no live traffic: acked=%d queries=%d", rep.AckedTotal, rep.Queries())
	}
	return rep
}

// TestChaosNodeFailures is the node-death safety gate: worker
// crash/restart cycles and disk wipes are interleaved with live ingest
// and query traffic, and afterwards every acked row must be queryable
// exactly once — no loss from crashes, no duplicates from the retries
// the faults force. The schedule is seeded.
func TestChaosNodeFailures(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 3
	cfg.ShardsPerWorker = 2
	cfg.DataDir = t.TempDir() // raft WALs must survive the crashes
	// WAL shipping in sync mode: disk-wipe cycles may destroy a worker's
	// WALs entirely, so the ack must imply OSS durability for the
	// exactly-once ledger to hold.
	cfg.ShipWAL = true
	cfg.ShipSync = true
	cfg.ArchiveInterval = 25 * time.Millisecond
	cfg.HeartbeatInterval = 10 * time.Millisecond
	// Routing must stay pinned: a retried batch re-sent to a different
	// shard would land in a different dedup scope and double-apply.
	cfg.BalanceInterval = 0
	c := openCluster(t, cfg)

	counts := map[chaos.Kind]int{chaos.Crash: 3, chaos.Wipe: 2}
	hold := 150 * time.Millisecond
	if testing.Short() {
		hold = 80 * time.Millisecond
	}
	rep := nodeFaultRun(t, c, chaosSeed(t, 2026), counts, hold)
	if got := rep.Injected; got[chaos.Crash] < 3 || got[chaos.Wipe] < 2 {
		t.Fatalf("injected %v, want >=3 crashes and >=2 wipes", got)
	}

	// The core invariant: per-tenant counts converge to exactly the
	// acked ledger — nothing lost, nothing duplicated.
	if err := chaos.VerifyCounts(c, rep.Acked, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	stats := c.RecoveryStats()
	if n := int64(counts[chaos.Crash]); stats.Crashes < n || stats.Recoveries < n {
		t.Fatalf("recovery stats = %+v, want >=%d crashes and recoveries", stats, n)
	}
	if stats.Wipes < int64(counts[chaos.Wipe]) || stats.Hydrations == 0 {
		t.Fatalf("recovery stats = %+v, want >=%d wipes and >0 OSS hydrations", stats, counts[chaos.Wipe])
	}
	// Every surviving worker's ingest went through raft as multi-sub
	// group proposals — the exactly-once verification above therefore
	// also covers group commit under crashes and wipes.
	groups, batches := c.CoalesceStats()
	if batches == 0 || groups == 0 {
		t.Fatalf("append path saw no traffic (groups=%d batches=%d); chaos must ingest through raft", groups, batches)
	}
	t.Logf("chaos stats: %+v; acked=%d batches=%d retries=%d queries=%d coalesce=%d/%d",
		stats, rep.AckedTotal, rep.Batches, rep.AppendRetries, rep.Queries(), groups, batches)
}
