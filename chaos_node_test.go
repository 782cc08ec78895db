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

// TestChaosNodeFailures is the node-death safety gate: worker
// crash/restart cycles, raft leader kills, and replica partitions are
// interleaved with live ingest and query traffic, and afterwards every
// acked row must be queryable exactly once — no loss from crashes, no
// duplicates from the retries the faults force. The schedule is seeded
// (override with LOGSTORE_CHAOS_SEED to explore); raft runs on the
// deterministic tick so recovery is driven by elections, not tuned
// sleeps.
func TestChaosNodeFailures(t *testing.T) {
	seed := int64(2026)
	if v := os.Getenv("LOGSTORE_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("LOGSTORE_CHAOS_SEED: %v", err)
		}
		seed = n
	}

	cfg := fastConfig()
	cfg.Workers = 3
	cfg.ShardsPerWorker = 2
	cfg.Replicas = 3
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

	ccfg := chaos.Config{
		Seed:         seed,
		Tenants:      4,
		BatchRows:    40,
		CrashCycles:  3,
		WipeCycles:   2,
		LeaderKills:  2,
		Partitions:   2,
		Replicas:     cfg.Replicas,
		RecoverAfter: 150 * time.Millisecond,
		StartMS:      1_000,
		Logf:         t.Logf,
	}
	if testing.Short() {
		ccfg.Partitions = 1
		ccfg.RecoverAfter = 80 * time.Millisecond
	}

	rep, err := chaos.Run(c, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes < 3 || rep.LeaderKills < 2 || rep.Wipes < 2 {
		t.Fatalf("injected crashes=%d leaderKills=%d wipes=%d, want >=3, >=2 and >=2",
			rep.Crashes, rep.LeaderKills, rep.Wipes)
	}
	if rep.AckedTotal == 0 || rep.Queries == 0 {
		t.Fatalf("no live traffic: acked=%d queries=%d", rep.AckedTotal, rep.Queries)
	}

	// The core invariant: per-tenant counts converge to exactly the
	// acked ledger — nothing lost, nothing duplicated.
	if err := chaos.VerifyCounts(c, c.TableSchema(), rep.Acked, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	stats := c.RecoveryStats()
	if stats.Crashes < int64(ccfg.CrashCycles) || stats.Recoveries < int64(ccfg.CrashCycles) {
		t.Fatalf("recovery stats = %+v, want >=%d crashes and recoveries", stats, ccfg.CrashCycles)
	}
	if stats.LeaderKills < int64(ccfg.LeaderKills) {
		t.Fatalf("recovery stats = %+v, want >=%d leader kills", stats, ccfg.LeaderKills)
	}
	if stats.Wipes < int64(ccfg.WipeCycles) || stats.Hydrations == 0 {
		t.Fatalf("recovery stats = %+v, want >=%d wipes and >0 OSS hydrations", stats, ccfg.WipeCycles)
	}
	// Every surviving worker's ingest went through raft as multi-sub
	// group proposals — the exactly-once verification above therefore
	// also covers group commit under crashes, leader kills, and
	// partitions.
	groups, batches := c.CoalesceStats()
	if batches == 0 || groups == 0 {
		t.Fatalf("append path saw no traffic (groups=%d batches=%d); chaos must ingest through raft", groups, batches)
	}
	t.Logf("chaos stats: %+v; acked=%d batches=%d retries=%d queries=%d coalesce=%d/%d",
		stats, rep.AckedTotal, rep.Batches, rep.AppendRetries, rep.Queries, groups, batches)
}
