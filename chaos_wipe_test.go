package logstore

import (
	"os"
	"strconv"
	"testing"
	"time"

	"logstore/internal/chaos"
)

// TestChaosDiskWipe is the disk-loss chaos gate (`make chaos`): a
// wipe-heavy seeded schedule — workers repeatedly crash WITH their raft
// WALs and caches destroyed — runs under live ingest and query traffic.
// Every recovery must hydrate the lost shards from the shipped WAL on
// object storage, and the exactly-once ledger must hold throughout:
// acked rows survive total disk loss, retried batches never double.
func TestChaosDiskWipe(t *testing.T) {
	seed := int64(4096)
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
	cfg.DataDir = t.TempDir()
	cfg.CacheDir = t.TempDir()
	cfg.ShipWAL = true
	cfg.ShipSync = true
	cfg.ArchiveInterval = 25 * time.Millisecond
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.BalanceInterval = 0
	c := openCluster(t, cfg)

	ccfg := chaos.Config{
		Seed:         seed,
		Tenants:      4,
		BatchRows:    40,
		WipeCycles:   4,
		LeaderKills:  1,
		Replicas:     cfg.Replicas,
		RecoverAfter: 150 * time.Millisecond,
		StartMS:      1_000,
		Logf:         t.Logf,
	}
	if testing.Short() {
		ccfg.WipeCycles = 2
		ccfg.LeaderKills = 0
		ccfg.RecoverAfter = 80 * time.Millisecond
	}

	rep, err := chaos.Run(c, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wipes < ccfg.WipeCycles {
		t.Fatalf("injected wipes=%d, want >=%d", rep.Wipes, ccfg.WipeCycles)
	}
	if rep.AckedTotal == 0 || rep.Queries == 0 {
		t.Fatalf("no live traffic: acked=%d queries=%d", rep.AckedTotal, rep.Queries)
	}
	if err := chaos.VerifyCounts(c, c.TableSchema(), rep.Acked, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	stats := c.RecoveryStats()
	if stats.Wipes < int64(ccfg.WipeCycles) {
		t.Fatalf("recovery stats = %+v, want >=%d wipes", stats, ccfg.WipeCycles)
	}
	if stats.Hydrations == 0 {
		t.Fatalf("recovery stats = %+v: no shard ever hydrated from OSS", stats)
	}
	if stats.ShipSnapshots == 0 || stats.ShipChunks == 0 {
		t.Fatalf("shipping idle during chaos: %+v", stats)
	}
	t.Logf("wipe chaos: acked=%d retries=%d queries=%d wipes=%d hydrations=%d snapshots=%d chunks=%d",
		rep.AckedTotal, rep.AppendRetries, rep.Queries,
		stats.Wipes, stats.Hydrations, stats.ShipSnapshots, stats.ShipChunks)
}
