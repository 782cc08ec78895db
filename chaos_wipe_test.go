package logstore

import (
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
	cfg := fastConfig()
	cfg.Workers = 3
	cfg.ShardsPerWorker = 2
	cfg.DataDir = t.TempDir()
	cfg.CacheDir = t.TempDir()
	cfg.ShipWAL = true
	cfg.ShipSync = true
	cfg.ArchiveInterval = 25 * time.Millisecond
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.BalanceInterval = 0
	c := openCluster(t, cfg)

	counts := map[chaos.Kind]int{chaos.Wipe: 4}
	hold := 150 * time.Millisecond
	if testing.Short() {
		counts = map[chaos.Kind]int{chaos.Wipe: 2}
		hold = 80 * time.Millisecond
	}
	rep := nodeFaultRun(t, c, chaosSeed(t, 4096), counts, hold)
	if rep.Injected[chaos.Wipe] < counts[chaos.Wipe] {
		t.Fatalf("injected wipes=%d, want >=%d", rep.Injected[chaos.Wipe], counts[chaos.Wipe])
	}
	if err := chaos.VerifyCounts(c, rep.Acked, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	stats := c.RecoveryStats()
	if stats.Wipes < int64(counts[chaos.Wipe]) {
		t.Fatalf("recovery stats = %+v, want >=%d wipes", stats, counts[chaos.Wipe])
	}
	if stats.Hydrations == 0 {
		t.Fatalf("recovery stats = %+v: no shard ever hydrated from OSS", stats)
	}
	if stats.ShipSnapshots == 0 || stats.ShipChunks == 0 {
		t.Fatalf("shipping idle during chaos: %+v", stats)
	}
	t.Logf("wipe chaos: acked=%d retries=%d queries=%d wipes=%d hydrations=%d snapshots=%d chunks=%d",
		rep.AckedTotal, rep.AppendRetries, rep.Queries(),
		stats.Wipes, stats.Hydrations, stats.ShipSnapshots, stats.ShipChunks)
}
