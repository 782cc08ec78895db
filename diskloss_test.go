package logstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"logstore/internal/chaos"
	"logstore/internal/workload"
)

// TestDiskLossHydration is the OSS-as-the-only-truth gate, at every
// replica count (a one-node group ships its log too): a worker
// whose entire data directory (raft WALs) and SSD cache are destroyed
// must rebuild every hosted shard from object storage alone — the
// latest shipped snapshot plus the committed chunk suffix — and end up
// with resident+archived == acked, nothing lost and nothing doubled.
func TestDiskLossHydration(t *testing.T) {
	for _, replicas := range []int{3, 1} {
		t.Run(fmt.Sprintf("Replicas=%d", replicas), func(t *testing.T) {
			cfg := fastConfig()
			cfg.Workers = 2
			cfg.ShardsPerWorker = 2
			cfg.Replicas = replicas
			cfg.DataDir = t.TempDir()
			cfg.CacheDir = t.TempDir()
			cfg.ShipWAL = true
			cfg.ShipSync = true // the ack must imply OSS durability for zero-loss wipes
			cfg.ArchiveInterval = 25 * time.Millisecond
			cfg.BalanceInterval = 0 // pinned routing keeps dedup scopes stable
			c := openCluster(t, cfg)

			g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 4, Theta: 0, Seed: 77, StartMS: 1_000})
			acked := map[int64]int64{}
			tenantIdx := c.TableSchema().TenantIdx()
			ingest := func(batches int) {
				t.Helper()
				for i := 0; i < batches; i++ {
					rows := g.Batch(50)
					if err := c.Append(rows...); err != nil {
						t.Fatalf("append: %v", err)
					}
					for _, r := range rows {
						acked[r[tenantIdx].I]++
					}
				}
			}

			// Phase 1: ingest, then let the archive loop move part of it into
			// LogBlocks so hydration has to reconcile all three layers (archived
			// rows, snapshotted entries, chunk suffix).
			ingest(20)
			time.Sleep(4 * cfg.ArchiveInterval)
			ingest(10)

			workers := c.WorkerIDs()
			for cycle := 1; cycle <= 2; cycle++ {
				victim := workers[cycle%len(workers)]
				if err := c.CrashWorkerWipeDisk(victim); err != nil {
					t.Fatalf("cycle %d: wipe: %v", cycle, err)
				}
				// The wipe must actually have destroyed the local truth.
				dir := filepath.Join(cfg.DataDir, fmt.Sprintf("worker-%d", victim))
				if _, err := os.Stat(dir); !os.IsNotExist(err) {
					t.Fatalf("cycle %d: %s still exists after wipe (err=%v)", cycle, dir, err)
				}
				if err := c.RecoverWorker(victim); err != nil {
					t.Fatalf("cycle %d: recover: %v", cycle, err)
				}
				// Every acked row is back, exactly once, from OSS alone.
				if err := chaos.VerifyCounts(c, acked, 30*time.Second); err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
				// The hydrated worker keeps working: more ingest, still exact.
				ingest(5)
				if err := chaos.VerifyCounts(c, acked, 30*time.Second); err != nil {
					t.Fatalf("cycle %d post-ingest: %v", cycle, err)
				}
			}

			stats := c.RecoveryStats()
			if stats.Wipes != 2 {
				t.Fatalf("wipes = %d, want 2", stats.Wipes)
			}
			if stats.Hydrations == 0 {
				t.Fatal("no shard hydrated from OSS; the wipe path never exercised hydration")
			}
			if stats.ShipSnapshots == 0 || stats.ShipChunks == 0 {
				t.Fatalf("shipping idle during test: %+v", stats)
			}
			t.Logf("disk-loss stats: wipes=%d hydrations=%d snapshots=%d chunks=%d unshipped=%dB",
				stats.Wipes, stats.Hydrations, stats.ShipSnapshots, stats.ShipChunks, stats.UnshippedBytes)
		})
	}
}

// TestShipWALRequiresDurableConfig pins the configuration contract:
// shipping without a data directory has no local log to ship from, so
// Open must refuse it outright.
func TestShipWALRequiresDurableConfig(t *testing.T) {
	cfg := fastConfig()
	cfg.ShipWAL = true
	if _, err := Open(cfg); err == nil {
		t.Fatal("ShipWAL without DataDir accepted")
	}
}
