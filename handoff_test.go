package logstore

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"logstore/internal/flow"
	"logstore/internal/oss"
)

// handoffCluster is three unreplicated workers over a counting store
// that only explicit flushes archive to.
func handoffCluster(t *testing.T) (*Cluster, *oss.Stats) {
	t.Helper()
	stats := &oss.Stats{}
	cfg := fastConfig()
	cfg.Workers = 3
	cfg.ArchiveInterval = time.Hour
	cfg.Store = oss.NewCountingStore(oss.NewMemStore(), stats)
	return openCluster(t, cfg), stats
}

func storeReads(s *oss.Stats) int64 {
	return s.Gets.Value() + s.RangeGets.Value() + s.Heads.Value()
}

// selectCount runs a row-returning query (so data members are read, not
// just the block's meta) and returns how many rows came back.
func selectCount(t *testing.T, c *Cluster, tenant int64) int {
	t.Helper()
	res, err := c.Query(fmt.Sprintf(
		"SELECT log FROM request_log WHERE tenant_id = %d AND ts >= 0 AND ts <= 99999999", tenant))
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// TestJustArchivedRowsReadFromMemory: the commit hands every LogBlock to
// the worker its reads are routed to, so a query for rows archived a
// moment ago asks object storage nothing; with the caches emptied the
// same query falls back to the store and returns the same rows.
func TestJustArchivedRowsReadFromMemory(t *testing.T) {
	c, stats := handoffCluster(t)
	const tenants, perTenant = 12, 40
	for tenant := int64(0); tenant < tenants; tenant++ {
		if err := c.Append(rowsAt(c, tenant, perTenant, 1_000)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ResidentRows != 0 || st.ArchivedBlocks < tenants {
		t.Fatalf("after flush: %+v", st)
	}
	if got := st.HandoffLocalBlocks + st.HandoffPeerBlocks; got != int64(st.ArchivedBlocks) || st.HandoffDroppedBlocks != 0 {
		t.Fatalf("hand-offs local %d + peer %d, dropped %d; want all %d blocks admitted",
			st.HandoffLocalBlocks, st.HandoffPeerBlocks, st.HandoffDroppedBlocks, st.ArchivedBlocks)
	}
	if st.HandoffLocalBytes+st.HandoffPeerBytes != st.ArchivedBytes {
		t.Fatalf("handed off %d + %d bytes, archived %d", st.HandoffLocalBytes, st.HandoffPeerBytes, st.ArchivedBytes)
	}
	if st.HandoffLocalBlocks == 0 || st.HandoffPeerBlocks == 0 {
		t.Fatalf("%d blocks over 3 workers: %d local, %d peer; want both kinds",
			st.ArchivedBlocks, st.HandoffLocalBlocks, st.HandoffPeerBlocks)
	}

	before := storeReads(stats)
	for tenant := int64(0); tenant < tenants; tenant++ {
		if got := selectCount(t, c, tenant); got != perTenant {
			t.Fatalf("tenant %d: %d rows, want %d", tenant, got, perTenant)
		}
	}
	if reads := storeReads(stats) - before; reads != 0 {
		t.Fatalf("queries for just-archived rows made %d store reads, want 0", reads)
	}

	purgeCaches(c)
	for tenant := int64(0); tenant < tenants; tenant++ {
		if got := selectCount(t, c, tenant); got != perTenant {
			t.Fatalf("tenant %d after purge: %d rows, want %d", tenant, got, perTenant)
		}
	}
	if reads := storeReads(stats) - before; reads < tenants {
		t.Fatalf("%d store reads after the purge, want at least one per block: the fallback is gone", reads)
	}
}

// TestHandoffLostNeverTheCommit: a read home that is down or flagged
// slow when a block commits costs the hand-off — the block's first
// reader pays a fetch — and never the commit or a row.
func TestHandoffLostNeverTheCommit(t *testing.T) {
	const tenants, perTenant = 12, 30
	appendAll := func(t *testing.T, c *Cluster) {
		t.Helper()
		for tenant := int64(0); tenant < tenants; tenant++ {
			if err := c.Append(rowsAt(c, tenant, perTenant, 1_000)...); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("Crashed", func(t *testing.T) {
		c, stats := handoffCluster(t)
		appendAll(t, c)
		// No heartbeat loop runs, so the health view stays optimistic and
		// worker 2 keeps its third of the read homes after it dies. What it
		// held in memory dies with it (one replica, no WAL); the other two
		// workers' rows are what this test follows.
		if err := c.CrashWorker(2); err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, id := range []flow.WorkerID{0, 1} {
			w, _ := c.Worker(id)
			want += w.ResidentRows()
			for _, sid := range w.Shards() {
				if err := w.FlushShard(sid); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := c.Stats()
		if st.ArchivedRows != want || want == 0 {
			t.Fatalf("archived %d rows, want the %d resident on the live workers", st.ArchivedRows, want)
		}
		if st.HandoffDroppedBlocks == 0 || st.HandoffDroppedBlocks == int64(st.ArchivedBlocks) {
			t.Fatalf("%d of %d hand-offs dropped, want those homed on the dead worker only", st.HandoffDroppedBlocks, st.ArchivedBlocks)
		}
		before := storeReads(stats)
		var got int64
		for tenant := int64(0); tenant < tenants; tenant++ {
			if len(c.TenantBlocks(tenant)) == 0 {
				continue // its shard was on the dead worker: no real-time read until recovery
			}
			got += int64(selectCount(t, c, tenant)) // block reads fail over from the dead home
		}
		if got != want {
			t.Fatalf("queries returned %d rows, want %d", got, want)
		}
		if storeReads(stats) == before {
			t.Fatal("no store read: the dropped blocks were cached somewhere after all")
		}
	})

	t.Run("SlowFlagged", func(t *testing.T) {
		c, stats := handoffCluster(t)
		appendAll(t, c)
		c.health.SetSlowThreshold(time.Millisecond)
		c.health.ReportLatency(2, time.Second)
		if c.WorkerHealth(2) != WorkerSlow {
			t.Fatalf("worker 2 is %v, want slow", c.WorkerHealth(2))
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		// Homes were taken over the two fast workers; worker 2 got nothing,
		// not even the blocks it built.
		st := c.Stats()
		if st.HandoffDroppedBlocks != 0 || st.ArchivedRows != tenants*perTenant {
			t.Fatalf("after flush: %+v", st)
		}
		w2, _ := c.Worker(2)
		if local, _, peer, _, _, _ := w2.HandoffStats(); local != 0 || peer == 0 {
			t.Fatalf("slow worker admitted %d of its own blocks and sent %d away, want 0 and all", local, peer)
		}
		// Recovered, it is the read home of its third again and holds none
		// of it.
		c.health.SetSlowThreshold(0)
		before := storeReads(stats)
		for tenant := int64(0); tenant < tenants; tenant++ {
			if got := selectCount(t, c, tenant); got != perTenant {
				t.Fatalf("tenant %d: %d rows, want %d", tenant, got, perTenant)
			}
		}
		if storeReads(stats) == before {
			t.Fatal("no store read after the flag cleared")
		}
	})
}

// TestCompactionOutputAdmitted: a merged block goes through the same
// commit as a drained one, so its first read is from memory too.
func TestCompactionOutputAdmitted(t *testing.T) {
	c, stats := handoffCluster(t)
	for round := int64(0); round < 3; round++ {
		if err := c.Append(rowsAt(c, 4, 50, 1_000+round*100)...); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.TenantBlocks(4)); n != 3 {
		t.Fatalf("%d blocks before compaction, want 3", n)
	}
	purgeCaches(c) // drop the sources' admissions: only the merge's counts
	if merged, err := c.CompactNow(0); err != nil || merged != 3 {
		t.Fatalf("CompactNow = %d, %v; want 3 merged", merged, err)
	}
	blocks := c.TenantBlocks(4)
	if len(blocks) != 1 || blocks[0].BornSegment != 0 {
		t.Fatalf("blocks after compaction = %+v, want one, born from no segment", blocks)
	}
	before := storeReads(stats)
	if got := selectCount(t, c, 4); got != 150 {
		t.Fatalf("%d rows after compaction, want 150", got)
	}
	if reads := storeReads(stats) - before; reads != 0 {
		t.Fatalf("reading the merged block made %d store reads, want 0", reads)
	}
}

// TestColdFanoutUnchanged: admission at commit did not change where a
// block is read. A cold full-history query over 24 blocks of one tenant
// — all born on the one worker that owns the tenant's shard — still
// spreads over the workers by the hash of each block's path, exactly
// the rule spelled out here, and touches no worker outside it.
func TestColdFanoutUnchanged(t *testing.T) {
	c, _ := handoffCluster(t)
	const blocks, perBlock = 24, 10
	for i := int64(0); i < blocks; i++ {
		if err := c.Append(rowsAt(c, 9, perBlock, 1_000+i*100)...); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	infos := c.TenantBlocks(9)
	if len(infos) != blocks {
		t.Fatalf("%d blocks, want %d", len(infos), blocks)
	}
	ids := c.WorkerIDs()
	wantBlocks := make(map[flow.WorkerID]int64)
	for _, b := range infos {
		h := fnv.New32a()
		h.Write([]byte(b.Path))
		wantBlocks[ids[int(h.Sum32())%len(ids)]]++
	}
	if len(wantBlocks) < 2 {
		t.Fatalf("24 paths hash onto %d worker(s); the test needs a spread", len(wantBlocks))
	}

	purgeCaches(c)
	misses := func(id flow.WorkerID) int64 {
		w, _ := c.Worker(id)
		_, m, _, _ := w.CacheStats()
		return m
	}
	before := make(map[flow.WorkerID]int64)
	for _, id := range ids {
		before[id] = misses(id)
	}
	if got := selectCount(t, c, 9); got != blocks*perBlock {
		t.Fatalf("%d rows, want %d", got, blocks*perBlock)
	}
	for _, id := range ids {
		// One cache block per object at this size: one miss per block read.
		if got := misses(id) - before[id]; got != wantBlocks[id] {
			t.Errorf("worker %d missed its block cache %d times, want %d (one per block the path hash sends it)",
				id, got, wantBlocks[id])
		}
	}
}
