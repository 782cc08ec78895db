package logstore

import (
	"os"
	"strings"
	"testing"
	"time"

	"logstore/internal/meta"
	"logstore/internal/workload"
)

func TestClusterCompaction(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxSegmentRows = 100 // many tiny segments -> many tiny blocks
	c := openCluster(t, cfg)
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 2, Theta: 0, Seed: 11, StartMS: 1000})
	if err := c.Append(g.Batch(1000)...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if left := c.WaitForArchive(5 * time.Second); left != 0 {
		t.Fatal("not archived")
	}
	before := len(c.TenantBlocks(0)) + len(c.TenantBlocks(1))
	if before < 4 {
		t.Fatalf("setup produced only %d blocks", before)
	}
	countQuery := "SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0 AND ts <= 99999999"
	resBefore, err := c.Query(countQuery)
	if err != nil {
		t.Fatal(err)
	}

	merged, err := c.CompactNow(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if merged == 0 {
		t.Fatal("nothing compacted")
	}
	after := len(c.TenantBlocks(0)) + len(c.TenantBlocks(1))
	if after >= before {
		t.Fatalf("blocks: %d -> %d", before, after)
	}
	// Queries see identical data through the compacted layout.
	resAfter, err := c.Query(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if resAfter.Count != resBefore.Count {
		t.Fatalf("count changed by compaction: %d -> %d", resBefore.Count, resAfter.Count)
	}
}

// TestClusterRewriteLegacy upgrades a cluster in place: a tar of an
// older release sits in its catalog. Queries over it fail with an
// error that names the rewrite; RewriteLegacy packs it again, after
// which the same query counts its rows, and a second run finds nothing
// left to rewrite.
func TestClusterRewriteLegacy(t *testing.T) {
	c := openCluster(t, fastConfig())
	obj, err := os.ReadFile("internal/logblock/testdata/four_member.tar")
	if err != nil {
		t.Fatal(err)
	}
	const tenant = 9 // the fixture holds 12 rows of tenant 9, ts 5000..5005
	key := meta.TenantPrefix(c.sch.Name, tenant) + "logblock-legacy.tar"
	if err := c.store.Put(key, obj); err != nil {
		t.Fatal(err)
	}
	if err := c.catalog.Register(meta.BlockInfo{Tenant: tenant, Path: key, MinTS: 5000, MaxTS: 5005, Rows: 12, Bytes: int64(len(obj))}); err != nil {
		t.Fatal(err)
	}
	const count = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 9 AND ts >= 0 AND ts <= 99999 AND latency >= 0"
	if _, err := c.Query(count); err == nil || !strings.Contains(err.Error(), "Cluster.RewriteLegacy") {
		t.Fatalf("query over a tar: %v, want an error naming the rewrite", err)
	}
	if n, err := c.RewriteLegacy(); err != nil || n != 1 {
		t.Fatalf("RewriteLegacy rewrote %d blocks, %v; want 1", n, err)
	}
	res, err := c.Query(count)
	if err != nil || res.Count != 12 {
		t.Fatalf("query after the rewrite: %+v, %v; want 12 rows", res, err)
	}
	if n, err := c.RewriteLegacy(); err != nil || n != 0 {
		t.Fatalf("a second RewriteLegacy rewrote %d blocks, %v; want 0", n, err)
	}
}
