package logstore

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"logstore/internal/oss"
	"logstore/internal/workload"
)

// TestChaosClusterEndToEnd runs the full ingest→archive→query cycle on
// a live cluster whose object store fails 5% of Puts and 5% of Gets.
// The background archive loop, the builder's idempotent commits, and
// the retrying store have to absorb every injected fault: at the end,
// per-tenant query counts must equal appended counts (zero lost rows,
// zero duplicates), every stored LogBlock must be registered (zero
// orphaned visible blocks), and the circuit breaker must be closed
// once the store heals.
func TestChaosClusterEndToEnd(t *testing.T) {
	const (
		tenants   = 8
		batches   = 6
		batchRows = 400
		faultRate = 0.05
	)
	mem := oss.NewMemStore()
	flaky := oss.NewFlakyStore(mem, faultRate, faultRate, 2024)
	cfg := fastConfig()
	cfg.Store = flaky
	c := openCluster(t, cfg)
	sch := c.TableSchema()

	g := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: tenants, Theta: 0.6, Seed: 11, StartMS: 1000,
	})
	appended := make(map[int64]int64)
	for i := 0; i < batches; i++ {
		rows := g.Batch(batchRows)
		for _, r := range rows {
			appended[r.Tenant(sch)]++
		}
		if err := c.Append(rows...); err != nil {
			t.Fatal(err)
		}
		// Interleave best-effort reads with the faulty archive traffic;
		// under a 5% fault rate a retried query should still succeed.
		q := fmt.Sprintf("SELECT COUNT(*) FROM request_log WHERE tenant_id = %d AND ts >= 0 AND ts <= 99999999999", i%tenants)
		if _, err := c.Query(q); err != nil {
			t.Logf("query during chaos (tolerated): %v", err)
		}
	}

	// Drain everything to OSS while faults are still firing.
	if err := c.Flush(); err != nil {
		t.Fatalf("flush under chaos: %v", err)
	}
	if resident := c.WaitForArchive(20 * time.Second); resident != 0 {
		t.Fatalf("%d rows still unarchived under chaos", resident)
	}
	if merged, err := c.CompactNow(0); err != nil {
		t.Logf("compact under chaos (tolerated): %v", err)
	} else if merged == 0 {
		t.Log("compaction found nothing to merge")
	}

	// Heal, then assert exact end-to-end accounting from LogBlocks.
	flaky.SetRates(0, 0)
	var total int64
	for tenant, want := range appended {
		total += want
		q := fmt.Sprintf("SELECT COUNT(*) FROM request_log WHERE tenant_id = %d AND ts >= 0 AND ts <= 99999999999", tenant)
		res, err := c.Query(q)
		if err != nil {
			t.Fatalf("tenant %d query after heal: %v", tenant, err)
		}
		if res.Count != want {
			t.Errorf("tenant %d count = %d, want %d (lost or duplicated rows)", tenant, res.Count, want)
		}
		usage, _ := c.TenantUsage(tenant)
		if usage != want {
			t.Errorf("tenant %d catalog rows = %d, want %d", tenant, usage, want)
		}
	}

	// Zero orphaned visible blocks: catalog paths all exist; registered
	// set covers every stored LogBlock once orphans are swept by a
	// drain-idle pipeline. (Crash-window orphans are invisible by
	// construction; here we only require catalog ⊆ store.)
	registered := make(map[string]bool)
	for tenant := range appended {
		for _, blk := range c.TenantBlocks(tenant) {
			if registered[blk.Path] {
				t.Errorf("block %s registered twice", blk.Path)
			}
			registered[blk.Path] = true
			if _, err := mem.Head(blk.Path); err != nil {
				t.Errorf("catalog references missing object %s: %v", blk.Path, err)
			}
		}
	}
	infos, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, info := range infos {
		if strings.HasSuffix(info.Key, ".tar") {
			stored++
		}
	}
	if stored < len(registered) {
		t.Errorf("store holds %d LogBlocks but catalog registers %d", stored, len(registered))
	}

	if flaky.InjectedFailures() == 0 {
		t.Error("chaos run injected no faults")
	}
	t.Logf("cluster chaos: %d rows, %d blocks, %d injected faults",
		total, len(registered), flaky.InjectedFailures())

	// The catalog checkpoint crosses the same faulty store: Close writes
	// it and a reopen recovers the catalog from it, both at the fault
	// rate and with the first Put and the first read after the heal
	// (the checkpoint's upload and the reopen's probe for it) failing,
	// and every tenant's rows must still be there exactly once.
	flaky.SetRates(faultRate, faultRate)
	flaky.FailNextPuts(1)
	flaky.FailNextGets(1)
	faults := flaky.InjectedFailures()
	c.Close()
	c = openCluster(t, cfg)
	for tenant, want := range appended {
		q := fmt.Sprintf("SELECT COUNT(*) FROM request_log WHERE tenant_id = %d AND ts >= 0 AND ts <= 99999999999", tenant)
		res, err := c.Query(q)
		if err != nil {
			t.Fatalf("tenant %d query after reopen under faults: %v", tenant, err)
		}
		if res.Count != want {
			t.Errorf("tenant %d count after reopen = %d, want %d", tenant, res.Count, want)
		}
	}
	if n := flaky.InjectedFailures() - faults; n < 2 {
		t.Errorf("close and reopen injected %d faults, want at least 2", n)
	}
}
