package builder_test

import (
	"strings"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/logblock"
	"logstore/internal/oss"
	"logstore/internal/retry"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// chaosRetry: enough attempts that a 5% fault rate essentially never
// exhausts an operation (0.05^6 ≈ 1.6e-8), with millisecond backoff so
// the test stays fast.
func chaosRetry() retry.Policy {
	return retry.Policy{
		MaxAttempts:    6,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     4 * time.Millisecond,
		Seed:           101,
		Classify:       oss.ClassifyError,
	}
}

// TestChaosArchivePipeline runs repeated ingest→drain→compact→sweep
// cycles against a store failing 5% of Puts and 5% of Gets, then
// asserts the pipeline's core invariants:
//
//   - zero lost rows: every appended row is queryable from exactly one
//     registered LogBlock;
//   - zero duplicates: per-tenant archived row counts equal appended
//     counts exactly (content-addressed commits never double-register);
//   - zero orphaned visible blocks: every catalog path exists on the
//     store, and after a sweep every stored LogBlock is in the catalog;
//   - bounded retries: faults were actually retried, and the breaker is
//     closed once the store heals (it never wedges open).
func TestChaosArchivePipeline(t *testing.T) {
	const (
		rounds    = 12
		batchRows = 120
		tenants   = 5
		faultRate = 0.05
	)
	mem := oss.NewMemStore()
	flaky := oss.NewFlakyStore(mem, faultRate, faultRate, 42)
	store := oss.WithRetry(flaky, chaosRetry())
	b, catalog := newBuilder(t, builder.Config{
		MaxRowsPerBlock: 50, // small blocks: more commits, more fault windows
	}, store)
	rs := newRowStore(t)
	sch := schema.RequestLogSchema()
	g := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: tenants, Theta: 0.4, Seed: 9, StartMS: 1000,
	})

	appended := make(map[int64]int64)
	for round := 0; round < rounds; round++ {
		rows := g.Batch(batchRows)
		for _, r := range rows {
			appended[r[sch.TenantIdx()].I]++
		}
		if err := rs.Append(rows...); err != nil {
			t.Fatal(err)
		}
		// A drain that exhausts its retries leaves the segment sealed;
		// the next round's drain picks it up again — that is the
		// recovery path under test, not a failure.
		if _, err := b.DrainStore(rs); err != nil {
			t.Logf("round %d drain (retrying next round): %v", round, err)
		}
		if round%4 == 3 {
			for tenant := range appended {
				if _, err := b.CompactTenant(tenant, 200); err != nil {
					t.Logf("round %d compact tenant %d: %v", round, tenant, err)
				}
			}
			if _, err := b.SweepOrphans(); err != nil {
				t.Logf("round %d sweep: %v", round, err)
			}
		}
	}

	// Heal the store and finish the pipeline: every sealed segment must
	// drain, and the breaker must admit traffic again.
	flaky.SetRates(0, 0)
	deadline := time.Now().Add(10 * time.Second)
	for len(rs.Sealed()) > 0 || func() bool { r, _, _ := rs.Stats(); return r > 0 }() {
		if _, err := b.DrainStore(rs); err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("pipeline never drained after heal: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if _, err := b.SweepOrphans(); err != nil {
		t.Fatal(err)
	}

	// Zero lost rows, zero duplicates: catalog row accounting matches
	// the appended counts exactly, and the blocks really hold the rows.
	var totalAppended, totalArchived int64
	for tenant, want := range appended {
		totalAppended += want
		rows, _ := catalog.Usage(tenant)
		totalArchived += rows
		if rows != want {
			t.Errorf("tenant %d archived %d rows, appended %d", tenant, rows, want)
		}
		var read int64
		for _, blk := range catalog.Blocks(tenant) {
			data, err := store.Get(blk.Path)
			if err != nil {
				t.Fatalf("registered block %s unreadable: %v", blk.Path, err)
			}
			r, err := logblock.OpenReader(logblock.BytesFetcher(data))
			if err != nil {
				t.Fatalf("open %s: %v", blk.Path, err)
			}
			all, err := r.AllRows()
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(all)) != blk.Rows {
				t.Errorf("%s holds %d rows, catalog says %d", blk.Path, len(all), blk.Rows)
			}
			read += int64(len(all))
		}
		if read != want {
			t.Errorf("tenant %d readable rows = %d, want %d", tenant, read, want)
		}
	}
	if totalArchived != totalAppended {
		t.Errorf("archived %d rows total, appended %d", totalArchived, totalAppended)
	}

	// Zero orphaned visible blocks: after the sweep, store contents and
	// catalog agree exactly.
	registered := make(map[string]bool)
	for _, tenant := range catalog.Tenants() {
		for _, blk := range catalog.Blocks(tenant) {
			registered[blk.Path] = true
		}
	}
	infos, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, info := range infos {
		if !strings.HasSuffix(info.Key, ".tar") {
			continue
		}
		stored++
		if !registered[info.Key] {
			t.Errorf("orphan object survived sweep: %s", info.Key)
		}
	}
	if stored != len(registered) {
		t.Errorf("store holds %d LogBlocks, catalog registers %d", stored, len(registered))
	}

	// Bounded retries; the breaker healed.
	attempts, retries, _ := store.RetryStats()
	if retries == 0 {
		t.Error("chaos run exercised no retries — fault injection broken?")
	}
	if attempts > 40*int64(rounds*tenants)*int64(chaosRetry().MaxAttempts) {
		t.Errorf("retry volume unbounded: %d attempts", attempts)
	}
	if open, _ := store.Breaker().State(); open {
		t.Error("breaker still open after store healed")
	}
	if flaky.InjectedFailures() == 0 {
		t.Error("no faults injected")
	}
	t.Logf("chaos: %d rows, %d blocks, %d attempts, %d retries, %d injected faults, %d breaker opens",
		totalAppended, len(registered), attempts, retries, flaky.InjectedFailures(), store.Breaker().Opens())
}
