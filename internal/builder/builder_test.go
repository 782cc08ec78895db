package builder_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/logblock"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/retry"
	"logstore/internal/rowstore"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// fastRetry keeps failure-path tests quick.
func fastRetry() retry.Policy {
	return retry.Policy{
		MaxAttempts:    4,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		Seed:           11,
		Classify:       oss.ClassifyError,
	}
}

func newBuilder(t *testing.T, cfg builder.Config, store oss.Store) (*builder.Builder, *meta.Manager) {
	t.Helper()
	catalog := meta.NewManager()
	b, err := builder.New(cfg, schema.RequestLogSchema(), store, catalog)
	if err != nil {
		t.Fatal(err)
	}
	return b, catalog
}

func newRowStore(t *testing.T) *rowstore.Store {
	t.Helper()
	rs, err := rowstore.New(schema.RequestLogSchema(), rowstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// genRows produces a deterministic batch and its per-tenant row counts.
func genRows(t *testing.T, n, tenants int, seed int64) ([]schema.Row, map[int64]int) {
	t.Helper()
	g := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: tenants, Theta: 0, Seed: seed, StartMS: 1000,
	})
	rows := g.Batch(n)
	tIdx := schema.RequestLogSchema().TenantIdx()
	perTenant := make(map[int64]int)
	for _, r := range rows {
		perTenant[r[tIdx].I]++
	}
	return rows, perTenant
}

func catalogRows(catalog *meta.Manager, tenant int64) int64 {
	rows, _ := catalog.Usage(tenant)
	return rows
}

func TestDrainStoreArchivesAllTenants(t *testing.T) {
	mem := oss.NewMemStore()
	b, catalog := newBuilder(t, builder.Config{}, mem)
	rs := newRowStore(t)
	rows, perTenant := genRows(t, 300, 3, 7)
	if err := rs.Append(rows...); err != nil {
		t.Fatal(err)
	}

	n, err := b.DrainStore(rs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(perTenant) {
		t.Errorf("committed %d blocks, want one per tenant = %d", n, len(perTenant))
	}
	if sealed := rs.Sealed(); len(sealed) != 0 {
		t.Errorf("%d segments not released after drain", len(sealed))
	}
	for tenant, want := range perTenant {
		if got := catalogRows(catalog, tenant); got != int64(want) {
			t.Errorf("tenant %d archived rows = %d, want %d", tenant, got, want)
		}
		for _, blk := range catalog.Blocks(tenant) {
			data, err := mem.Get(blk.Path)
			if err != nil {
				t.Fatalf("registered block %s missing from store: %v", blk.Path, err)
			}
			r, err := logblock.OpenReader(logblock.BytesFetcher(data))
			if err != nil {
				t.Fatalf("open %s: %v", blk.Path, err)
			}
			got, err := r.AllRows()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != int(blk.Rows) {
				t.Errorf("%s holds %d rows, catalog says %d", blk.Path, len(got), blk.Rows)
			}
		}
	}
	blocks, archived, _ := b.Stats()
	if blocks != int64(n) || archived != int64(len(rows)) {
		t.Errorf("stats = %d blocks %d rows, want %d/%d", blocks, archived, n, len(rows))
	}
}

func TestDrainStoreChunksByMaxRows(t *testing.T) {
	mem := oss.NewMemStore()
	b, catalog := newBuilder(t, builder.Config{MaxRowsPerBlock: 10}, mem)
	rs := newRowStore(t)
	rows, _ := genRows(t, 35, 1, 3)
	if err := rs.Append(rows...); err != nil {
		t.Fatal(err)
	}
	n, err := b.DrainStore(rs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("35 rows at 10/block committed %d blocks, want 4", n)
	}
	blocks := catalog.Blocks(0)
	if len(blocks) != 4 {
		t.Fatalf("catalog holds %d blocks", len(blocks))
	}
	// Chronological, non-overlapping coverage.
	for i := 1; i < len(blocks); i++ {
		if blocks[i].MinTS < blocks[i-1].MaxTS {
			t.Errorf("blocks %d/%d overlap in time", i-1, i)
		}
	}
}

func TestDrainStoreEmpty(t *testing.T) {
	b, _ := newBuilder(t, builder.Config{}, oss.NewMemStore())
	rs := newRowStore(t)
	if n, err := b.DrainStore(rs); err != nil || n != 0 {
		t.Errorf("empty drain = %d, %v", n, err)
	}
}

// TestRedrainAlreadyRegisteredIsDeduped covers a crash after catalog
// registration but before the segment was released: the re-drain must
// recognize the content-addressed keys and commit nothing new.
func TestRedrainAlreadyRegisteredIsDeduped(t *testing.T) {
	mem := oss.NewMemStore()
	b, catalog := newBuilder(t, builder.Config{}, mem)
	rows, perTenant := genRows(t, 200, 3, 5)

	// bornFrom checks that every catalog entry names segment id.
	bornFrom := func(id uint64) {
		t.Helper()
		for tenant := range perTenant {
			for _, blk := range catalog.Blocks(tenant) {
				if blk.BornSegment != id {
					t.Errorf("block %s born from segment %d, want %d", blk.Path, blk.BornSegment, id)
				}
			}
		}
	}

	rs1 := newRowStore(t)
	if err := rs1.Append(rows...); err != nil {
		t.Fatal(err)
	}
	seg1 := rs1.Seal().ID
	n1, err := b.DrainStore(rs1)
	if err != nil {
		t.Fatal(err)
	}
	bornFrom(seg1)
	objects, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}

	// Same rows in a "recovered" segment — as if Release never happened.
	// The rows are in that segment now, and the entries must say so, or
	// a query would count them in the segment and in the block.
	rs2 := newRowStore(t)
	if err := rs2.Append(rows...); err != nil {
		t.Fatal(err)
	}
	seg2 := rs2.Seal().ID
	n2, err := b.DrainStore(rs2)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Errorf("re-drain committed %d new blocks, want 0", n2)
	}
	if seg2 == seg1 {
		t.Fatalf("two stores numbered a segment %d", seg1)
	}
	bornFrom(seg2)
	if _, _, skips := b.Stats(); skips < int64(n1) {
		t.Errorf("dedupSkips = %d, want >= %d", skips, n1)
	}
	after, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(objects) {
		t.Errorf("re-drain grew store from %d to %d objects", len(objects), len(after))
	}
	for tenant, want := range perTenant {
		if got := catalogRows(catalog, tenant); got != int64(want) {
			t.Errorf("tenant %d rows double-counted: %d, want %d", tenant, got, want)
		}
	}
}

// TestRedrainUploadedButUnregistered covers a crash between upload and
// registration: the object exists, the catalog entry does not. The
// re-drain must skip the upload (Head dedup) yet still register.
func TestRedrainUploadedButUnregistered(t *testing.T) {
	mem := oss.NewMemStore()
	rows, perTenant := genRows(t, 150, 2, 9)

	// First builder uploads + registers into a throwaway catalog,
	// leaving the objects on the shared store — exactly the state after
	// a crash that lost the (unregistered) catalog delta.
	b1, _ := newBuilder(t, builder.Config{}, mem)
	rs1 := newRowStore(t)
	if err := rs1.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.DrainStore(rs1); err != nil {
		t.Fatal(err)
	}
	objects, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}

	b2, catalog2 := newBuilder(t, builder.Config{}, mem)
	rs2 := newRowStore(t)
	if err := rs2.Append(rows...); err != nil {
		t.Fatal(err)
	}
	n, err := b2.DrainStore(rs2)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(perTenant) {
		t.Errorf("recovery drain registered %d blocks, want %d", n, len(perTenant))
	}
	if _, _, skips := b2.Stats(); skips != int64(len(perTenant)) {
		t.Errorf("upload dedup skips = %d, want %d", skips, len(perTenant))
	}
	after, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(objects) {
		t.Errorf("recovery re-uploaded: %d -> %d objects", len(objects), len(after))
	}
	for tenant, want := range perTenant {
		if got := catalogRows(catalog2, tenant); got != int64(want) {
			t.Errorf("tenant %d rows = %d, want %d", tenant, got, want)
		}
	}
}

// TestHandoffBetweenUploadAndRegister: every committed LogBlock — drained
// or merged — is offered to Config.Handoff exactly once, with the bytes
// the store holds under its key, after the upload and before the catalog
// makes the key visible; a block the catalog already holds is not.
func TestHandoffBetweenUploadAndRegister(t *testing.T) {
	mem := oss.NewMemStore()
	var catalog *meta.Manager
	offered := map[string]int{}
	b, catalog := newBuilder(t, builder.Config{Handoff: func(key string, packed []byte) {
		offered[key]++
		stored, err := mem.Get(key)
		if err != nil || !bytes.Equal(stored, packed) {
			t.Errorf("hand-off of %s: store holds %d bytes (%v), offered %d", key, len(stored), err, len(packed))
		}
		if _, visible := catalog.Lookup(key); visible {
			t.Errorf("hand-off of %s after it became visible", key)
		}
	}}, mem)
	drain := func(rows []schema.Row) {
		t.Helper()
		rs := newRowStore(t)
		if err := rs.Append(rows...); err != nil {
			t.Fatal(err)
		}
		if _, err := b.DrainStore(rs); err != nil {
			t.Fatal(err)
		}
	}
	first, _ := genRows(t, 120, 1, 21)
	second, _ := genRows(t, 120, 1, 22)
	drain(first)
	drain(first) // deduplicated: nothing to hand off
	drain(second)
	if len(offered) != 2 {
		t.Fatalf("%d keys offered after two distinct drains, want 2", len(offered))
	}
	if merged, err := b.CompactTenant(0, 0); err != nil || merged != 2 {
		t.Fatalf("CompactTenant = %d, %v; want 2", merged, err)
	}
	blocks := catalog.Blocks(0)
	if len(blocks) != 1 || offered[blocks[0].Path] != 1 || len(offered) != 3 {
		t.Fatalf("after compaction: blocks %+v, offered %v; want the merged block offered once", blocks, offered)
	}
	for key, n := range offered {
		if n != 1 {
			t.Errorf("%s offered %d times", key, n)
		}
	}
}

// TestDrainFailureKeepsSegmentSealed: an exhausted upload leaves the
// segment sealed in the row store; a later drain retries it and loses
// nothing.
func TestDrainFailureKeepsSegmentSealed(t *testing.T) {
	mem := oss.NewMemStore()
	flaky := oss.NewFlakyStore(mem, 0, 0, 1)
	b, catalog := newBuilder(t, builder.Config{}, oss.WithRetry(flaky, fastRetry()))
	rs := newRowStore(t)
	rows, perTenant := genRows(t, 100, 2, 13)
	if err := rs.Append(rows...); err != nil {
		t.Fatal(err)
	}

	flaky.FailNextPuts(1000) // outlast every retry attempt
	if _, err := b.DrainStore(rs); err == nil {
		t.Fatal("drain succeeded through a dead store")
	} else if !errors.Is(err, oss.ErrThrottled) {
		t.Fatalf("err = %v, want wrapped ErrThrottled", err)
	}
	if len(rs.Sealed()) == 0 {
		t.Fatal("failed segment was released")
	}

	flaky.FailNextPuts(0) // heal
	n, err := b.DrainStore(rs)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("healed drain committed nothing")
	}
	if len(rs.Sealed()) != 0 {
		t.Error("segment not released after successful drain")
	}
	var total int64
	for tenant, want := range perTenant {
		got := catalogRows(catalog, tenant)
		total += got
		if got != int64(want) {
			t.Errorf("tenant %d rows = %d, want %d", tenant, got, want)
		}
	}
	if total != int64(len(rows)) {
		t.Errorf("archived %d rows total, want %d", total, len(rows))
	}
}

func TestCompactTenantMergesSmallBlocks(t *testing.T) {
	mem := oss.NewMemStore()
	b, catalog := newBuilder(t, builder.Config{MaxRowsPerBlock: 40}, mem)
	rs := newRowStore(t)
	rows, _ := genRows(t, 200, 1, 21)
	if err := rs.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DrainStore(rs); err != nil {
		t.Fatal(err)
	}
	before := catalog.Blocks(0)
	if len(before) != 5 {
		t.Fatalf("setup produced %d blocks, want 5", len(before))
	}

	merged, err := b.CompactTenant(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 5 {
		t.Errorf("merged %d source blocks, want 5", merged)
	}
	after := catalog.Blocks(0)
	if len(after) != 1 {
		t.Fatalf("catalog holds %d blocks after compact, want 1", len(after))
	}
	if got := catalogRows(catalog, 0); got != int64(len(rows)) {
		t.Errorf("rows after compact = %d, want %d", got, len(rows))
	}
	// Sources gone from the store, merged block readable with all rows.
	infos, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Errorf("store holds %d objects after compact, want 1", len(infos))
	}
	data, err := mem.Get(after[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := logblock.OpenReader(logblock.BytesFetcher(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Errorf("merged block holds %d rows, want %d", len(got), len(rows))
	}

	// Idempotent: nothing left to merge.
	if again, err := b.CompactTenant(0, 1000); err != nil || again != 0 {
		t.Errorf("second compact = %d, %v, want 0, nil", again, err)
	}
}

func TestCompactTenantRespectsTarget(t *testing.T) {
	mem := oss.NewMemStore()
	b, catalog := newBuilder(t, builder.Config{MaxRowsPerBlock: 40}, mem)
	rs := newRowStore(t)
	rows, _ := genRows(t, 200, 1, 23)
	if err := rs.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DrainStore(rs); err != nil {
		t.Fatal(err)
	}
	// Target of 80 rows: five 40-row blocks pair up 2+2, leaving the
	// last alone (runs of one are not worth rewriting).
	merged, err := b.CompactTenant(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 4 {
		t.Errorf("merged %d blocks, want 4", merged)
	}
	after := catalog.Blocks(0)
	if len(after) != 3 {
		t.Errorf("catalog holds %d blocks, want 3 (80+80+40)", len(after))
	}
	if got := catalogRows(catalog, 0); got != int64(len(rows)) {
		t.Errorf("rows = %d, want %d", got, len(rows))
	}
}

func TestSweepOrphans(t *testing.T) {
	mem := oss.NewMemStore()
	b, catalog := newBuilder(t, builder.Config{}, mem)
	rs := newRowStore(t)
	rows, _ := genRows(t, 50, 1, 31)
	if err := rs.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DrainStore(rs); err != nil {
		t.Fatal(err)
	}

	// An unregistered LogBlock (crash between upload and register), and
	// a non-LogBlock object that must never be touched.
	orphan := meta.TenantPrefix(b.Table(), 0) + "logblock-0000000000000001-00000000deadbeef.tar"
	if err := mem.Put(orphan, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	checkpoint := b.Table() + "/checkpoint.json"
	if err := mem.Put(checkpoint, []byte("{}")); err != nil {
		t.Fatal(err)
	}

	deleted, err := b.SweepOrphans()
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 1 {
		t.Errorf("swept %d objects, want 1", deleted)
	}
	if _, err := mem.Get(orphan); !errors.Is(err, oss.ErrNotFound) {
		t.Error("orphan survived the sweep")
	}
	if _, err := mem.Get(checkpoint); err != nil {
		t.Error("sweep deleted a non-LogBlock object")
	}
	for _, blk := range catalog.Blocks(0) {
		if _, err := mem.Get(blk.Path); err != nil {
			t.Errorf("sweep deleted registered block %s", blk.Path)
		}
	}
}

func TestBuilderKeysAreTenantScoped(t *testing.T) {
	mem := oss.NewMemStore()
	b, catalog := newBuilder(t, builder.Config{}, mem)
	rs := newRowStore(t)
	rows, perTenant := genRows(t, 120, 4, 17)
	if err := rs.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DrainStore(rs); err != nil {
		t.Fatal(err)
	}
	for tenant := range perTenant {
		for _, blk := range catalog.Blocks(tenant) {
			if want := meta.TenantPrefix(b.Table(), tenant); !strings.HasPrefix(blk.Path, want) {
				t.Errorf("block %s outside tenant prefix %s", blk.Path, want)
			}
		}
	}
}

func TestNewValidates(t *testing.T) {
	sch := schema.RequestLogSchema()
	store := oss.NewMemStore()
	catalog := meta.NewManager()
	if _, err := builder.New(builder.Config{}, nil, store, catalog); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := builder.New(builder.Config{}, sch, nil, catalog); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := builder.New(builder.Config{}, sch, store, nil); err == nil {
		t.Error("nil catalog accepted")
	}
	b, err := builder.New(builder.Config{}, sch, store, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if b.Table() != sch.Name {
		t.Errorf("default table = %q, want %q", b.Table(), sch.Name)
	}
}

// BenchmarkDrainStore is the archive rung of the write-path ladder: one
// drain of a row store filled from recorded 200-row zipfian client
// batches (1000 tenants, θ 0.99 — a few hot tenants with blocks of
// thousands of rows and a long tail of blocks of a handful) into a
// MemStore. Beside ns/op it reports the per-row cost and the bytes put
// per user byte, which is where per-block framing shows.
func BenchmarkDrainStore(b *testing.B) {
	const batches, batchRows = 100, 200
	sch := schema.RequestLogSchema()
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1000, Theta: 0.99, Seed: 15})
	recorded := make([][]schema.Row, batches)
	var userBytes int64
	for i := range recorded {
		recorded[i] = g.Batch(batchRows)
		for _, r := range recorded[i] {
			userBytes += int64(r.Size())
		}
	}
	var putBytes, mallocs uint64
	var ms runtime.MemStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rs, err := rowstore.New(sch, rowstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range recorded {
			if err := rs.Append(batch...); err != nil {
				b.Fatal(err)
			}
		}
		catalog := meta.NewManager()
		bld, err := builder.New(builder.Config{}, sch, oss.NewMemStore(), catalog)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		if _, err := bld.DrainStore(rs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		putBytes = 0
		for _, tenant := range catalog.Tenants() {
			_, bytes := catalog.Usage(tenant)
			putBytes += uint64(bytes)
		}
		rs.Close()
		b.StartTimer()
	}
	rows := float64(b.N * batches * batchRows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(mallocs)/rows, "allocs/row")
	b.ReportMetric(float64(putBytes)/float64(userBytes), "packedB/userB")
}
