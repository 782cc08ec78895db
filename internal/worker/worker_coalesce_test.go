package worker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// newMemWorker builds an in-memory replicated worker with the given
// coalescing settings.
func newMemWorker(t *testing.T, disabled bool, linger time.Duration) *Worker {
	return newMemWorkerCfg(t, Config{CoalesceDisabled: disabled, CoalesceLinger: linger})
}

// newMemWorkerCfg is newMemWorker for any coalescing fields of cfg.
func newMemWorkerCfg(t *testing.T, cfg Config) *Worker {
	t.Helper()
	cfg.ID = 1
	cfg.Replicas = 3
	cfg.ArchiveInterval = time.Hour // keep every row resident for the comparison
	cfg.RaftTick = 2 * time.Millisecond
	cfg.Builder = builder.Config{Table: "request_log"}
	w, err := New(cfg, schema.RequestLogSchema(), oss.NewMemStore(), meta.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// waitResident polls until the worker's resident row count reaches
// want; proposals ack at raft commit, apply is asynchronous.
func waitResident(t *testing.T, w *Worker, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if w.ResidentRows() >= want {
			if got := w.ResidentRows(); got != want {
				t.Fatalf("resident rows = %d, want %d", got, want)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("resident rows = %d after 10s, want %d", w.ResidentRows(), want)
}

// residentMultiset returns the worker's shard-0 rows as a multiset
// keyed by the row's rendered value.
func residentMultiset(t *testing.T, w *Worker) map[string]int {
	t.Helper()
	sh, err := w.shard(0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	sh.rs.Scan(func(r schema.Row) bool {
		out[fmt.Sprintf("%v", r)]++
		return true
	})
	return out
}

// splitByTenant cuts a client batch into its per-tenant sub-batches,
// tenants ascending, arrival order within one: the unit a broker hands a
// shard.
func splitByTenant(sch *schema.Schema, rows []schema.Row) [][]schema.Row {
	by := map[int64][]schema.Row{}
	var tenants []int64
	for _, r := range rows {
		t := r.Tenant(sch)
		if by[t] == nil {
			tenants = append(tenants, t)
		}
		by[t] = append(by[t], r)
	}
	slices.Sort(tenants)
	unit := make([][]schema.Row, len(tenants))
	for i, t := range tenants {
		unit[i] = by[t]
	}
	return unit
}

// TestCoalescedGroupsMatchIndividualProposals is the correctness
// property behind group commit: the same multi-tenant client batches,
// handed over as one unit each by concurrent writers on one worker and
// as strictly one proposal per tenant sub-batch on another
// (CoalesceDisabled), must leave both shards with identical row
// multisets, identical applied-row counts AND identical dedup id sets —
// grouping is an amortization of raft/WAL costs, never a semantic
// change.
func TestCoalescedGroupsMatchIndividualProposals(t *testing.T) {
	const (
		writers   = 8
		perWriter = 12
	)
	sch := schema.RequestLogSchema()
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: 40, Theta: 0.8, Seed: 42, StartMS: 1000,
	})
	rng := rand.New(rand.NewSource(42))
	units := make([][][]schema.Row, writers*perWriter)
	var subs, rows int
	for i := range units {
		units[i] = splitByTenant(sch, gen.Batch(1+rng.Intn(60)))
		subs += len(units[i])
		for _, sub := range units[i] {
			rows += len(sub)
		}
	}

	// A small linger widens the merge window so the concurrent writers
	// below reliably coalesce.
	coalesced := newMemWorker(t, false, 2*time.Millisecond)
	individual := newMemWorker(t, true, 0)
	for _, w := range []*Worker{coalesced, individual} {
		if err := w.AddShard(0); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()

	// Individual: one sub per proposal, strictly sequential.
	for i, u := range units {
		if err := individual.EnqueueAppend(ctx, 0, u).Wait(); err != nil {
			t.Fatalf("individual append %d: %v", i, err)
		}
	}

	// Coalesced: the same units from concurrent writers.
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := coalesced.EnqueueAppend(ctx, 0, units[wr*perWriter+i]).Wait(); err != nil {
					t.Errorf("coalesced append w%d/%d: %v", wr, i, err)
					return
				}
			}
		}(wr)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	waitResident(t, coalesced, int64(rows))
	waitResident(t, individual, int64(rows))

	// The coalescer must actually have merged units into groups —
	// otherwise this test silently degrades into sequential-vs-sequential
	// — and it counts subs, not units, as the batches it carried.
	groups, carried := coalesced.CoalesceStats()
	if carried != int64(subs) {
		t.Fatalf("coalescer carried %d batches, want %d", carried, subs)
	}
	if groups >= int64(len(units)) {
		t.Fatalf("no grouping observed: %d groups for %d units", groups, len(units))
	}
	t.Logf("coalesced %d subs of %d units into %d raft proposals (%.1fx)", carried, len(units), groups, float64(carried)/float64(groups))

	// Property 1: identical shard contents and applied-row counts, and
	// nothing suppressed or lost on either side.
	got := residentMultiset(t, coalesced)
	ref := residentMultiset(t, individual)
	if len(got) != len(ref) {
		t.Fatalf("distinct row count mismatch: coalesced %d, individual %d", len(got), len(ref))
	}
	for k, n := range ref {
		if got[k] != n {
			t.Fatalf("row %q: coalesced count %d, individual count %d", k, got[k], n)
		}
	}
	want := ApplyCounters{AppliedRows: int64(rows)}
	if ca, ia := coalesced.ApplyStats(), individual.ApplyStats(); ca != want || ia != want {
		t.Fatalf("apply counters: coalesced %+v, individual %+v, want %+v", ca, ia, want)
	}

	// Property 2: identical dedup id sets. Sub-proposal identity is the
	// content hash of the encoded batch, so regrouping must not change
	// which ids the replicas remember.
	cs, _ := coalesced.shard(0)
	is, _ := individual.shard(0)
	for i, u := range units {
		for _, sub := range u {
			bid := BatchID(EncodeBatch(sub))
			if !cs.seen.Contains(bid) {
				t.Fatalf("unit %d (bid %x) missing from coalesced dedup set", i, bid)
			}
			if !is.seen.Contains(bid) {
				t.Fatalf("unit %d (bid %x) missing from individual dedup set", i, bid)
			}
		}
	}
}

// TestSubProposalBytesGolden pins the wire format to the bytes the
// previous commit produced for the same rows: a raft WAL or shipped
// chunk written before multi-sub units existed must replay, and a batch
// retried across the upgrade must dedup, so neither a sub's bytes nor
// its content-derived id may move. The framed encoders must agree with
// the public ones byte for byte.
func TestSubProposalBytesGolden(t *testing.T) {
	rows := make([]schema.Row, 3)
	for i := range rows {
		rows[i] = schema.Row{
			schema.IntValue(7), schema.IntValue(int64(1700000000000 + i)),
			schema.StringValue(fmt.Sprintf("10.0.0.%d", i)), schema.StringValue("/api/v1/items"),
			schema.IntValue(int64(12 * (i + 1))), schema.StringValue("false"),
			schema.StringValue(fmt.Sprintf("GET /api/v1/items %d ok", i)),
		}
	}
	sub := AppendSubProposal(nil, rows)
	group := EncodeGroupProposal([][]byte{sub, sub})
	if len(sub) != 213 || BatchID(EncodeBatch(rows)) != 0x65b38308705bda84 ||
		BatchID(sub) != 0xb41ec965ae5b8c68 || BatchID(group) != 0xd7a30091a8424cfb {
		t.Fatalf("wire format moved: sub %d bytes, batch id %#x, sub hash %#x, group hash %#x",
			len(sub), BatchID(EncodeBatch(rows)), BatchID(sub), BatchID(group))
	}
	framed := appendFramedSub(appendFramedSub(nil, rows), rows)
	if got := encodeFramedGroup(2, framed); !bytes.Equal(got, group) {
		t.Fatalf("framed group differs from EncodeGroupProposal:\n%x\n%x", got, group)
	}
	half := len(framed) / 2
	if got := encodeFramedGroup(2, framed[:half], framed[half:]); !bytes.Equal(got, group) {
		t.Fatal("framed group of two chunks differs from EncodeGroupProposal")
	}
}

// TestCoalescerNeverSplitsUnit: the caps bound how many units a group
// gathers, never a unit itself. A unit above CoalesceMaxBatches or
// CoalesceMaxBytes ships whole and alone.
func TestCoalescerNeverSplitsUnit(t *testing.T) {
	unit := func(nsubs, size int) pendingUnit {
		return pendingUnit{framed: make([]byte, size), nsubs: nsubs}
	}
	sizes := func(g []pendingUnit) (out []int) {
		for _, u := range g {
			out = append(out, u.nsubs)
		}
		return out
	}
	// The policy alone, no flusher: caps of 4 subs and 100 bytes.
	c := &coalescer{maxSubs: 4, maxBytes: 100}
	c.pending = []pendingUnit{
		unit(2, 10), unit(2, 10), // fill the sub cap exactly
		unit(1, 10), unit(9, 10), // 9 > cap: not with the 1 before it
		unit(1, 10),              // nor with the 1 after
		unit(1, 60), unit(1, 60), // 120 bytes > cap: one each
		unit(1, 500), // oversize bytes: alone
	}
	for i, want := range [][]int{{2, 2}, {1}, {9}, {1, 1}, {1}, {1}} {
		if got := sizes(c.takeGroup()); !slices.Equal(got, want) {
			t.Fatalf("group %d = %v subs per unit, want %v", i, got, want)
		}
	}
	if len(c.pending) != 0 {
		t.Fatalf("%d units left queued", len(c.pending))
	}

	// Through a live shard: a 9-sub unit against a cap of 4 commits as
	// one proposal of 9 subs.
	w := newMemWorkerCfg(t, Config{CoalesceMaxBatches: 4, CoalesceMaxBytes: 64})
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 9, Theta: 0, Seed: 3, StartMS: 1000})
	var big [][]schema.Row
	for len(big) < 9 {
		big = splitByTenant(schema.RequestLogSchema(), gen.Batch(90))
	}
	if err := w.EnqueueAppend(context.Background(), 0, big).Wait(); err != nil {
		t.Fatal(err)
	}
	if groups, carried := w.CoalesceStats(); groups != 1 || carried != int64(len(big)) {
		t.Fatalf("oversize unit: %d proposals carrying %d subs, want 1 carrying %d", groups, carried, len(big))
	}
	waitResident(t, w, 90)
}

// TestEnqueueAppendContext: a dead context is refused before any raft
// work; a context that dies while the unit is in flight changes nothing
// — the wait is for the commit, the rows land, and the pooled ack
// channels and sub buffers the call used come back clean for the calls
// after it.
func TestEnqueueAppendContext(t *testing.T) {
	w := newMemWorker(t, false, 20*time.Millisecond)
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 5, Theta: 0, Seed: 11, StartMS: 1000})
	sch := schema.RequestLogSchema()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.EnqueueAppend(dead, 0, splitByTenant(sch, gen.Batch(30))).Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := w.AppendTrustedCtx(expired, 0, gen.Batch(30)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v, want context.DeadlineExceeded", err)
	}
	if groups, carried := w.CoalesceStats(); groups != 0 || carried != 0 {
		t.Fatalf("dead contexts reached raft: %d proposals, %d subs", groups, carried)
	}

	// Cancel while the flusher lingers over the queued unit.
	before := runtime.NumGoroutine()
	live, cancel3 := context.WithCancel(context.Background())
	p := w.EnqueueAppend(live, 0, splitByTenant(sch, gen.Batch(30)))
	cancel3()
	if err := p.Wait(); err != nil {
		t.Fatalf("cancelled mid-wait: err = %v, want the commit's nil", err)
	}
	total := int64(30)
	for i := 0; i < 40; i++ {
		n := 1 + i%7
		if err := w.AppendTrustedCtx(context.Background(), 0, gen.Batch(n)); err != nil {
			t.Fatalf("append %d after the cancelled wait: %v", i, err)
		}
		total += int64(n)
	}
	waitResident(t, w, total)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the cancelled wait, %d after", before, after)
	}
}

// TestCoalescerRetrySuppression re-appends a batch that already went
// through a coalesced group and expects the duplicate to be dropped by
// the per-sub dedup id, exactly as it would be for a solo proposal.
func TestCoalescerRetrySuppression(t *testing.T) {
	w := newMemWorker(t, false, 0)
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 2, Theta: 0, Seed: 7, StartMS: 1000})
	rows := gen.Batch(50)
	if err := w.Append(0, rows); err != nil {
		t.Fatal(err)
	}
	waitResident(t, w, 50)
	// A client-level retry of the identical batch: acked, not re-applied.
	if err := w.Append(0, rows); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n := w.ResidentRows(); n != 50 {
			t.Fatalf("retry re-applied: resident rows = %d, want 50", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
