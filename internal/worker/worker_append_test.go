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
	"sync/atomic"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/raft"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// newMemWorker builds a worker with in-memory raft logs; cfg carries
// what a test wants different (a raft tick, queue bounds).
func newMemWorker(t *testing.T, cfg Config) *Worker {
	t.Helper()
	cfg.ID = 1
	cfg.ArchiveInterval = time.Hour // keep every row resident for the comparison
	if cfg.RaftTick == 0 {
		cfg.RaftTick = 2 * time.Millisecond
	}
	cfg.Builder = builder.Config{Table: "request_log"}
	w, err := New(cfg, schema.RequestLogSchema(), oss.NewMemStore(), meta.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.AddShard(0); err != nil {
		t.Fatal(err)
	}
	return w
}

// waitResident polls until the worker's resident row count reaches
// want; an ack waits for the apply only up to a bound.
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

// TestUnitMatchesIndividualAppends is the correctness property behind
// one proposal per shard: the same multi-tenant client batches, handed
// over as one unit each by concurrent writers on one worker and, on
// another, tenant sub-batch by tenant sub-batch through the same entry
// point, must leave both shards with identical row multisets, identical
// applied-row counts AND identical dedup id sets — how many subs share a
// raft entry is an amortization of raft/WAL costs, never a semantic
// change.
func TestUnitMatchesIndividualAppends(t *testing.T) {
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

	grouped := newMemWorker(t, Config{})
	individual := newMemWorker(t, Config{})
	ctx := context.Background()

	// Individual: one sub per call, strictly sequential.
	for i, u := range units {
		for _, sub := range u {
			if err := individual.AppendTrustedCtx(ctx, 0, sub); err != nil {
				t.Fatalf("individual append %d: %v", i, err)
			}
		}
	}

	// Grouped: the same units from concurrent writers.
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := grouped.EnqueueAppend(ctx, 0, units[wr*perWriter+i]).Wait(); err != nil {
					t.Errorf("grouped append w%d/%d: %v", wr, i, err)
					return
				}
			}
		}(wr)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	waitResident(t, grouped, int64(rows))
	waitResident(t, individual, int64(rows))

	// A unit is one proposal and a lone sub is one proposal: the two
	// sides really did cut the same subs into raft entries differently.
	if g, carried := grouped.CoalesceStats(); g != int64(len(units)) || carried != int64(subs) {
		t.Fatalf("grouped: %d proposals carrying %d subs, want %d carrying %d", g, carried, len(units), subs)
	}
	if g, carried := individual.CoalesceStats(); g != int64(subs) || carried != int64(subs) {
		t.Fatalf("individual: %d proposals carrying %d subs, want %d of one sub each", g, carried, subs)
	}

	// Property 1: identical shard contents and applied-row counts, and
	// nothing suppressed or lost on either side.
	got := residentMultiset(t, grouped)
	ref := residentMultiset(t, individual)
	if len(got) != len(ref) {
		t.Fatalf("distinct row count mismatch: grouped %d, individual %d", len(got), len(ref))
	}
	for k, n := range ref {
		if got[k] != n {
			t.Fatalf("row %q: grouped count %d, individual count %d", k, got[k], n)
		}
	}
	want := ApplyCounters{AppliedRows: int64(rows)}
	if ga, ia := grouped.ApplyStats(), individual.ApplyStats(); ga != want || ia != want {
		t.Fatalf("apply counters: grouped %+v, individual %+v, want %+v", ga, ia, want)
	}

	// Property 2: identical dedup id sets. Sub-proposal identity is the
	// content hash of the encoded batch, so regrouping must not change
	// which ids the shard remembers.
	gs, _ := grouped.shard(0)
	is, _ := individual.shard(0)
	for i, u := range units {
		for _, sub := range u {
			bid := BatchID(EncodeBatch(sub))
			if _, ok := gs.seen.Probe(bid); !ok {
				t.Fatalf("unit %d (bid %x) missing from grouped dedup set", i, bid)
			}
			if _, ok := is.seen.Probe(bid); !ok {
				t.Fatalf("unit %d (bid %x) missing from individual dedup set", i, bid)
			}
		}
	}
}

// TestSubProposalBytesGolden pins the wire format to the bytes the
// previous commit produced for the same rows: a raft WAL or shipped
// chunk written before multi-sub units existed must replay, and a batch
// retried across the upgrade must dedup, so neither a sub's bytes nor
// its content-derived id may move. The unit encoder must agree with the
// public ones byte for byte.
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
	if got := encodeUnit([][]schema.Row{rows, rows}); !bytes.Equal(got, group) || cap(got) != len(got) {
		t.Fatalf("unit (cap %d) differs from EncodeGroupProposal (%d bytes):\n%x\n%x", cap(got), len(group), got, group)
	}
}

// TestUnitIsOneRaftEntry: one unit is exactly one raft entry whatever
// its size — one sub, more subs than encodeUnit sizes on its stack, or
// more bytes than any cap an earlier commit put on a proposal.
func TestUnitIsOneRaftEntry(t *testing.T) {
	w := newMemWorker(t, Config{})
	sh, _ := w.shard(0)
	sch := schema.RequestLogSchema()
	leader := sh.node
	var total int64
	for i, shape := range []struct{ tenants, rows int }{{1, 1}, {9, 90}, {50, 400}, {3, 12000}} {
		gen := workload.NewGenerator(workload.GeneratorConfig{
			Tenants: shape.tenants, Theta: 0, Seed: int64(3 + i), StartMS: int64(1000 * (i + 1)),
		})
		unit := splitByTenant(sch, gen.Batch(shape.rows))
		if len(unit) != shape.tenants {
			t.Fatalf("unit %d has %d subs, want %d; pick another seed", i, len(unit), shape.tenants)
		}
		before := leader.Status()
		if err := w.EnqueueAppend(context.Background(), 0, unit).Wait(); err != nil {
			t.Fatal(err)
		}
		after := leader.Status()
		size := len(encodeUnit(unit))
		if after.Term != before.Term || after.LastIndex != before.LastIndex+1 {
			t.Fatalf("unit %d (%d subs, %d bytes): log went %d → %d (term %d → %d), want one entry",
				i, len(unit), size, before.LastIndex, after.LastIndex, before.Term, after.Term)
		}
		if shape.rows == 12000 && size <= 1<<20 {
			t.Fatalf("the large unit is only %d bytes", size)
		}
		total += int64(shape.rows)
		if groups, carried := w.CoalesceStats(); groups != int64(i+1) {
			t.Fatalf("after unit %d: %d proposals carrying %d subs", i, groups, carried)
		}
	}
	waitResident(t, w, total)
}

// TestEnqueueAppendContext: a dead context is refused before any raft
// work; a context that dies while the unit is in flight changes nothing
// — the wait is for the commit, the rows land, and the calls after it
// are unharmed.
func TestEnqueueAppendContext(t *testing.T) {
	w := newMemWorker(t, Config{})
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

	// Cancel with the unit in flight.
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

// TestRetrySuppression re-appends a batch that already committed and
// expects the duplicate to be dropped by the per-sub dedup id.
func TestRetrySuppression(t *testing.T) {
	w := newMemWorker(t, Config{})
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

// TestCrashMidStream: many goroutines each push many units at one shard
// while the worker is crashed under them and recovered from its
// DataDir. A unit whose Wait failed with ErrWorkerDown is retried, the
// same bytes, on the recovered worker. Every unit is acked and applied
// exactly once, and the only duplicate suppressions are re-commits of
// units not yet acked at the crash — an acked unit is never sent twice.
func TestCrashMidStream(t *testing.T) {
	const (
		writers   = 8
		perWriter = 40
	)
	dir, store, catalog := t.TempDir(), oss.NewMemStore(), meta.NewManager()
	open := func() *Worker {
		w := newDurableWorker(t, dir, store, catalog, time.Hour)
		if err := w.AddShard(0); err != nil {
			t.Fatal(err)
		}
		return w
	}
	first := open()
	var cur atomic.Pointer[Worker]
	cur.Store(first)
	recovered := make(chan struct{})
	sch := schema.RequestLogSchema()
	ctx := context.Background()

	// state[u]: 0 not started, 1 not acked yet, 2 acked.
	state := make([]atomic.Int32, writers*perWriter)
	subsOf := make([]int64, writers*perWriter)
	var rows, started atomic.Int64
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			// Writers own disjoint time ranges, so no two units share content.
			gen := workload.NewGenerator(workload.GeneratorConfig{
				Tenants: 5, Theta: 0, Seed: int64(100 + wr), StartMS: int64(1_000_000 * (wr + 1)),
			})
			for i := 0; i < perWriter; i++ {
				u := wr*perWriter + i
				batch := gen.Batch(20)
				unit := splitByTenant(sch, batch)
				subsOf[u] = int64(len(unit))
				state[u].Store(1)
				started.Add(1)
				for {
					err := cur.Load().EnqueueAppend(ctx, 0, unit).Wait()
					if err == nil {
						break
					}
					if !errors.Is(err, ErrWorkerDown) {
						t.Errorf("writer %d unit %d: %v", wr, i, err)
						return
					}
					<-recovered
				}
				state[u].Store(2)
				rows.Add(int64(len(batch)))
			}
		}(wr)
	}

	for started.Load() < writers*perWriter/3 {
		time.Sleep(time.Millisecond)
	}
	if skips := first.ApplyStats().DedupSkips; skips != 0 {
		t.Fatalf("%d dedup skips before any fault", skips)
	}
	first.Crash()
	// Whatever was not acked when the crash returned is all that may
	// commit twice: later units are refused by the crashed worker
	// before any raft work, and wait for the recovered one.
	var exposed int64
	for u := range state {
		if state[u].Load() == 1 {
			exposed += subsOf[u]
		}
	}
	w := open()
	t.Cleanup(w.Close)
	cur.Store(w)
	close(recovered)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	waitResident(t, w, rows.Load())
	st := w.ApplyStats()
	if st.Lost() || st.AppliedRows != rows.Load() {
		t.Fatalf("apply counters %+v, want %d rows applied once and nothing lost", st, rows.Load())
	}
	if st.DedupSkips > exposed {
		t.Fatalf("%d dedup skips, but only %d subs were unacked at the crash", st.DedupSkips, exposed)
	}
	t.Logf("crashed with %d subs unacked; %d re-committed and were suppressed", exposed, st.DedupSkips)
}

// TestCrashFailsWaiters: callers parked in Wait — their units held in
// the sync_queue while a lagging apply keeps the node from committing
// more — get ErrWorkerDown when the worker crashes, callers whose units
// committed before it get their ack, an append after the crash is
// refused at once, and no goroutine of the worker or of the append path
// is left behind.
func TestCrashFailsWaiters(t *testing.T) {
	before := runtime.NumGoroutine()
	w := newMemWorker(t, Config{RaftQueueItems: 2})
	sh, _ := w.shard(0)
	sch := schema.RequestLogSchema()
	gen := workload.NewGenerator(workload.GeneratorConfig{Tenants: 4, Theta: 0, Seed: 9, StartMS: 1000})
	if err := w.AppendTrustedCtx(context.Background(), 0, gen.Batch(10)); err != nil {
		t.Fatal(err) // the node has elected itself
	}
	// The first apply below sleeps this long; everything up to the crash
	// happens well inside it.
	if err := w.SlowShardApply(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Enqueue until the pipeline is full: one entry in the slow apply,
	// two in the apply_queue, at least one more committed behind them
	// (so the node stops draining proposals), and two units parked in
	// the sync_queue, uncommitted. A refusal can come while the node
	// still drains, so fill again until that state holds.
	errs := make(chan error, 64)
	waiters := 0
	fill := func() {
		for {
			p := w.EnqueueAppend(context.Background(), 0, splitByTenant(sch, gen.Batch(10)))
			if p.sh == nil {
				if !errors.Is(p.err, raft.ErrBackpressure) {
					t.Fatalf("enqueue %d: err = %v, want raft.ErrBackpressure", waiters, p.err)
				}
				return
			}
			if waiters++; waiters == cap(errs) {
				t.Fatalf("%d units accepted and the sync_queue never filled", waiters)
			}
			go func() { errs <- p.Wait() }()
		}
	}
	base := sh.applied.Load()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		fill()
		st := sh.node.Status()
		if st.CommitIndex >= base+4 && st.SyncQueue.Len == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the pipeline never filled: %d units accepted, node %+v", waiters, st)
		}
	}
	const parked = 2
	// Only the apply under way keeps sleeping: the crash waits for it,
	// not for every queued entry.
	if err := w.SlowShardApply(0, 0); err != nil {
		t.Fatal(err)
	}
	w.Crash()
	down := 0
	for i := 0; i < waiters; i++ {
		switch err := <-errs; {
		case errors.Is(err, ErrWorkerDown):
			down++
		case err != nil:
			t.Fatalf("waiter %d: err = %v, want ErrWorkerDown or its commit's nil", i, err)
		}
	}
	if down < parked {
		t.Fatalf("%d waiters got ErrWorkerDown, but %d units were parked in the sync_queue", down, parked)
	}
	if err := w.AppendTrustedCtx(context.Background(), 0, gen.Batch(10)); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("append after the crash: err = %v, want ErrWorkerDown", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the worker existed, %d after its crash", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
