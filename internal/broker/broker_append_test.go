package broker

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"logstore/internal/backpressure"
	"logstore/internal/builder"
	"logstore/internal/flow"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/worker"
	"logstore/internal/workload"
)

// countingPool counts the broker's worker look-ups. The broker resolves
// a worker exactly once per shard unit it means to enqueue, so the
// counts are the calls each worker was sent, round by round.
type countingPool struct {
	lockedPool
	lookups map[flow.WorkerID]int
}

func (p *countingPool) Worker(id flow.WorkerID) (*worker.Worker, bool) {
	p.mu.Lock()
	p.lookups[id]++
	p.mu.Unlock()
	return p.lockedPool.Worker(id)
}

func (p *countingPool) count(id flow.WorkerID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lookups[id]
}

// newRaftWorker builds a worker on a fast raft tick, hosting shards.
func newRaftWorker(t *testing.T, id flow.WorkerID, shards ...flow.ShardID) *worker.Worker {
	t.Helper()
	sch := schema.RequestLogSchema()
	w, err := worker.New(worker.Config{
		ID: id, ArchiveInterval: time.Hour, RaftTick: 2 * time.Millisecond,
		Builder: builder.Config{Table: sch.Name},
	}, sch, oss.NewMemStore(), meta.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	for _, sid := range shards {
		if err := w.AddShard(sid); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// setupRaft is two workers of two shards each behind a
// counting pool: worker w owns shards 2w and 2w+1.
func setupRaft(t *testing.T, cfg Config) (*Broker, *countingPool) {
	t.Helper()
	pool := &countingPool{
		lockedPool: lockedPool{
			workers: map[flow.WorkerID]*worker.Worker{},
			owner:   map[flow.ShardID]flow.WorkerID{},
		},
		lookups: map[flow.WorkerID]int{},
	}
	var shardIDs []flow.ShardID
	for wid := flow.WorkerID(0); wid < 2; wid++ {
		a, b := flow.ShardID(2*wid), flow.ShardID(2*wid+1)
		pool.workers[wid] = newRaftWorker(t, wid, a, b)
		pool.owner[a], pool.owner[b] = wid, wid
		shardIDs = append(shardIDs, a, b)
	}
	cfg.Exec = query.ExecOptions{DataSkipping: true}
	b, err := New(cfg, schema.RequestLogSchema(), flow.NewRouter(shardIDs, 1),
		flow.NewCollector(time.Second), meta.NewManager(), pool)
	if err != nil {
		t.Fatal(err)
	}
	return b, pool
}

// waitApplied polls until the workers' shards have, between them,
// applied rows rows and suppressed skips duplicate subs (any number if
// skips < 0), with nothing lost (an ack waits for the apply only up to
// a bound).
func waitApplied(t *testing.T, rows, skips int64, ws ...*worker.Worker) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var sum worker.ApplyCounters
		for _, w := range ws {
			sum.Add(w.ApplyStats())
		}
		if sum.AppliedRows == rows && (skips < 0 || sum.DedupSkips == skips) && !sum.Lost() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("apply counters %+v after 10s, want %d applied rows, %d dedup skips and nothing lost", sum, rows, skips)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAppendOneUnitPerShard: a client batch of many tenants costs each
// shard it touches one worker call and one raft proposal carrying that
// shard's tenant subs, and a resend of the same batch is suppressed sub
// by sub.
func TestAppendOneUnitPerShard(t *testing.T) {
	b, pool := setupRaft(t, Config{})
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 60, Theta: 0, Seed: 21, StartMS: 100})
	rows := g.Batch(400)
	sch := schema.RequestLogSchema()
	tenants := map[int64]bool{}
	shards := map[flow.ShardID]bool{}
	for _, r := range rows {
		tenants[r.Tenant(sch)] = true
		shards[b.router.Route(flow.TenantID(r.Tenant(sch)))] = true
	}
	if len(shards) != 4 {
		t.Fatalf("batch touches %d of 4 shards; pick another seed", len(shards))
	}

	if err := b.AppendContext(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	w0, _ := pool.lockedPool.Worker(0)
	w1, _ := pool.lockedPool.Worker(1)
	waitApplied(t, int64(len(rows)), 0, w0, w1)
	var groups, subs int64
	for _, w := range []*worker.Worker{w0, w1} {
		g, s := w.CoalesceStats()
		groups, subs = groups+g, subs+s
	}
	if groups != 4 || subs != int64(len(tenants)) {
		t.Fatalf("%d proposals carrying %d subs, want 4 (one per shard) carrying %d (one per tenant)", groups, subs, len(tenants))
	}
	if pool.count(0) != 2 || pool.count(1) != 2 {
		t.Fatalf("worker calls = %d, %d, want one per shard: 2, 2", pool.count(0), pool.count(1))
	}
	if _, _, reroutes := b.Stats(); reroutes != 0 {
		t.Fatalf("reroutes = %d on a healthy append", reroutes)
	}

	// The client resends the whole batch: every sub is a duplicate.
	if err := b.AppendContext(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, int64(len(rows)), int64(len(tenants)), w0, w1)
}

// TestAppendSpansShardsWithWorkerDown: one of two workers is down when
// a batch spanning every shard arrives. The live worker's units commit
// in the first round, exactly once and never again; only the dead
// worker's tenants go round again until recovery swaps a new worker in,
// and then land; a full client resend adds dedup skips and no rows.
func TestAppendSpansShardsWithWorkerDown(t *testing.T) {
	b, pool := setupRaft(t, Config{AppendRetryWindow: 10 * time.Second})
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 60, Theta: 0, Seed: 22, StartMS: 100})
	rows := g.Batch(400)
	sch := schema.RequestLogSchema()
	tenantsOn := map[flow.WorkerID]map[int64]bool{0: {}, 1: {}}
	rowsOn := map[flow.WorkerID]int64{}
	for _, r := range rows {
		wid, _ := pool.ShardOwner(b.router.Route(flow.TenantID(r.Tenant(sch))))
		tenantsOn[wid][r.Tenant(sch)] = true
		rowsOn[wid]++
	}
	if len(tenantsOn[0]) == 0 || len(tenantsOn[1]) == 0 {
		t.Fatal("batch does not span both workers; pick another seed")
	}

	live, _ := pool.lockedPool.Worker(0)
	dead, _ := pool.lockedPool.Worker(1)
	dead.Crash()
	// Recovery lands mid-append, once the live worker's share is applied
	// and the broker is visibly re-routing the rest.
	w2 := newRaftWorker(t, 1, 2, 3)
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for live.ApplyStats().AppliedRows < rowsOn[0] || pool.count(1) < 6 {
			time.Sleep(time.Millisecond)
		}
		pool.replace(1, w2)
	}()
	if err := b.AppendContext(context.Background(), rows); err != nil {
		t.Fatalf("append across recovery: %v", err)
	}
	<-swapped

	_, _, reroutes := b.Stats()
	if reroutes == 0 {
		t.Fatal("append succeeded without re-routing around the dead worker")
	}
	// One call per touched shard per round: the live worker's two shards
	// in round one only, the dead worker's two in every round.
	if got, want := pool.count(0), 2; got != want {
		t.Fatalf("live worker was called %d times, want %d (its units must not be resent)", got, want)
	}
	if got, want := pool.count(1), 2*(int(reroutes)+1); got != want {
		t.Fatalf("dead worker's shards were tried %d times over %d rounds, want %d", got, reroutes+1, want)
	}
	if groups, subs := live.CoalesceStats(); groups != 2 || subs != int64(len(tenantsOn[0])) {
		t.Fatalf("live worker: %d proposals carrying %d subs, want 2 carrying %d", groups, subs, len(tenantsOn[0]))
	}
	if groups, subs := w2.CoalesceStats(); groups != 2 || subs != int64(len(tenantsOn[1])) {
		t.Fatalf("recovered worker: %d proposals carrying %d subs, want 2 carrying %d", groups, subs, len(tenantsOn[1]))
	}
	waitApplied(t, int64(len(rows)), 0, live, w2) // no dedup skips before any resend
	if a := live.ApplyStats().AppliedRows; a != rowsOn[0] {
		t.Fatalf("live worker applied %d rows, want %d", a, rowsOn[0])
	}

	// Full client resend: acked, every sub suppressed, not a row added.
	if err := b.AppendContext(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	want := int64(len(tenantsOn[0]) + len(tenantsOn[1]))
	waitApplied(t, int64(len(rows)), want, live, w2)
}

// TestAppendFirstErrorInShardOrder: two of four shards fail a round with
// an error that re-routing cannot cure. Every unit still resolves — the
// other two shards' units commit — the error returned is the lower
// shard's, and once the fault is gone a resend of the same batch lands
// the missing tenants and nothing twice.
func TestAppendFirstErrorInShardOrder(t *testing.T) {
	b, pool := setupRaft(t, Config{})
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 60, Theta: 0, Seed: 23, StartMS: 100})
	rows := g.Batch(400)
	sch := schema.RequestLogSchema()
	tenantsOn := map[flow.ShardID]map[int64]bool{0: {}, 1: {}, 2: {}, 3: {}}
	rowsOn := map[flow.ShardID]int64{}
	for _, r := range rows {
		s := b.router.Route(flow.TenantID(r.Tenant(sch)))
		tenantsOn[s][r.Tenant(sch)] = true
		rowsOn[s]++
	}
	// Shards 1 and 2 are looked up on the worker that does not host them.
	pool.mu.Lock()
	pool.owner[1], pool.owner[2] = 1, 0
	pool.mu.Unlock()
	err := b.AppendContext(context.Background(), rows)
	if err == nil || !strings.Contains(err.Error(), "to shard 1:") {
		t.Fatalf("err = %v, want shard 1's (the first in shard order)", err)
	}
	w0, _ := pool.lockedPool.Worker(0)
	w1, _ := pool.lockedPool.Worker(1)
	waitApplied(t, rowsOn[0]+rowsOn[3], 0, w0, w1)
	if _, _, reroutes := b.Stats(); reroutes != 0 {
		t.Fatalf("reroutes = %d for an error re-routing cannot cure", reroutes)
	}

	pool.mu.Lock()
	pool.owner[1], pool.owner[2] = 0, 1
	pool.mu.Unlock()
	if err := b.AppendContext(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	want := int64(len(tenantsOn[0]) + len(tenantsOn[3]))
	waitApplied(t, int64(len(rows)), want, w0, w1)
}

// TestAppendContext: a context that is already dead costs no routing or
// raft work; one that dies while the units are in flight does not cut
// the wait short — the commit's outcome is what the caller gets, the
// rows land, nothing is left running and later appends are unharmed.
func TestAppendContext(t *testing.T) {
	b, pool := setupRaft(t, Config{})
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 60, Theta: 0, Seed: 24, StartMS: 100})
	w0, _ := pool.lockedPool.Worker(0)
	w1, _ := pool.lockedPool.Worker(1)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.AppendContext(cancelled, g.Batch(100)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := b.AppendContext(expired, g.Batch(100)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v", err)
	}
	if c, e, _ := b.DegradeStats(); c != 1 || e != 1 {
		t.Fatalf("canceled, expired = %d, %d, want 1, 1", c, e)
	}
	if pool.count(0)+pool.count(1) != 0 {
		t.Fatal("a dead context reached a worker")
	}
	for _, w := range []*worker.Worker{w0, w1} {
		if groups, _ := w.CoalesceStats(); groups != 0 {
			t.Fatalf("a dead context cost %d raft proposals", groups)
		}
	}

	// Cancel with every shard's unit in its raft group's hands.
	before := runtime.NumGoroutine()
	rows := g.Batch(200)
	live, cancel3 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.AppendContext(live, rows) }()
	for pool.count(0)+pool.count(1) < 4 { // the fourth unit is being enqueued
		time.Sleep(100 * time.Microsecond)
	}
	cancel3()
	if err := <-done; err != nil {
		// The cancel beat the last enqueue after all: that unit was
		// refused, the queued ones committed regardless, and the resend
		// every client owes a failed append completes the batch.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("append cancelled mid-flight: %v", err)
		}
		if err := b.AppendContext(context.Background(), rows); err != nil {
			t.Fatal(err)
		}
	}
	total := int64(len(rows))
	for i := 0; i < 20; i++ {
		if err := b.AppendContext(context.Background(), g.Batch(50)); err != nil {
			t.Fatalf("append %d after the cancelled one: %v", i, err)
		}
		total += 50
	}
	waitApplied(t, total, -1, w0, w1)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the cancelled append, %d after", before, after)
	}
}

// TestAppendAdmitsPrefix: admission charges the tenant subs in tenant
// order and stops at the first it sheds; the admitted prefix is written
// as usual and the shed error surfaces after it.
func TestAppendAdmitsPrefix(t *testing.T) {
	now := time.Unix(100, 0)
	adm := backpressure.NewAdmission(backpressure.AdmissionConfig{
		TenantRowsPerSec: 10, Now: func() time.Time { return now },
	})
	b, pool := setupRaft(t, Config{Admission: adm})
	row := func(tenant, ts int64) schema.Row {
		return schema.Row{schema.IntValue(tenant), schema.IntValue(ts), schema.StringValue("1.1.1.1"),
			schema.StringValue("/x"), schema.IntValue(1), schema.StringValue("false"), schema.StringValue("m")}
	}
	// Tenants 1 and 3 fit their 10-row burst; tenant 2 brings 11.
	var rows []schema.Row
	for i := int64(0); i < 11; i++ {
		rows = append(rows, row(2, i))
		if i < 4 {
			rows = append(rows, row(3, i), row(1, i))
		}
	}
	err := b.AppendContext(context.Background(), rows)
	var over *backpressure.ErrOverloaded
	if !errors.As(err, &over) || over.Tenant != 2 {
		t.Fatalf("err = %v, want tenant 2 overloaded", err)
	}
	if _, _, shed := b.DegradeStats(); shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
	w0, _ := pool.lockedPool.Worker(0)
	w1, _ := pool.lockedPool.Worker(1)
	waitApplied(t, 4, 0, w0, w1) // tenant 1 only: the scan stopped at tenant 2
	if calls := pool.count(0) + pool.count(1); calls != 1 {
		t.Fatalf("%d worker calls, want 1 (tenant 1's shard)", calls)
	}
}
