package broker

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"logstore/internal/builder"
	"logstore/internal/flow"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/worker"
	"logstore/internal/workload"
)

// lockedPool is a WorkerPool whose worker map can be mutated while the
// broker routes (recovery swaps in a rebuilt worker).
type lockedPool struct {
	mu      sync.Mutex
	workers map[flow.WorkerID]*worker.Worker
	owner   map[flow.ShardID]flow.WorkerID
}

func (p *lockedPool) Worker(id flow.WorkerID) (*worker.Worker, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	return w, ok
}

func (p *lockedPool) ShardOwner(s flow.ShardID) (flow.WorkerID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.owner[s]
	return w, ok
}

func (p *lockedPool) WorkerIDs() []flow.WorkerID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]flow.WorkerID, 0, len(p.workers))
	for id := range p.workers {
		out = append(out, id)
	}
	return out
}

func (p *lockedPool) replace(id flow.WorkerID, w *worker.Worker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.workers[id] = w
}

// slowPool delays Worker resolution for one id — a deterministic stand-in
// for a straggling worker, used to force the hedge path.
type slowPool struct {
	WorkerPool
	slow  flow.WorkerID
	delay time.Duration
}

func (p *slowPool) Worker(id flow.WorkerID) (*worker.Worker, bool) {
	if id == p.slow {
		time.Sleep(p.delay)
	}
	return p.WorkerPool.Worker(id)
}

func setupFailover(t *testing.T, cfg Config) (*Broker, *lockedPool, *meta.Manager, oss.Store) {
	t.Helper()
	sch := schema.RequestLogSchema()
	store := oss.NewMemStore()
	catalog := meta.NewManager()
	pool := &lockedPool{
		workers: map[flow.WorkerID]*worker.Worker{},
		owner:   map[flow.ShardID]flow.WorkerID{},
	}
	var shardIDs []flow.ShardID
	sid := flow.ShardID(0)
	for wid := flow.WorkerID(0); wid < 2; wid++ {
		w, err := worker.New(worker.Config{
			ID: wid, ArchiveInterval: time.Hour,
			Builder: builder.Config{Table: sch.Name, MaxRowsPerBlock: 50},
		}, sch, store, catalog)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		for j := 0; j < 2; j++ {
			if err := w.AddShard(sid); err != nil {
				t.Fatal(err)
			}
			pool.owner[sid] = wid
			shardIDs = append(shardIDs, sid)
			sid++
		}
		pool.workers[wid] = w
	}
	router := flow.NewRouter(shardIDs, 1)
	collector := flow.NewCollector(time.Second)
	cfg.Exec = query.ExecOptions{DataSkipping: true}
	b, err := New(cfg, sch, router, collector, catalog, pool)
	if err != nil {
		t.Fatal(err)
	}
	return b, pool, catalog, store
}

// archiveTenant0 appends tenant-0 rows and flushes them to OSS so block
// sub-queries have something to read. Returns the row count and the
// worker owning tenant 0's realtime shard.
func archiveTenant0(t *testing.T, b *Broker, pool *lockedPool, n int) (int64, flow.WorkerID) {
	t.Helper()
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 5, StartMS: 100})
	if err := b.AppendContext(context.Background(), g.Batch(n)); err != nil {
		t.Fatal(err)
	}
	shard := b.router.Route(0)
	owner, _ := pool.ShardOwner(shard)
	for _, w := range pool.workers {
		for _, sid := range w.Shards() {
			if err := w.FlushShard(sid); err != nil {
				t.Fatal(err)
			}
		}
	}
	return int64(n), owner
}

func tenant0Paths(t *testing.T, catalog *meta.Manager) []string {
	t.Helper()
	blocks := catalog.Blocks(0)
	if len(blocks) < 2 {
		t.Fatalf("need several archived blocks, got %d", len(blocks))
	}
	paths := make([]string, len(blocks))
	for i, blk := range blocks {
		paths[i] = blk.Path
	}
	return paths
}

func TestRunBlockSetFailsOverToNextWorker(t *testing.T) {
	b, pool, catalog, _ := setupFailover(t, Config{})
	want, owner := archiveTenant0(t, b, pool, 300)
	paths := tenant0Paths(t, catalog)
	// Crash the non-owner; it still appears first in the candidate list,
	// so the block set must fail over to the surviving worker.
	victim := flow.WorkerID(1 - int(owner))
	w, _ := pool.Worker(victim)
	w.Crash()
	q, err := query.Parse("SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.runBlockSet(context.Background(), paths, q, candidates{primary: []flow.WorkerID{victim, owner}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("failover count = %d, want %d", res.Count, want)
	}
	failovers, hedges, _ := b.Stats()
	if failovers != 1 || hedges != 0 {
		t.Fatalf("failovers=%d hedges=%d, want 1, 0", failovers, hedges)
	}
}

func TestRunBlockSetAllCandidatesFail(t *testing.T) {
	b, pool, catalog, _ := setupFailover(t, Config{})
	_, _ = archiveTenant0(t, b, pool, 200)
	paths := tenant0Paths(t, catalog)
	for _, w := range pool.workers {
		w.Crash()
	}
	q, err := query.Parse("SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.runBlockSet(context.Background(), paths, q, candidates{primary: []flow.WorkerID{0, 1}}); !errors.Is(err, worker.ErrWorkerDown) {
		t.Fatalf("all-dead block set err = %v, want ErrWorkerDown", err)
	}
	failovers, _, _ := b.Stats()
	if failovers != 1 {
		t.Fatalf("failovers = %d, want 1 (second worker tried once)", failovers)
	}
}

func TestRunBlockSetHedgesSlowWorker(t *testing.T) {
	b, pool, catalog, _ := setupFailover(t, Config{HedgeDelay: 5 * time.Millisecond})
	want, owner := archiveTenant0(t, b, pool, 200)
	paths := tenant0Paths(t, catalog)
	// The preferred worker stalls far beyond the hedge delay; the hedge
	// to the other worker must answer first.
	slow := flow.WorkerID(1 - int(owner))
	b.pool = &slowPool{WorkerPool: pool, slow: slow, delay: 2 * time.Second}
	q, err := query.Parse("SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0")
	if err != nil {
		t.Fatal(err)
	}
	startedAt := time.Now()
	res, err := b.runBlockSet(context.Background(), paths, q, candidates{primary: []flow.WorkerID{slow, owner}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("hedged count = %d, want %d", res.Count, want)
	}
	if elapsed := time.Since(startedAt); elapsed > time.Second {
		t.Fatalf("hedge did not preempt the stalled worker (took %v)", elapsed)
	}
	_, hedges, _ := b.Stats()
	if hedges != 1 {
		t.Fatalf("hedges = %d, want 1", hedges)
	}
}

func TestExecuteSteersAroundDeadWorker(t *testing.T) {
	health := flow.NewHealthTracker(2)
	b, pool, _, _ := setupFailover(t, Config{Health: health})
	want, owner := archiveTenant0(t, b, pool, 300)
	// The non-owner crashes and the tracker notices (missed beats).
	victim := flow.WorkerID(1 - int(owner))
	w, _ := pool.Worker(victim)
	w.Crash()
	health.Beat(owner)
	health.Beat(victim)
	health.Tick()
	health.Tick()
	health.Beat(owner) // owner keeps beating; victim is now dead
	if health.State(victim) != flow.WorkerDead {
		t.Fatal("tracker should consider victim dead")
	}
	// Every block set routes to the survivor up front: no errors, no
	// runtime failovers needed.
	res, err := b.QueryContext(context.Background(), "SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
	failovers, _, _ := b.Stats()
	if failovers != 0 {
		t.Fatalf("failovers = %d, want 0 (health steering should pre-empt)", failovers)
	}
}

func TestAppendReroutesToRecoveredWorker(t *testing.T) {
	b, pool, _, _ := setupFailover(t, Config{AppendRetryWindow: 5 * time.Second})
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 6, StartMS: 10})
	shard := b.router.Route(0)
	owner, _ := pool.ShardOwner(shard)
	w, _ := pool.Worker(owner)
	w.Crash()

	// Recovery lands mid-append: a rebuilt worker takes the dead one's
	// place (same id, same shards) while Append is already retrying.
	go func() {
		time.Sleep(50 * time.Millisecond)
		sch := schema.RequestLogSchema()
		w2, err := worker.New(worker.Config{
			ID: owner, ArchiveInterval: time.Hour,
			Builder: builder.Config{Table: sch.Name},
		}, sch, oss.NewMemStore(), meta.NewManager())
		if err != nil {
			panic(err)
		}
		for _, sid := range []flow.ShardID{shard} {
			if err := w2.AddShard(sid); err != nil {
				panic(err)
			}
		}
		pool.replace(owner, w2)
	}()

	if err := b.AppendContext(context.Background(), g.Batch(50)); err != nil {
		t.Fatalf("append across recovery: %v", err)
	}
	_, _, reroutes := b.Stats()
	if reroutes == 0 {
		t.Fatal("append succeeded without rerouting through the dead worker")
	}
	w2, _ := pool.Worker(owner)
	t.Cleanup(w2.Close)
	if w2.ResidentRows() != 50 {
		t.Fatalf("recovered worker holds %d rows, want 50", w2.ResidentRows())
	}

	// With the retry window exhausted and no recovery, Append surfaces
	// the down error.
	b2, pool2, _, _ := setupFailover(t, Config{AppendRetryWindow: 50 * time.Millisecond})
	shard2 := b2.router.Route(0)
	owner2, _ := pool2.ShardOwner(shard2)
	dead, _ := pool2.Worker(owner2)
	dead.Crash()
	if err := b2.AppendContext(context.Background(), g.Batch(10)); !errors.Is(err, worker.ErrWorkerDown) {
		t.Fatalf("append with no recovery = %v, want ErrWorkerDown", err)
	}
}
