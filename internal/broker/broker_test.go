package broker

import (
	"context"
	"strings"
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

// testPool is a minimal WorkerPool over in-process workers.
type testPool struct {
	workers map[flow.WorkerID]*worker.Worker
	owner   map[flow.ShardID]flow.WorkerID
}

func (p *testPool) Worker(id flow.WorkerID) (*worker.Worker, bool) {
	w, ok := p.workers[id]
	return w, ok
}

func (p *testPool) ShardOwner(s flow.ShardID) (flow.WorkerID, bool) {
	w, ok := p.owner[s]
	return w, ok
}

func (p *testPool) WorkerIDs() []flow.WorkerID {
	out := make([]flow.WorkerID, 0, len(p.workers))
	for id := range p.workers {
		out = append(out, id)
	}
	return out
}

func setup(t *testing.T) (*Broker, *testPool, *meta.Manager, *flow.Router) {
	t.Helper()
	sch := schema.RequestLogSchema()
	store := oss.NewMemStore()
	catalog := meta.NewManager()
	pool := &testPool{
		workers: map[flow.WorkerID]*worker.Worker{},
		owner:   map[flow.ShardID]flow.WorkerID{},
	}
	var shardIDs []flow.ShardID
	sid := flow.ShardID(0)
	for wid := flow.WorkerID(0); wid < 2; wid++ {
		w, err := worker.New(worker.Config{
			ID: wid, ArchiveInterval: time.Hour,
			Builder: builder.Config{Table: sch.Name},
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
	// Static routing: every tenant to its consistent-hash home.
	collector := flow.NewCollector(time.Second)
	b, err := New(Config{ID: 0, Exec: query.ExecOptions{DataSkipping: true}},
		sch, router, collector, catalog, pool)
	if err != nil {
		t.Fatal(err)
	}
	return b, pool, catalog, router
}

func TestNewValidation(t *testing.T) {
	sch := schema.RequestLogSchema()
	r := flow.NewRouter(nil, 1)
	col := flow.NewCollector(time.Second)
	cat := meta.NewManager()
	pool := &testPool{}
	if _, err := New(Config{}, &schema.Schema{}, r, col, cat, pool); err == nil {
		t.Error("invalid schema accepted")
	}
	if _, err := New(Config{}, sch, nil, col, cat, pool); err == nil {
		t.Error("nil router accepted")
	}
	if _, err := New(Config{}, sch, r, nil, cat, pool); err == nil {
		t.Error("nil collector accepted")
	}
	if _, err := New(Config{}, sch, r, col, nil, pool); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := New(Config{}, sch, r, col, cat, nil); err == nil {
		t.Error("nil pool accepted")
	}
}

func TestAppendRoutesByTenant(t *testing.T) {
	b, pool, _, _ := setup(t)
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 8, Theta: 0, Seed: 1, StartMS: 100})
	if err := b.AppendContext(context.Background(), g.Batch(400)); err != nil {
		t.Fatal(err)
	}
	var resident int64
	for _, w := range pool.workers {
		resident += w.ResidentRows()
	}
	if resident != 400 {
		t.Fatalf("resident rows = %d, want 400", resident)
	}
	// Empty append is a no-op.
	if err := b.AppendContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	// Invalid rows abort before any routing.
	if err := b.AppendContext(context.Background(), []schema.Row{{schema.IntValue(1)}}); err == nil {
		t.Error("malformed row accepted")
	}
}

func TestQueryScatterGather(t *testing.T) {
	b, pool, _, _ := setup(t)
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 4, Theta: 0, Seed: 2, StartMS: 1000})
	rows := g.Batch(800)
	if err := b.AppendContext(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	// Archive half the data so the query spans realtime + blocks.
	for _, w := range pool.workers {
		for _, sid := range w.Shards() {
			if err := w.FlushShard(sid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.AppendContext(context.Background(), g.Batch(200)); err != nil {
		t.Fatal(err)
	}
	sch := schema.RequestLogSchema()
	want := 0
	for _, r := range rows {
		if r.Tenant(sch) == 2 {
			want++
		}
	}
	res, err := b.QueryContext(context.Background(), "SELECT COUNT(*) FROM request_log WHERE tenant_id = 2 AND ts >= 0 AND ts <= 99999999")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count <= int64(want)/2 {
		t.Fatalf("count = %d, want > %d", res.Count, want/2)
	}
}

func TestQueryRejectsMissingTenant(t *testing.T) {
	b, _, _, _ := setup(t)
	_, err := b.QueryContext(context.Background(), "SELECT log FROM request_log WHERE latency > 5")
	if err == nil || !strings.Contains(err.Error(), "tenant") {
		t.Fatalf("err = %v", err)
	}
}

func TestQueryParseAndValidationErrors(t *testing.T) {
	b, _, _, _ := setup(t)
	if _, err := b.QueryContext(context.Background(), "NOT SQL"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := b.QueryContext(context.Background(), "SELECT ghost FROM request_log WHERE tenant_id = 1"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestQueryBlockAffinity(t *testing.T) {
	// The same block path must always land on the same worker (cache
	// affinity): run the same query twice and confirm only one worker's
	// cache warmed per path set.
	b, pool, catalog, _ := setup(t)
	g := workload.NewGenerator(workload.GeneratorConfig{Tenants: 1, Theta: 0, Seed: 3, StartMS: 10})
	if err := b.AppendContext(context.Background(), g.Batch(500)); err != nil {
		t.Fatal(err)
	}
	for _, w := range pool.workers {
		for _, sid := range w.Shards() {
			if err := w.FlushShard(sid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(catalog.Blocks(0)) == 0 {
		t.Fatal("nothing archived")
	}
	sql := "SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0 AND ts <= 9999999"
	r1, err := b.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count != r2.Count || r1.Count != 500 {
		t.Fatalf("counts: %d vs %d, want 500", r1.Count, r2.Count)
	}
}

func TestRouterAccessor(t *testing.T) {
	b, _, _, router := setup(t)
	if b.Router() != router {
		t.Error("Router() identity broken")
	}
}
