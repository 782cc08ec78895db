package flow

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestSchedulerInitialPlacement(t *testing.T) {
	topo := testTopology(2, 2, 100_000, 250_000)
	tenants := []TenantID{1, 2, 3}
	s, err := NewScheduler(topo, tenants, AlgorithmMaxFlow, DefaultBalancerConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt := s.Table()
	if len(rt) != 3 {
		t.Fatalf("table has %d tenants", len(rt))
	}
	for _, tn := range tenants {
		if len(rt[tn]) != 1 {
			t.Errorf("tenant %d should start on one shard", tn)
		}
		for _, w := range rt[tn] {
			if w != 1.0 {
				t.Errorf("initial weight should be 100%%")
			}
		}
	}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerInvalidTopology(t *testing.T) {
	if _, err := NewScheduler(&Topology{}, nil, AlgorithmNone, DefaultBalancerConfig()); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestSchedulerRebalanceActions(t *testing.T) {
	topo := testTopology(4, 2, 100_000, 250_000)
	s, err := NewScheduler(topo, []TenantID{7}, AlgorithmMaxFlow, DefaultBalancerConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Cool traffic: nothing happens.
	cool := &Traffic{
		Tenant: map[TenantID]float64{7: 10},
		Shard:  map[ShardID]float64{0: 10},
		Worker: map[WorkerID]float64{0: 10},
	}
	if got := s.Rebalance(cool); got != ActionNone {
		t.Errorf("cool rebalance = %v", got)
	}

	// Hot tenant within cluster capacity: rebalanced.
	home := ShardID(-1)
	for sh := range s.Table()[7] {
		home = sh
	}
	hot := &Traffic{
		Tenant: map[TenantID]float64{7: 300_000},
		Shard:  map[ShardID]float64{home: 300_000},
		Worker: map[WorkerID]float64{topo.ShardWorker[home]: 300_000},
	}
	if got := s.Rebalance(hot); got != ActionRebalanced {
		t.Fatalf("hot rebalance = %v", got)
	}
	rt := s.Table()
	if len(rt[7]) < 3 {
		t.Errorf("300k tenant spread over %d shards, want >= 3", len(rt[7]))
	}

	// Demand beyond cluster watermark: scale.
	over := &Traffic{
		Tenant: map[TenantID]float64{7: 2_000_000},
		Shard:  map[ShardID]float64{home: 2_000_000},
		Worker: map[WorkerID]float64{
			0: 500_000, 1: 500_000, 2: 500_000, 3: 500_000,
		},
	}
	if got := s.Rebalance(over); got != ActionScaleCluster {
		t.Errorf("overload rebalance = %v", got)
	}
}

func TestSchedulerAlgorithmNone(t *testing.T) {
	topo := testTopology(2, 2, 100, 300)
	s, err := NewScheduler(topo, []TenantID{1}, AlgorithmNone, DefaultBalancerConfig())
	if err != nil {
		t.Fatal(err)
	}
	hot := &Traffic{
		Tenant: map[TenantID]float64{1: 1000},
		Shard:  map[ShardID]float64{0: 1000},
		Worker: map[WorkerID]float64{0: 1000},
	}
	if got := s.Rebalance(hot); got != ActionNone {
		t.Errorf("AlgorithmNone rebalanced: %v", got)
	}
}

func TestSchedulerSubscribePush(t *testing.T) {
	topo := testTopology(4, 2, 100_000, 250_000)
	s, err := NewScheduler(topo, []TenantID{7}, AlgorithmGreedy, DefaultBalancerConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var updates []RouteTable
	s.Subscribe(func(rt RouteTable) {
		mu.Lock()
		updates = append(updates, rt)
		mu.Unlock()
	})
	mu.Lock()
	if len(updates) != 1 {
		t.Fatalf("subscriber should get the initial table, got %d updates", len(updates))
	}
	mu.Unlock()

	home := ShardID(-1)
	for sh := range s.Table()[7] {
		home = sh
	}
	hot := &Traffic{
		Tenant: map[TenantID]float64{7: 300_000},
		Shard:  map[ShardID]float64{home: 300_000},
		Worker: map[WorkerID]float64{topo.ShardWorker[home]: 300_000},
	}
	if got := s.Rebalance(hot); got != ActionRebalanced {
		t.Fatalf("rebalance = %v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(updates) != 2 {
		t.Fatalf("subscriber should see the new plan, got %d updates", len(updates))
	}
	if len(updates[1][7]) < 2 {
		t.Error("pushed table not rebalanced")
	}
}

func TestSchedulerEnsureTenant(t *testing.T) {
	topo := testTopology(2, 2, 100, 300)
	s, err := NewScheduler(topo, nil, AlgorithmMaxFlow, DefaultBalancerConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.EnsureTenant(42)
	s.EnsureTenant(42) // idempotent
	rt := s.Table()
	if len(rt[42]) != 1 {
		t.Fatalf("EnsureTenant routes = %v", rt[42])
	}
}

func TestSchedulerSetTopology(t *testing.T) {
	topo := testTopology(2, 2, 100, 300)
	s, err := NewScheduler(topo, nil, AlgorithmMaxFlow, DefaultBalancerConfig())
	if err != nil {
		t.Fatal(err)
	}
	bigger := testTopology(4, 2, 100, 300)
	if err := s.SetTopology(bigger); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Topology().WorkerCapacity); got != 4 {
		t.Errorf("topology has %d workers after scale", got)
	}
	if err := s.SetTopology(&Topology{}); err == nil {
		t.Error("invalid topology accepted by SetTopology")
	}
}

// TestSchedulerEnsureTenantsReusesRing: tenants added after
// construction, and after a topology change, land where
// InitialRouteTable places them, and adding them costs the same
// allocations on a 4-shard ring as on a 64-shard one — the ring is
// built per topology, not per call.
func TestSchedulerEnsureTenantsReusesRing(t *testing.T) {
	tenants := make([]TenantID, 200)
	for i := range tenants {
		tenants[i] = TenantID(1000 + i)
	}
	s, err := NewScheduler(testTopology(2, 2, 100, 300), tenants[:50], AlgorithmNone, DefaultBalancerConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.EnsureTenants(tenants[50:100])
	bigger := testTopology(4, 3, 100, 300)
	if err := s.SetTopology(bigger); err != nil {
		t.Fatal(err)
	}
	s.EnsureTenants(tenants[100:])
	got := s.Table()
	small := InitialRouteTable(tenants[:100], testTopology(2, 2, 100, 300).Shards())
	large := InitialRouteTable(tenants[100:], bigger.Shards())
	for i, tn := range tenants {
		want := small[tn]
		if i >= 100 {
			want = large[tn]
		}
		if !reflect.DeepEqual(got[tn], want) {
			t.Fatalf("tenant %d routed %v, InitialRouteTable says %v", tn, got[tn], want)
		}
	}

	allocs := func(workers int) float64 {
		s, err := NewScheduler(testTopology(workers, 4, 100, 300), nil, AlgorithmNone, DefaultBalancerConfig())
		if err != nil {
			t.Fatal(err)
		}
		next := TenantID(0)
		batch := make([]TenantID, 8)
		return testing.AllocsPerRun(50, func() {
			for i := range batch {
				batch[i] = next
				next++
			}
			s.EnsureTenants(batch)
		})
	}
	if a, b := allocs(1), allocs(16); b > a {
		t.Errorf("adding 8 tenants: %.0f allocs on a 4-shard ring, %.0f on a 64-shard one", a, b)
	}
}

func TestRouterWeightedRouting(t *testing.T) {
	r := NewRouter([]ShardID{0, 1, 2, 3}, 1)
	r.Update(RouteTable{5: {1: 0.3, 2: 0.7}})
	counts := map[ShardID]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.Route(5)]++
	}
	if f := float64(counts[1]) / n; math.Abs(f-0.3) > 0.03 {
		t.Errorf("shard 1 share %v, want 0.3", f)
	}
	if f := float64(counts[2]) / n; math.Abs(f-0.7) > 0.03 {
		t.Errorf("shard 2 share %v, want 0.7", f)
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Error("unrouted shards received traffic")
	}
}

func TestRouterFallback(t *testing.T) {
	r := NewRouter([]ShardID{0, 1, 2, 3}, 1)
	s1 := r.Route(99) // not in table: consistent hash
	s2 := r.Route(99)
	if s1 != s2 {
		t.Error("fallback routing must be deterministic")
	}
}

func TestRouterReadShardsUnion(t *testing.T) {
	r := NewRouter([]ShardID{0, 1, 2, 3}, 1)
	r.Update(RouteTable{5: {0: 1.0}})
	r.Update(RouteTable{5: {1: 0.5, 2: 0.5}})
	shards := r.ReadShards(5)
	want := map[ShardID]bool{0: true, 1: true, 2: true}
	for _, s := range shards {
		delete(want, s)
	}
	if len(want) != 0 {
		t.Errorf("ReadShards missing %v (got %v)", want, shards)
	}
}

func TestCollectorSnapshot(t *testing.T) {
	c := NewCollector(time.Second)
	c.Record(1, 0, 0, 100)
	c.Record(1, 1, 0, 50)
	c.Record(2, 1, 1, 25)
	tr := c.Snapshot()
	if tr.Tenant[1] <= tr.Tenant[2] {
		t.Errorf("tenant rates: %v", tr.Tenant)
	}
	if tr.Shard[1] <= 0 || tr.Worker[0] <= 0 {
		t.Error("shard/worker rates missing")
	}
	if got := tr.TotalTenant(); got <= 0 {
		t.Errorf("TotalTenant = %v", got)
	}
	c.Reset()
	if got := c.Snapshot().TotalTenant(); got != 0 {
		t.Errorf("after Reset: %v", got)
	}
}

// TestRecordUnitEqualsPerSub: on one fake clock, recording each
// committed unit at once gives the Snapshot that recording its tenant
// subs one by one gives, as units land across bucket edges and past the
// window.
func TestRecordUnitEqualsPerSub(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	perSub, perUnit := NewCollector(3*time.Second), NewCollector(3*time.Second)
	perSub.SetClock(clock)
	perUnit.SetClock(clock)
	for step := 0; step < 400; step++ {
		now = now.Add(time.Duration(rng.Intn(300)) * time.Millisecond)
		if step%97 == 0 {
			now = now.Add(5 * time.Second) // past the window
		}
		s, w := ShardID(rng.Intn(6)), WorkerID(rng.Intn(3))
		var unit []TenantRows
		for n := 1 + rng.Intn(8); n > 0; n-- {
			sub := TenantRows{Tenant: TenantID(rng.Intn(20)), Rows: int64(1 + rng.Intn(200))}
			unit = append(unit, sub)
			perSub.Record(sub.Tenant, s, w, sub.Rows)
		}
		perUnit.RecordUnit(s, w, unit)
		if step%10 == 0 {
			if got, want := perUnit.Snapshot(), perSub.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: per-unit snapshot %+v, per-sub %+v", step, got, want)
			}
		}
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Record(TenantID(g%3), ShardID(g%2), WorkerID(g%2), 1)
			}
		}(g)
	}
	wg.Wait()
	tr := c.Snapshot()
	var total float64
	for _, f := range tr.Shard {
		total += f
	}
	if total <= 0 {
		t.Error("concurrent records lost")
	}
}
