package flow

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"logstore/internal/workload"
)

// testTopology builds w workers each hosting shardsPer shards, every
// shard with capacity shardCap and every worker with capacity workerCap.
func testTopology(w, shardsPer int, shardCap, workerCap float64) *Topology {
	topo := &Topology{
		ShardWorker:    map[ShardID]WorkerID{},
		ShardCapacity:  map[ShardID]float64{},
		WorkerCapacity: map[WorkerID]float64{},
	}
	sid := 0
	for wi := 0; wi < w; wi++ {
		topo.WorkerCapacity[WorkerID(wi)] = workerCap
		for s := 0; s < shardsPer; s++ {
			topo.ShardWorker[ShardID(sid)] = WorkerID(wi)
			topo.ShardCapacity[ShardID(sid)] = shardCap
			sid++
		}
	}
	return topo
}

// zipfTraffic builds tenant demands proportional to Zipf(θ) weights
// with the given aggregate rate, routed per rt onto shards/workers.
func zipfTraffic(topo *Topology, rt RouteTable, tenants int, theta, totalRate float64) *Traffic {
	z := workload.NewZipfian(tenants, theta, 1)
	tr := &Traffic{
		Tenant: map[TenantID]float64{},
		Shard:  map[ShardID]float64{},
		Worker: map[WorkerID]float64{},
	}
	for k := 0; k < tenants; k++ {
		tr.Tenant[TenantID(k)] = z.Weight(k) * totalRate
	}
	for t, shards := range rt {
		for s, w := range shards {
			f := w * tr.Tenant[t]
			tr.Shard[s] += f
			tr.Worker[topo.ShardWorker[s]] += f
		}
	}
	return tr
}

func TestTopologyValidate(t *testing.T) {
	topo := testTopology(2, 2, 100, 300)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := topo.Clone()
	bad.ShardWorker[ShardID(0)] = WorkerID(99)
	if err := bad.Validate(); err == nil {
		t.Error("dangling shard placement accepted")
	}
	bad2 := topo.Clone()
	bad2.ShardCapacity[ShardID(0)] = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero shard capacity accepted")
	}
	bad3 := topo.Clone()
	bad3.WorkerCapacity[WorkerID(0)] = -1
	if err := bad3.Validate(); err == nil {
		t.Error("negative worker capacity accepted")
	}
	if err := (&Topology{}).Validate(); err == nil {
		t.Error("empty topology accepted")
	}
}

func TestRouteTableBasics(t *testing.T) {
	rt := RouteTable{
		1: {0: 0.5, 1: 0.5},
		2: {2: 1.0},
	}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if rt.Routes() != 3 {
		t.Errorf("Routes = %d", rt.Routes())
	}
	c := rt.Clone()
	c[1][0] = 0.9
	if rt[1][0] != 0.5 {
		t.Error("Clone is shallow")
	}
	// Normalize fixes unnormalized and drops non-positive entries.
	dirty := RouteTable{
		1: {0: 2.0, 1: 2.0, 2: -1},
		2: {},
		3: {4: 0},
	}
	dirty.Normalize()
	if err := dirty.Validate(); err != nil {
		t.Fatalf("normalized table invalid: %v", err)
	}
	if math.Abs(dirty[1][0]-0.5) > 1e-9 {
		t.Errorf("weight = %v", dirty[1][0])
	}
	if _, ok := dirty[2]; ok {
		t.Error("empty tenant kept")
	}
	if _, ok := dirty[3]; ok {
		t.Error("zero-weight tenant kept")
	}
}

func TestPickShardDistribution(t *testing.T) {
	rs := compileRoutes(RouteTable{1: {0: 0.25, 1: 0.75}})
	counts := map[ShardID]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		s, ok := rs.pick(1, float64(i)/n)
		if !ok {
			t.Fatal("pick failed")
		}
		counts[s]++
	}
	if f := float64(counts[0]) / n; math.Abs(f-0.25) > 0.02 {
		t.Errorf("shard 0 share = %v, want 0.25", f)
	}
	if _, ok := rs.pick(99, 0.5); ok {
		t.Error("unknown tenant routed")
	}
	// r at the extreme top lands on the last shard.
	if s, _ := rs.pick(1, 0.999999999); s != 1 {
		t.Errorf("top residual lands on %d", s)
	}
}

// refPickShard is how a pick was made before the router compiled its
// tables: sort the tenant's shards on every call and walk their
// weights.
func refPickShard(rt RouteTable, tenant TenantID, r float64) (ShardID, bool) {
	shards, ok := rt[tenant]
	if !ok || len(shards) == 0 {
		return 0, false
	}
	ids := make([]ShardID, 0, len(shards))
	for s := range shards {
		ids = append(ids, s)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var acc float64
	for _, s := range ids {
		acc += shards[s]
		if r < acc {
			return s, true
		}
	}
	return ids[len(ids)-1], true
}

// TestPickMatchesReference holds the compiled pick to refPickShard over
// random tables — normalized or not, weights that do not reach 1 — and
// random r, the top of [0, 1) and values past it included, and checks
// that a routed pick allocates nothing.
func TestPickMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 300; trial++ {
		rt := RouteTable{}
		for tn := rng.Intn(6); tn > 0; tn-- {
			weights := map[ShardID]float64{}
			for sn := 1 + rng.Intn(5); sn > 0; sn-- {
				weights[ShardID(rng.Intn(12))] = rng.Float64()
			}
			rt[TenantID(rng.Intn(8))] = weights
		}
		if trial%2 == 0 {
			rt.Normalize()
		}
		rs := compileRoutes(rt)
		for probe := 0; probe < 50; probe++ {
			tenant := TenantID(rng.Intn(9))
			r := rng.Float64()
			switch probe % 10 {
			case 0:
				r = math.Nextafter(1, 0)
			case 1:
				r = 1 + rng.Float64()
			}
			got, gotOK := rs.pick(tenant, r)
			want, wantOK := refPickShard(rt, tenant, r)
			if got != want || gotOK != wantOK {
				t.Fatalf("trial %d: pick(%d, %v) over %v = %d, %v; reference %d, %v", trial, tenant, r, rt, got, gotOK, want, wantOK)
			}
		}
	}
	rs := compileRoutes(RouteTable{1: {4: 0.2, 2: 0.3, 9: 0.5}})
	if n := testing.AllocsPerRun(100, func() { _, _ = rs.pick(1, 0.6) }); n != 0 {
		t.Fatalf("pick made %v allocations, want 0", n)
	}
	r := NewRouter([]ShardID{0, 1, 2, 3}, 1)
	r.Update(RouteTable{5: {1: 0.3, 2: 0.7}})
	r.Update(RouteTable{5: {3: 1}})
	if n := testing.AllocsPerRun(100, func() { _ = r.Route(5); _ = r.ReadShards(5); _ = r.ReadShards(77) }); n != 0 {
		t.Fatalf("Route and ReadShards made %v allocations, want 0", n)
	}
}

func TestConsistentHashStable(t *testing.T) {
	shards := []ShardID{0, 1, 2, 3}
	a := NewConsistentHash(shards, 64)
	b := NewConsistentHash(shards, 64)
	moved := 0
	grown := NewConsistentHash(append(shards, 4, 5), 64)
	owners := map[ShardID]int{}
	for t0 := 0; t0 < 1000; t0++ {
		ta := a.Owner(TenantID(t0))
		if tb := b.Owner(TenantID(t0)); ta != tb {
			t.Fatal("consistent hash not deterministic")
		}
		owners[ta]++
		if grown.Owner(TenantID(t0)) != ta {
			moved++
		}
	}
	// All shards get some tenants.
	for _, s := range shards {
		if owners[s] == 0 {
			t.Errorf("shard %d received no tenants", s)
		}
	}
	// Adding shards moves only a minority of tenants.
	if moved > 600 {
		t.Errorf("adding shards moved %d/1000 tenants", moved)
	}
}

func TestHotShardsDetection(t *testing.T) {
	topo := testTopology(2, 2, 100, 300)
	cfg := DefaultBalancerConfig()
	tr := &Traffic{
		Shard: map[ShardID]float64{0: 90, 1: 50, 2: 86, 3: 10},
	}
	hot := HotShards(topo, tr, cfg) // threshold 85
	if len(hot) != 2 || hot[0] != 0 || hot[1] != 2 {
		t.Fatalf("hot = %v, want [0 2]", hot)
	}
}

func TestClusterOverloaded(t *testing.T) {
	topo := testTopology(2, 1, 100, 100) // total worker capacity 200, α=0.85 -> 170
	cfg := DefaultBalancerConfig()
	tr := &Traffic{Worker: map[WorkerID]float64{0: 100, 1: 80}}
	if !ClusterOverloaded(topo, tr, cfg) {
		t.Error("180 > 170 should be overloaded")
	}
	tr.Worker[1] = 50
	if ClusterOverloaded(topo, tr, cfg) {
		t.Error("150 < 170 should not be overloaded")
	}
}

func TestGreedySplitsHotTenant(t *testing.T) {
	topo := testTopology(4, 2, 100_000, 250_000)
	cfg := DefaultBalancerConfig() // TenantShardLimit 100k
	// One tenant with 450k demand initially pinned to shard 0.
	rt := RouteTable{7: {0: 1.0}}
	tr := &Traffic{
		Tenant: map[TenantID]float64{7: 450_000},
		Shard:  map[ShardID]float64{0: 450_000},
		Worker: map[WorkerID]float64{0: 450_000},
	}
	next := GreedyBalance(topo, tr, rt, cfg)
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	// ceil(450k/100k) = 5 shards, evenly weighted.
	if got := len(next[7]); got != 5 {
		t.Fatalf("tenant spread over %d shards, want 5", got)
	}
	for s, w := range next[7] {
		if math.Abs(w-0.2) > 1e-9 {
			t.Errorf("shard %d weight %v, want 0.2", s, w)
		}
	}
}

func TestGreedyNoHotspotNoChange(t *testing.T) {
	topo := testTopology(2, 2, 100_000, 250_000)
	cfg := DefaultBalancerConfig()
	rt := RouteTable{1: {0: 1.0}}
	tr := &Traffic{
		Tenant: map[TenantID]float64{1: 10},
		Shard:  map[ShardID]float64{0: 10},
		Worker: map[WorkerID]float64{0: 10},
	}
	next := GreedyBalance(topo, tr, rt, cfg)
	if next.Routes() != 1 || next[1][0] != 1.0 {
		t.Errorf("cool cluster was rebalanced: %v", next)
	}
}

func TestMaxFlowSatisfiesDemandWithFewEdges(t *testing.T) {
	topo := testTopology(6, 4, 100_000, 400_000)
	cfg := DefaultBalancerConfig()
	tenants := make([]TenantID, 100)
	for i := range tenants {
		tenants[i] = TenantID(i)
	}
	rt := InitialRouteTable(tenants, topo.Shards())
	tr := zipfTraffic(topo, rt, 100, 0.99, 1_000_000)

	res := MaxFlowBalance(topo, tr, rt, cfg)
	if !res.Satisfied {
		t.Fatalf("1M demand on 2.4M·α capacity should be satisfiable (Fmax=%v)", res.MaxFlow)
	}
	if err := res.Table.Validate(); err != nil {
		t.Fatal(err)
	}
	// Constraint check: implied shard loads within capacity and worker
	// loads within α·capacity (allowing numerical slack).
	load := shardTraffic(res.Table, tr.Tenant)
	workerLoad := map[WorkerID]float64{}
	for s, f := range load {
		if f > topo.ShardCapacity[s]*1.001 {
			t.Errorf("shard %d overloaded: %v > %v", s, f, topo.ShardCapacity[s])
		}
		workerLoad[topo.ShardWorker[s]] += f
	}
	for w, f := range workerLoad {
		if f > cfg.Alpha*topo.WorkerCapacity[w]*1.001 {
			t.Errorf("worker %d over watermark: %v > %v", w, f, cfg.Alpha*topo.WorkerCapacity[w])
		}
	}
}

func TestMaxFlowUsesFewerRoutesThanGreedy(t *testing.T) {
	// Figure 12(c): max flow should eliminate hot spots with fewer
	// route rules than greedy under high skew. Both algorithms run the
	// way the production framework does — iterating on fresh traffic
	// snapshots until no hot shards remain (or an iteration budget).
	topo := testTopology(6, 4, 100_000, 400_000)
	cfg := DefaultBalancerConfig()
	tenants := make([]TenantID, 200)
	for i := range tenants {
		tenants[i] = TenantID(i)
	}

	converge := func(algo Algorithm) (RouteTable, int) {
		rt := InitialRouteTable(tenants, topo.Shards())
		iters := 0
		for ; iters < 30; iters++ {
			tr := zipfTraffic(topo, rt, 200, 0.99, 1_500_000)
			if len(HotShards(topo, tr, cfg)) == 0 {
				break
			}
			switch algo {
			case AlgorithmGreedy:
				rt = GreedyBalance(topo, tr, rt, cfg)
			case AlgorithmMaxFlow:
				res := MaxFlowBalance(topo, tr, rt, cfg)
				if !res.Satisfied {
					t.Fatal("max flow unsatisfied during convergence")
				}
				rt = res.Table
			}
		}
		return rt, iters
	}

	greedy, gIters := converge(AlgorithmGreedy)
	mf, mIters := converge(AlgorithmMaxFlow)
	t.Logf("greedy: %d routes after %d iters; maxflow: %d routes after %d iters",
		greedy.Routes(), gIters, mf.Routes(), mIters)
	if mf.Routes() > greedy.Routes() {
		t.Errorf("max flow used %d routes, greedy %d — expected fewer or equal",
			mf.Routes(), greedy.Routes())
	}
	// Max flow must actually eliminate the hot shards.
	final := zipfTraffic(topo, mf, 200, 0.99, 1_500_000)
	if hot := HotShards(topo, final, cfg); len(hot) != 0 {
		t.Errorf("max flow left hot shards: %v", hot)
	}
}

func TestMaxFlowUnsatisfiableReportsScale(t *testing.T) {
	topo := testTopology(2, 1, 50_000, 50_000)
	cfg := DefaultBalancerConfig()
	rt := RouteTable{1: {0: 1.0}}
	tr := &Traffic{
		Tenant: map[TenantID]float64{1: 500_000}, // demand 500k vs capacity 100k·α
		Shard:  map[ShardID]float64{0: 50_000},
		Worker: map[WorkerID]float64{0: 50_000},
	}
	res := MaxFlowBalance(topo, tr, rt, cfg)
	if res.Satisfied {
		t.Fatal("impossible demand reported satisfied")
	}
}

func TestMaxFlowIdleTenantKeepsRoutes(t *testing.T) {
	topo := testTopology(2, 2, 100_000, 250_000)
	cfg := DefaultBalancerConfig()
	rt := RouteTable{
		1: {0: 1.0}, // hot tenant
		2: {3: 1.0}, // idle tenant
	}
	tr := &Traffic{
		Tenant: map[TenantID]float64{1: 150_000, 2: 0},
		Shard:  map[ShardID]float64{0: 150_000},
		Worker: map[WorkerID]float64{0: 150_000},
	}
	res := MaxFlowBalance(topo, tr, rt, cfg)
	if !res.Satisfied {
		t.Fatal("satisfiable demand reported unsatisfied")
	}
	if w, ok := res.Table[2][3]; !ok || math.Abs(w-1) > 1e-9 {
		t.Errorf("idle tenant's route changed: %v", res.Table[2])
	}
	// The hot tenant must now span at least 2 shards (150k > 100k limit).
	if len(res.Table[1]) < 2 {
		t.Errorf("hot tenant still on %d shard(s)", len(res.Table[1]))
	}
}

func TestMaxFlowReducesShardStddev(t *testing.T) {
	// Core Figure 13 property: at θ=0.99 the balanced plan has a much
	// lower shard-load standard deviation than the unbalanced one.
	topo := testTopology(8, 4, 100_000, 450_000)
	cfg := DefaultBalancerConfig()
	tenants := make([]TenantID, 500)
	for i := range tenants {
		tenants[i] = TenantID(i)
	}
	before := InitialRouteTable(tenants, topo.Shards())
	tr := zipfTraffic(topo, before, 500, 0.99, 2_000_000)

	res := MaxFlowBalance(topo, tr, before, cfg)
	if !res.Satisfied {
		t.Fatal("unsatisfied")
	}
	stddev := func(rt RouteTable) float64 {
		load := shardTraffic(rt, tr.Tenant)
		xs := make([]float64, 0, len(topo.ShardWorker))
		for _, s := range topo.Shards() {
			xs = append(xs, load[s])
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return math.Sqrt(ss / float64(len(xs)))
	}
	sdBefore, sdAfter := stddev(before), stddev(res.Table)
	if sdAfter*2 > sdBefore {
		t.Errorf("stddev before %v, after %v — expected >= 2x reduction", sdBefore, sdAfter)
	}
}

// TestReadShardsMatchesReference holds ReadShards, after each of a run
// of random updates, to the union it used to build per call: the
// current and previous tables' shards and the fallback home, sorted.
func TestReadShardsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	shards := []ShardID{0, 1, 2, 3, 4, 5}
	r := NewRouter(shards, 1)
	home := NewConsistentHash(shards, 0)
	var prev RouteTable
	for trial := 0; trial < 100; trial++ {
		rt := RouteTable{}
		for tn := rng.Intn(5); tn > 0; tn-- {
			weights := map[ShardID]float64{}
			for sn := 1 + rng.Intn(3); sn > 0; sn-- {
				weights[shards[rng.Intn(len(shards))]] = 1
			}
			rt[TenantID(rng.Intn(10))] = weights
		}
		r.Update(rt)
		for tenant := TenantID(0); tenant < 12; tenant++ {
			seen := map[ShardID]bool{home.Owner(tenant): true}
			for s := range rt[tenant] {
				seen[s] = true
			}
			for s := range prev[tenant] {
				seen[s] = true
			}
			var want []ShardID
			for s := range seen {
				want = append(want, s)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if got := r.ReadShards(tenant); !slices.Equal(got, want) {
				t.Fatalf("trial %d: ReadShards(%d) = %v, want %v", trial, tenant, got, want)
			}
		}
		prev = rt
	}
}

// TestRouterConcurrentUpdate: writes and reads route while tables are
// installed; every read set holds the tenant's fallback home (run with
// -race).
func TestRouterConcurrentUpdate(t *testing.T) {
	shards := []ShardID{0, 1, 2, 3}
	r := NewRouter(shards, 1)
	home := NewConsistentHash(shards, 0).Owner(5)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = r.Route(5)
				if set := r.ReadShards(5); !slices.Contains(set, home) {
					t.Errorf("ReadShards(5) = %v, without home %d", set, home)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		r.Update(RouteTable{5: {ShardID(i % 4): 0.5, ShardID((i + 1) % 4): 0.5}})
	}
	close(done)
	wg.Wait()
}
