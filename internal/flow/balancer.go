package flow

import (
	"math"
	"sort"
)

// BalancerConfig holds the thresholds of the traffic-control framework.
type BalancerConfig struct {
	// Alpha is the worker high watermark from Algorithm 1 (paper: 85%):
	// worker capacity offered to the flow network is α·c(D_k).
	Alpha float64
	// ShardHotFraction marks shard P_j hot when f(P_j) exceeds this
	// fraction of c(P_j).
	ShardHotFraction float64
	// TenantShardLimit is f_max, the maximum flow of a single tenant
	// one shard should carry (the paper's example: a shard processes up
	// to 100K entries/s of one tenant).
	TenantShardLimit float64
}

// DefaultBalancerConfig mirrors the paper's constants.
func DefaultBalancerConfig() BalancerConfig {
	return BalancerConfig{
		Alpha:            0.85,
		ShardHotFraction: 0.85,
		TenantShardLimit: 100_000,
	}
}

// loadRelEps is the relative slack of a load-versus-threshold test. A
// max-flow plan fills a shard to exactly its hot threshold, and a load
// summed over tenants in map order lands a rounding step either side of
// it; only a load past the threshold by more than that is over it.
const loadRelEps = 1e-9

// exceeds reports whether load is over limit by more than rounding.
func exceeds(load, limit float64) bool { return load > limit*(1+loadRelEps) }

// HotShards returns shards whose load exceeds the hot threshold
// (CheckHotSpot in Algorithm 1).
func HotShards(topo *Topology, tr *Traffic, cfg BalancerConfig) []ShardID {
	var hot []ShardID
	for s, f := range tr.Shard {
		if c, ok := topo.ShardCapacity[s]; ok && exceeds(f, cfg.ShardHotFraction*c) {
			hot = append(hot, s)
		}
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i] < hot[j] })
	return hot
}

// ClusterOverloaded reports whether total demand exceeds the α-scaled
// cluster capacity — Algorithm 1's condition for scaling out instead of
// rebalancing.
func ClusterOverloaded(topo *Topology, tr *Traffic, cfg BalancerConfig) bool {
	var demand, capacity float64
	for _, f := range tr.Worker {
		demand += f
	}
	for _, c := range topo.WorkerCapacity {
		capacity += c
	}
	return exceeds(demand, cfg.Alpha*capacity)
}

// shardTraffic computes f(X_ij)-derived per-shard loads implied by a
// route table and tenant demands (used for projections while editing).
func shardTraffic(rt RouteTable, tenant map[TenantID]float64) map[ShardID]float64 {
	out := make(map[ShardID]float64)
	for t, shards := range rt {
		f := tenant[t]
		for s, w := range shards {
			out[s] += w * f
		}
	}
	return out
}

// pickHotTenant returns the tenant contributing the most traffic to
// shard s under the current table (PickHotSpotTenant in the paper).
func pickHotTenant(rt RouteTable, tenant map[TenantID]float64, s ShardID) (TenantID, bool) {
	var best TenantID
	bestF := -1.0
	for t, shards := range rt {
		if w, ok := shards[s]; ok {
			if f := w * tenant[t]; f > bestF {
				bestF = f
				best = t
			}
		}
	}
	return best, bestF >= 0
}

// leastLoadedShard returns the shard with the most free capacity
// fraction given projected loads (GreedyFindLeastLoad).
func leastLoadedShard(topo *Topology, load map[ShardID]float64, exclude map[ShardID]bool) (ShardID, bool) {
	best := ShardID(-1)
	bestScore := math.Inf(1)
	for _, s := range topo.Shards() {
		if exclude != nil && exclude[s] {
			continue
		}
		score := load[s] / topo.ShardCapacity[s]
		if score < bestScore {
			bestScore = score
			best = s
		}
	}
	return best, best >= 0
}

// hotTenants gathers the hottest tenant of every hot shard (lines 2-4
// of Algorithms 2 and 3).
func hotTenants(rt RouteTable, tr *Traffic, hot []ShardID) []TenantID {
	seen := map[TenantID]bool{}
	var out []TenantID
	for _, s := range hot {
		if t, ok := pickHotTenant(rt, tr.Tenant, s); ok && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GreedyBalance implements Algorithm 2: split each hot tenant's traffic
// across enough least-loaded shards and average the weights.
func GreedyBalance(topo *Topology, tr *Traffic, current RouteTable, cfg BalancerConfig) RouteTable {
	rt := current.Clone()
	hot := HotShards(topo, tr, cfg)
	if len(hot) == 0 {
		return rt
	}
	load := shardTraffic(rt, tr.Tenant)
	for _, ki := range hotTenants(rt, tr, hot) {
		f := tr.Tenant[ki]
		// CalculateAddRoutesNum: total shards needed for this tenant.
		nTotal := int(math.Ceil(f / cfg.TenantShardLimit))
		if nTotal < 1 {
			nTotal = 1
		}
		routes := rt[ki]
		if routes == nil {
			routes = map[ShardID]float64{}
			rt[ki] = routes
		}
		nAdd := nTotal - len(routes)
		// A tenant picked from a hot shard always receives at least one
		// new route — this is why greedy "tends to distribute the
		// workload to more shards" than max flow (paper §6.2): it keeps
		// splitting hot tenants even when arithmetic says they fit.
		if nAdd < 1 {
			nAdd = 1
		}
		// Remove this tenant's current contribution from projections;
		// it will be re-spread evenly below.
		for s, w := range routes {
			load[s] -= w * f
		}
		for nAdd > 0 {
			exclude := map[ShardID]bool{}
			for s := range routes {
				exclude[s] = true
			}
			pl, ok := leastLoadedShard(topo, load, exclude)
			if !ok {
				break // no more distinct shards available
			}
			routes[pl] = 0
			nAdd--
		}
		// Average the weights across all of the tenant's routes.
		w := 1.0 / float64(len(routes))
		for s := range routes {
			routes[s] = w
			load[s] += w * f
		}
	}
	rt.Normalize()
	return rt
}

// MaxFlowResult carries the outcome of MaxFlowBalance.
type MaxFlowResult struct {
	Table RouteTable
	// MaxFlow is F_max of the final graph.
	MaxFlow float64
	// Satisfied reports whether F_max covers total tenant demand; when
	// false the framework must scale the cluster (Algorithm 1 line 25).
	Satisfied bool
	// EdgesAdded counts topology changes (route additions).
	EdgesAdded int
}

// MaxFlowBalance implements Algorithm 3: model the current routing as a
// flow network, compute max flow with Dinic's algorithm, add edges from
// unsatisfied hot tenants to least-loaded shards until demand is met,
// then set X_ij proportional to the computed flows.
func MaxFlowBalance(topo *Topology, tr *Traffic, current RouteTable, cfg BalancerConfig) MaxFlowResult {
	rt := current.Clone()
	tenants := make([]TenantID, 0, len(rt))
	for t := range rt {
		tenants = append(tenants, t)
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i] < tenants[j] })
	shards := topo.Shards()
	workers := topo.Workers()
	demand := tr.TotalTenant()

	// Vertex numbering: 0 = S; tenants; shards; workers; T.
	tIdx := make(map[TenantID]int, len(tenants))
	for i, t := range tenants {
		tIdx[t] = 1 + i
	}
	sIdx := make(map[ShardID]int, len(shards))
	for i, s := range shards {
		sIdx[s] = 1 + len(tenants) + i
	}
	wIdx := make(map[WorkerID]int, len(workers))
	for i, w := range workers {
		wIdx[w] = 1 + len(tenants) + len(shards) + i
	}
	sink := 1 + len(tenants) + len(shards) + len(workers)

	type edgeKey struct {
		t TenantID
		s ShardID
	}

	type solution struct {
		fmax       float64
		flows      map[edgeKey]float64
		sat        map[TenantID]float64
		shardFlow  map[ShardID]float64
		workerFlow map[WorkerID]float64
	}

	solve := func() solution {
		g := NewDinicGraph(sink + 1)
		type handle struct {
			u, idx int
		}
		edgeHandles := make(map[edgeKey]handle)
		srcHandles := make(map[TenantID]handle)
		shardHandles := make(map[ShardID]handle)
		workerHandles := make(map[WorkerID]handle)
		for _, t := range tenants {
			u, idx := g.AddEdge(0, tIdx[t], tr.Tenant[t])
			srcHandles[t] = handle{u, idx}
			// Insert tenant→shard edges in sorted shard order: Dinic
			// spreads flow among equally good paths in insertion order,
			// so map-order insertion would make the surviving route set
			// (and Routes() count) vary run to run.
			routed := make([]ShardID, 0, len(rt[t]))
			for s := range rt[t] {
				if _, ok := sIdx[s]; !ok {
					continue // route to a removed shard: dropped on normalize
				}
				routed = append(routed, s)
			}
			sort.Slice(routed, func(i, j int) bool { return routed[i] < routed[j] })
			for _, s := range routed {
				eu, eidx := g.AddEdge(tIdx[t], sIdx[s], cfg.TenantShardLimit)
				edgeHandles[edgeKey{t, s}] = handle{eu, eidx}
			}
		}
		for _, s := range shards {
			// Offer only the below-hot-threshold share of shard capacity
			// so the converged plan leaves no shard above the hotspot
			// watermark (otherwise rebalancing would oscillate).
			u, idx := g.AddEdge(sIdx[s], wIdx[topo.ShardWorker[s]], cfg.ShardHotFraction*topo.ShardCapacity[s])
			shardHandles[s] = handle{u, idx}
		}
		for _, w := range workers {
			u, idx := g.AddEdge(wIdx[w], sink, cfg.Alpha*topo.WorkerCapacity[w])
			workerHandles[w] = handle{u, idx}
		}
		sol := solution{fmax: g.MaxFlow(0, sink)}
		sol.flows = make(map[edgeKey]float64, len(edgeHandles))
		for k, h := range edgeHandles {
			sol.flows[k] = g.Flow(h.u, h.idx)
		}
		sol.sat = make(map[TenantID]float64, len(srcHandles))
		for t, h := range srcHandles {
			sol.sat[t] = g.Flow(h.u, h.idx)
		}
		sol.shardFlow = make(map[ShardID]float64, len(shardHandles))
		for s, h := range shardHandles {
			sol.shardFlow[s] = g.Flow(h.u, h.idx)
		}
		sol.workerFlow = make(map[WorkerID]float64, len(workerHandles))
		for w, h := range workerHandles {
			sol.workerFlow[w] = g.Flow(h.u, h.idx)
		}
		return sol
	}

	res := MaxFlowResult{}
	sol := solve()

	// Add edges until the graph can carry the demand (lines 9-19). New
	// edges target shards with real residual capacity in the current
	// flow solution — min of shard headroom and the owning worker's
	// watermark headroom — so every added route is actually usable.
	// The iteration cap prevents spinning when capacity is fundamentally
	// insufficient — that case exits with Satisfied=false.
	maxRounds := 2*len(shards) + 8
	shardFree := func(free map[ShardID]float64, wfree map[WorkerID]float64, s ShardID) float64 {
		return math.Min(free[s], wfree[topo.ShardWorker[s]])
	}
	addEdge := func(ki TenantID, free map[ShardID]float64, wfree map[WorkerID]float64) bool {
		best := ShardID(-1)
		bestFree := dinicEps
		for _, s := range shards {
			if _, exists := rt[ki][s]; exists {
				continue
			}
			if f := shardFree(free, wfree, s); f > bestFree {
				bestFree = f
				best = s
			}
		}
		if best < 0 {
			return false
		}
		if rt[ki] == nil {
			rt[ki] = map[ShardID]float64{}
		}
		rt[ki][best] = 0 // weight set from flows below
		gain := math.Min(cfg.TenantShardLimit, math.Min(tr.Tenant[ki]-sol.sat[ki], bestFree))
		if gain < 0 {
			gain = 0
		}
		free[best] -= gain
		wfree[topo.ShardWorker[best]] -= gain
		res.EdgesAdded++
		return true
	}

	for round := 0; demand > sol.fmax+dinicEps && round < maxRounds; round++ {
		free := make(map[ShardID]float64, len(shards))
		for _, s := range shards {
			free[s] = cfg.ShardHotFraction*topo.ShardCapacity[s] - sol.shardFlow[s]
		}
		wfree := make(map[WorkerID]float64, len(workers))
		for _, w := range workers {
			wfree[w] = cfg.Alpha*topo.WorkerCapacity[w] - sol.workerFlow[w]
		}
		progressed := false

		// Structural deficits first: a tenant whose demand exceeds the
		// combined f_max of its edges can never be satisfied by weight
		// adjustment alone, so give it the edges it arithmetically needs.
		for _, t := range tenants {
			need := int(math.Ceil(tr.Tenant[t]/cfg.TenantShardLimit)) - len(rt[t])
			for i := 0; i < need; i++ {
				if addEdge(t, free, wfree) {
					progressed = true
				} else {
					break
				}
			}
		}
		// Collision relief: when every tenant has enough edge capacity
		// but shards are contended, add edges for the largest-deficit
		// tenants — no more per round than the global deficit warrants,
		// re-solving in between. Conservative edge addition is what
		// keeps the route count below greedy's (the Figure 12c claim).
		if !progressed {
			type deficit struct {
				t TenantID
				d float64
			}
			var cands []deficit
			for _, t := range tenants {
				if d := tr.Tenant[t] - sol.sat[t]; d > dinicEps {
					cands = append(cands, deficit{t, d})
				}
			}
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].d != cands[j].d {
					return cands[i].d > cands[j].d
				}
				return cands[i].t < cands[j].t
			})
			// One new edge per unsatisfied tenant per round (Algorithm 3
			// lines 10-15). Edges that end up carrying no flow are
			// dropped by Normalize, so the final route count stays
			// minimal even though addition is generous.
			for _, c := range cands {
				if addEdge(c.t, free, wfree) {
					progressed = true
				}
			}
		}
		if !progressed {
			break
		}
		sol = solve()
	}
	fmax, flows := sol.fmax, sol.flows

	// Set weights from the flow solution (lines 21-25). Idle tenants
	// (zero demand or zero routed flow) keep their existing weights.
	for _, t := range tenants {
		var totalF float64
		for s := range rt[t] {
			totalF += flows[edgeKey{t, s}]
		}
		if totalF <= dinicEps {
			continue
		}
		for s := range rt[t] {
			rt[t][s] = flows[edgeKey{t, s}] / totalF
		}
	}
	rt.Normalize()

	res.Table = rt
	res.MaxFlow = fmax
	res.Satisfied = demand <= fmax+1e-6*math.Max(1, demand)
	return res
}
