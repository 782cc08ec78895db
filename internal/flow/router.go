package flow

import (
	"math/rand"
	"slices"
	"sync"
)

// Router is the broker-side R/W router: it holds the latest routing
// table pushed by the scheduler and picks a destination shard per
// write, spreading a tenant's traffic across its routes by weight.
// Reads consult the union of old and new plans (see ReadShards).
//
// Update compiles each table into the form the request path reads, so
// that neither a write's pick nor a query's read set sorts, builds a
// map or allocates.
type Router struct {
	mu       sync.RWMutex
	table    RouteTable
	routes   routes                 // table, compiled for Route
	reads    map[TenantID][]ShardID // ReadShards of every tenant in table or prev
	homes    map[ShardID][]ShardID  // ReadShards of any other tenant, by its fallback home
	fallback *ConsistentHash
	rng      *rand.Rand
}

// NewRouter returns a router that falls back to consistent hashing for
// tenants absent from the table.
func NewRouter(shards []ShardID, seed int64) *Router {
	homes := make(map[ShardID][]ShardID, len(shards))
	for _, s := range shards {
		homes[s] = []ShardID{s}
	}
	return &Router{
		table:    RouteTable{},
		homes:    homes,
		fallback: NewConsistentHash(shards, 0),
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Update installs a new routing table (called by the scheduler's push;
// the previous table is retained for read routing).
func (r *Router) Update(rt RouteTable) {
	routes := compileRoutes(rt)
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.table
	reads := make(map[TenantID][]ShardID, len(rt)+len(prev))
	for _, tbl := range []RouteTable{rt, prev} {
		for t := range tbl {
			if _, done := reads[t]; done {
				continue
			}
			set := []ShardID{r.fallback.Owner(t)}
			for s := range rt[t] {
				set = append(set, s)
			}
			for s := range prev[t] {
				set = append(set, s)
			}
			slices.Sort(set)
			reads[t] = slices.Clip(slices.Compact(set))
		}
	}
	r.table, r.routes, r.reads = rt, routes, reads
}

// Route picks the destination shard for one write of the tenant.
func (r *Router) Route(t TenantID) ShardID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.routes.pick(t, r.rng.Float64()); ok {
		return s
	}
	return r.fallback.Owner(t)
}

// ReadShards returns every shard that may hold recent data of the
// tenant, ascending: the union of current and previous plans plus the
// fallback home shard. The slice is shared; the caller must not modify
// it.
func (r *Router) ReadShards(t TenantID) []ShardID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if set, ok := r.reads[t]; ok {
		return set
	}
	home := r.fallback.Owner(t)
	if set, ok := r.homes[home]; ok {
		return set
	}
	return []ShardID{home}
}

// Table returns a copy of the active table.
func (r *Router) Table() RouteTable {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.table.Clone()
}

// routes is a RouteTable compiled for picking: per tenant, its shards
// ascending with the running sums of their weights.
type routes map[TenantID]tenantRoutes

type tenantRoutes struct {
	shards []ShardID
	upTo   []float64 // upTo[i]: the weights of shards[:i+1], summed in order
}

func compileRoutes(rt RouteTable) routes {
	out := make(routes, len(rt))
	for t, weights := range rt {
		if len(weights) == 0 {
			continue
		}
		tr := tenantRoutes{shards: make([]ShardID, 0, len(weights)), upTo: make([]float64, len(weights))}
		for s := range weights {
			tr.shards = append(tr.shards, s)
		}
		slices.Sort(tr.shards)
		var acc float64
		for i, s := range tr.shards {
			acc += weights[s]
			tr.upTo[i] = acc
		}
		out[t] = tr
	}
	return out
}

// pick selects a shard for one record given a uniform random r in
// [0, 1): the first shard, ascending, whose running weight passes r, or
// the last when rounding leaves r past them all. The choice is
// deterministic for a given (table, r).
func (rs routes) pick(tenant TenantID, r float64) (ShardID, bool) {
	tr, ok := rs[tenant]
	if !ok {
		return 0, false
	}
	for i, acc := range tr.upTo {
		if r < acc {
			return tr.shards[i], true
		}
	}
	return tr.shards[len(tr.shards)-1], true
}
