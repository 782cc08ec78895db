// Package flow implements LogStore's global traffic control (paper §4.1):
// the tenant→shard→worker flow-network model (Figure 5), the greedy
// rebalancer (Algorithm 2), the max-flow rebalancer built on Dinic's
// algorithm (Algorithm 3), and the monitor/balancer/router framework
// (Figure 6, Algorithm 1) that turns runtime traffic metrics into
// weighted tenant routing tables without any data migration.
package flow

import (
	"fmt"

	"math"
	"sort"
)

// TenantID identifies a tenant (K_i in the paper).
type TenantID int64

// ShardID identifies a table shard (P_j).
type ShardID int

// WorkerID identifies a worker node (D_k).
type WorkerID int

// Topology describes the cluster's static-ish structure: where each
// shard lives and the capacity of each shard and worker, in the same
// unit as traffic rates (e.g. log entries per second).
type Topology struct {
	ShardWorker    map[ShardID]WorkerID
	ShardCapacity  map[ShardID]float64
	WorkerCapacity map[WorkerID]float64
}

// Clone deep-copies the topology.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		ShardWorker:    make(map[ShardID]WorkerID, len(t.ShardWorker)),
		ShardCapacity:  make(map[ShardID]float64, len(t.ShardCapacity)),
		WorkerCapacity: make(map[WorkerID]float64, len(t.WorkerCapacity)),
	}
	for k, v := range t.ShardWorker {
		c.ShardWorker[k] = v
	}
	for k, v := range t.ShardCapacity {
		c.ShardCapacity[k] = v
	}
	for k, v := range t.WorkerCapacity {
		c.WorkerCapacity[k] = v
	}
	return c
}

// Validate checks structural consistency.
func (t *Topology) Validate() error {
	if len(t.ShardWorker) == 0 {
		return fmt.Errorf("flow: topology has no shards")
	}
	for s, w := range t.ShardWorker {
		if _, ok := t.WorkerCapacity[w]; !ok {
			return fmt.Errorf("flow: shard %d placed on unknown worker %d", s, w)
		}
		if c, ok := t.ShardCapacity[s]; !ok || c <= 0 {
			return fmt.Errorf("flow: shard %d has no positive capacity", s)
		}
	}
	for w, c := range t.WorkerCapacity {
		if c <= 0 {
			return fmt.Errorf("flow: worker %d has non-positive capacity", w)
		}
	}
	return nil
}

// Shards returns shard ids in ascending order.
func (t *Topology) Shards() []ShardID {
	out := make([]ShardID, 0, len(t.ShardWorker))
	for s := range t.ShardWorker {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Workers returns worker ids in ascending order.
func (t *Topology) Workers() []WorkerID {
	out := make([]WorkerID, 0, len(t.WorkerCapacity))
	for w := range t.WorkerCapacity {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Traffic is a sampled snapshot of current flow: f(K_i), f(P_j), f(D_k).
type Traffic struct {
	Tenant map[TenantID]float64
	Shard  map[ShardID]float64
	Worker map[WorkerID]float64
}

// TotalTenant sums tenant demand Σ f(K_i).
func (tr *Traffic) TotalTenant() float64 {
	var sum float64
	for _, f := range tr.Tenant {
		sum += f
	}
	return sum
}

// RouteTable maps each tenant to its shard weights X_ij; weights are
// positive and sum to 1 per tenant.
type RouteTable map[TenantID]map[ShardID]float64

// Clone deep-copies the table.
func (rt RouteTable) Clone() RouteTable {
	c := make(RouteTable, len(rt))
	for t, shards := range rt {
		m := make(map[ShardID]float64, len(shards))
		for s, w := range shards {
			m[s] = w
		}
		c[t] = m
	}
	return c
}

// Routes counts the total number of tenant→shard edges — the "number of
// route rules" metric of Figure 12(c).
func (rt RouteTable) Routes() int {
	n := 0
	for _, shards := range rt {
		n += len(shards)
	}
	return n
}

// Normalize rescales every tenant's weights to sum to 1, dropping
// non-positive entries. Tenants left with no shards are removed.
func (rt RouteTable) Normalize() {
	for t, shards := range rt {
		var sum float64
		for s, w := range shards {
			if w <= 0 {
				delete(shards, s)
				continue
			}
			sum += w
		}
		if len(shards) == 0 || sum <= 0 {
			delete(rt, t)
			continue
		}
		for s := range shards {
			shards[s] /= sum
		}
	}
}

// Validate checks weight invariants.
func (rt RouteTable) Validate() error {
	for t, shards := range rt {
		if len(shards) == 0 {
			return fmt.Errorf("flow: tenant %d has no routes", t)
		}
		var sum float64
		for s, w := range shards {
			if w <= 0 {
				return fmt.Errorf("flow: tenant %d shard %d has non-positive weight %v", t, s, w)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("flow: tenant %d weights sum to %v", t, sum)
		}
	}
	return nil
}

// ConsistentHash assigns a tenant to its home shard (Algorithm 1's
// initial placement: P_j ← ConsistentHash(K_i), X_ij ← 100%).
type ConsistentHash struct {
	ring   []uint32
	owners map[uint32]ShardID
}

// splitmix64 is the ring's point hash: a strong finalizer so that the
// short, similar (shard, vnode) inputs spread uniformly. Plain FNV over
// formatted strings leaves visible clustering that unbalances the
// initial placement.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewConsistentHash builds a ring with vnodes virtual nodes per shard.
// Higher vnode counts smooth per-shard arc shares; 512 keeps the
// placement imbalance within a few percent, so a uniform workload stays
// balanced without any traffic control (the paper's θ=0 baseline).
func NewConsistentHash(shards []ShardID, vnodes int) *ConsistentHash {
	if vnodes <= 0 {
		vnodes = 512
	}
	ch := &ConsistentHash{owners: make(map[uint32]ShardID)}
	for _, s := range shards {
		for v := 0; v < vnodes; v++ {
			// Domain-separated from the tenant hash: identical integer
			// inputs must not produce identical ring points, or tenants
			// would land exactly on one shard's vnodes.
			point := uint32(splitmix64((uint64(uint32(s))<<32|uint64(uint32(v)))^0x5AFE_C0DE_D00D_F00D) >> 32)
			// Skip rare collisions deterministically.
			if _, exists := ch.owners[point]; exists {
				continue
			}
			ch.owners[point] = s
			ch.ring = append(ch.ring, point)
		}
	}
	sort.Slice(ch.ring, func(i, j int) bool { return ch.ring[i] < ch.ring[j] })
	return ch
}

// Owner returns the shard owning the tenant.
func (ch *ConsistentHash) Owner(t TenantID) ShardID {
	if len(ch.ring) == 0 {
		return 0
	}
	point := uint32(splitmix64(uint64(t)^0x7E2A_17B1_FEED_BEEF) >> 32)
	idx := sort.Search(len(ch.ring), func(i int) bool { return ch.ring[i] >= point })
	if idx == len(ch.ring) {
		idx = 0
	}
	return ch.owners[ch.ring[idx]]
}

// InitialRouteTable assigns every tenant 100% to its consistent-hash
// home shard.
func InitialRouteTable(tenants []TenantID, shards []ShardID) RouteTable {
	ch := NewConsistentHash(shards, 0)
	rt := make(RouteTable, len(tenants))
	for _, t := range tenants {
		rt[t] = map[ShardID]float64{ch.Owner(t): 1.0}
	}
	return rt
}
