package flow

import (
	"fmt"
	"sync"
)

// Algorithm selects the TrafficSchedule() implementation.
type Algorithm int

// Available balancing algorithms.
const (
	// AlgorithmNone disables rebalancing (the "Before Balancing"
	// baseline in the evaluation).
	AlgorithmNone Algorithm = iota
	// AlgorithmGreedy is Algorithm 2.
	AlgorithmGreedy
	// AlgorithmMaxFlow is Algorithm 3.
	AlgorithmMaxFlow
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmNone:
		return "none"
	case AlgorithmGreedy:
		return "greedy"
	case AlgorithmMaxFlow:
		return "maxflow"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Action is the decision of one framework iteration.
type Action int

// Framework decisions (Algorithm 1).
const (
	// ActionNone: no hot shards detected.
	ActionNone Action = iota
	// ActionRebalanced: TrafficSchedule produced and installed a plan.
	ActionRebalanced
	// ActionScaleCluster: demand exceeds α-scaled capacity; workers
	// must be added (line 25).
	ActionScaleCluster
)

// Scheduler is the balancer+router pair of the hotspot manager: it owns
// the authoritative routing table, runs the traffic-control framework
// iteration, and pushes updates to subscribed routers (brokers).
type Scheduler struct {
	cfg  BalancerConfig
	algo Algorithm

	mu        sync.Mutex
	topo      *Topology
	ring      *ConsistentHash // topo's shards; rebuilt only by SetTopology
	table     RouteTable
	listeners []func(RouteTable)
}

// NewScheduler builds a scheduler with an initial consistent-hash
// placement for the given tenants.
func NewScheduler(topo *Topology, tenants []TenantID, algo Algorithm, cfg BalancerConfig) (*Scheduler, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{cfg: cfg, algo: algo, topo: topo.Clone(), table: make(RouteTable, len(tenants))}
	s.ring = NewConsistentHash(s.topo.Shards(), 0)
	s.ensureLocked(tenants)
	return s, nil
}

// Subscribe registers a routing-table listener (a broker's router); it
// is immediately called with the current table.
func (s *Scheduler) Subscribe(fn func(RouteTable)) {
	s.mu.Lock()
	s.listeners = append(s.listeners, fn)
	rt := s.table.Clone()
	s.mu.Unlock()
	fn(rt)
}

// Table returns a copy of the current routing table.
func (s *Scheduler) Table() RouteTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Clone()
}

// Topology returns a copy of the scheduler's cluster view.
func (s *Scheduler) Topology() *Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.topo.Clone()
}

// SetTopology replaces the cluster view (after scaling).
func (s *Scheduler) SetTopology(topo *Topology) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	s.topo = topo.Clone()
	s.ring = NewConsistentHash(s.topo.Shards(), 0)
	s.mu.Unlock()
	return nil
}

// EnsureTenant adds a consistent-hash route for a tenant first seen
// after construction.
func (s *Scheduler) EnsureTenant(t TenantID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLocked([]TenantID{t})
}

// EnsureTenants adds routes for every listed tenant not yet in the
// table, under one lock acquisition. The append hot path calls this
// once per client batch instead of once per row; ids may repeat (the
// caller needn't dedup — the table lookup is the dedup).
func (s *Scheduler) EnsureTenants(ts []TenantID) {
	if len(ts) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLocked(ts)
}

// ensureLocked inserts missing routes, each on its home shard of the
// scheduler's ring.
func (s *Scheduler) ensureLocked(ts []TenantID) {
	for _, t := range ts {
		if _, ok := s.table[t]; !ok {
			s.table[t] = map[ShardID]float64{s.ring.Owner(t): 1.0}
		}
	}
}

// Rebalance runs one iteration of the Global Traffic Control Framework
// (Algorithm 1, lines 9-28) against a traffic snapshot and returns the
// action taken.
func (s *Scheduler) Rebalance(tr *Traffic) Action {
	s.mu.Lock()
	topo := s.topo
	cur := s.table
	algo := s.algo
	cfg := s.cfg
	s.mu.Unlock()

	if algo == AlgorithmNone {
		return ActionNone
	}
	hot := HotShards(topo, tr, cfg)
	if len(hot) == 0 {
		return ActionNone
	}
	if ClusterOverloaded(topo, tr, cfg) {
		return ActionScaleCluster
	}

	var next RouteTable
	switch algo {
	case AlgorithmGreedy:
		next = GreedyBalance(topo, tr, cur, cfg)
	case AlgorithmMaxFlow:
		res := MaxFlowBalance(topo, tr, cur, cfg)
		if !res.Satisfied {
			return ActionScaleCluster
		}
		next = res.Table
	}
	s.install(next)
	return ActionRebalanced
}

// install publishes a new table to every subscriber transactionally
// (all routers see the same version).
func (s *Scheduler) install(next RouteTable) {
	s.mu.Lock()
	s.table = next
	fns := make([]func(RouteTable), len(s.listeners))
	copy(fns, s.listeners)
	snapshot := next.Clone()
	s.mu.Unlock()
	for _, fn := range fns {
		fn(snapshot)
	}
}
