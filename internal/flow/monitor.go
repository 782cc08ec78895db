package flow

import (
	"sync"
	"time"

	"logstore/internal/metrics"
)

// Collector is the monitor module of the hotspot manager (paper §4.1.3):
// it aggregates runtime traffic of tenants, shards, and workers over a
// sliding window and produces the Traffic snapshots the balancer
// consumes. "It collects tenant traffic f(Ki), shard load f(Pj) and
// worker node load f(Dk)."
type Collector struct {
	mu      sync.Mutex
	window  time.Duration
	buckets int
	now     func() time.Time // every rate's clock
	tenant  map[TenantID]*metrics.Rate
	shard   map[ShardID]*metrics.Rate
	worker  map[WorkerID]*metrics.Rate
}

// TenantRows is one tenant's rows of a committed unit.
type TenantRows struct {
	Tenant TenantID
	Rows   int64
}

// NewCollector returns a collector averaging over the given window
// (0 = 10s) split into per-second buckets.
func NewCollector(window time.Duration) *Collector {
	if window <= 0 {
		window = 10 * time.Second
	}
	buckets := int(window / time.Second)
	if buckets < 1 {
		buckets = 1
	}
	return &Collector{
		window:  window,
		buckets: buckets,
		now:     time.Now,
		tenant:  make(map[TenantID]*metrics.Rate),
		shard:   make(map[ShardID]*metrics.Rate),
		worker:  make(map[WorkerID]*metrics.Rate),
	}
}

func (c *Collector) span() time.Duration {
	return c.window / time.Duration(c.buckets)
}

// SetClock makes now the time source of the collector and of every
// rate it keeps; for deterministic tests.
func (c *Collector) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
	for _, r := range c.tenant {
		r.SetClock(now)
	}
	for _, r := range c.shard {
		r.SetClock(now)
	}
	for _, r := range c.worker {
		r.SetClock(now)
	}
}

// Record accounts n units of traffic from tenant t landing on shard s
// of worker w.
func (c *Collector) Record(t TenantID, s ShardID, w WorkerID, n int64) {
	c.RecordUnit(s, w, []TenantRows{{Tenant: t, Rows: n}})
}

// RecordUnit accounts one committed unit: the rows of each tenant sub,
// all landing on shard s of worker w. The unit costs one collector lock
// and one clock read; each tenant's rate takes its sub's rows, and the
// shard and worker rates the unit's total, once.
func (c *Collector) RecordUnit(s ShardID, w WorkerID, subs []TenantRows) {
	if len(subs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	nowNS := c.now().UnixNano()
	var total int64
	for _, sub := range subs {
		rateOf(c, c.tenant, sub.Tenant).AddAt(nowNS, sub.Rows)
		total += sub.Rows
	}
	rateOf(c, c.shard, s).AddAt(nowNS, total)
	rateOf(c, c.worker, w).AddAt(nowNS, total)
}

// rateOf returns the rate of key k in m, made on first use. c.mu is
// held.
func rateOf[K comparable](c *Collector, m map[K]*metrics.Rate, k K) *metrics.Rate {
	r, ok := m[k]
	if !ok {
		r = metrics.NewRate(c.buckets, c.span())
		r.SetClock(c.now)
		m[k] = r
	}
	return r
}

// Snapshot returns the current rates (units/sec) for every observed
// tenant, shard, and worker.
func (c *Collector) Snapshot() *Traffic {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr := &Traffic{
		Tenant: make(map[TenantID]float64, len(c.tenant)),
		Shard:  make(map[ShardID]float64, len(c.shard)),
		Worker: make(map[WorkerID]float64, len(c.worker)),
	}
	for t, r := range c.tenant {
		tr.Tenant[t] = r.PerSecond()
	}
	for s, r := range c.shard {
		tr.Shard[s] = r.PerSecond()
	}
	for w, r := range c.worker {
		tr.Worker[w] = r.PerSecond()
	}
	return tr
}

// Reset discards all observed rates (used between experiment phases).
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenant = make(map[TenantID]*metrics.Rate)
	c.shard = make(map[ShardID]*metrics.Rate)
	c.worker = make(map[WorkerID]*metrics.Rate)
}
