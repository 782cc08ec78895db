// Package controller implements LogStore's controller node (paper §3):
// cluster metadata management (the LogBlock catalog and its periodic
// checkpoint to object storage), the hotspot manager that drives global
// traffic control on a fixed cadence (Algorithm 1 runs every 300 s in
// production), background task scheduling (data expiration), and the
// cluster-scaling decision when demand exceeds the α watermark.
//
// The paper deploys the controller over a three-node ZooKeeper ensemble
// for HA; that is orthogonal to every evaluated behaviour, so this
// controller is a single in-process instance (see DESIGN.md,
// Substitutions).
package controller

import (
	"fmt"
	"sync"
	"time"

	"logstore/internal/flow"
	"logstore/internal/meta"
	"logstore/internal/oss"
	"logstore/internal/ship"
)

// Config configures the controller.
type Config struct {
	// Algorithm selects the TrafficSchedule implementation.
	Algorithm flow.Algorithm
	// Balancer holds thresholds (α, hot fraction, tenant-shard limit).
	Balancer flow.BalancerConfig
	// BalanceInterval is the hotspot-detection cadence (paper: 300 s;
	// simulations use much shorter). 0 disables the background loop;
	// RunBalanceOnce still works.
	BalanceInterval time.Duration
	// ExpireInterval is the retention-enforcement cadence (0 disables
	// the loop; RunExpireOnce still works).
	ExpireInterval time.Duration
	// CheckpointKey is the object key for catalog snapshots ("" = no
	// checkpointing).
	CheckpointKey string
	// CheckpointInterval is the snapshot cadence (0 disables the loop).
	CheckpointInterval time.Duration
	// ShipGens, when WAL shipping is enabled, is the cluster-wide
	// shipping-generation registry: the controller owns the metadata
	// that says which `wal/<shard>/<gen>` lineage is current, exactly
	// as it owns the LogBlock catalog.
	ShipGens *ship.Registry
}

// ScaleFunc is invoked when rebalancing cannot satisfy demand; it
// returns the enlarged topology (new workers/shards provisioned by the
// cluster harness) or ok=false when scaling is unavailable.
type ScaleFunc func() (*flow.Topology, bool)

// Controller is the cluster manager.
type Controller struct {
	cfg       Config
	sched     *flow.Scheduler
	collector *flow.Collector
	catalog   *meta.Manager
	store     *oss.RetryingStore
	scale     ScaleFunc

	stopc chan struct{}
	donec chan struct{}
	once  sync.Once

	mu           sync.Mutex
	rebalances   int
	scaleEvents  int
	expiredTotal int
}

// New constructs a controller over an existing topology.
func New(cfg Config, topo *flow.Topology, tenants []flow.TenantID,
	catalog *meta.Manager, store *oss.RetryingStore, scale ScaleFunc) (*Controller, error) {
	if catalog == nil || store == nil {
		return nil, fmt.Errorf("controller: nil catalog or store")
	}
	if cfg.Balancer == (flow.BalancerConfig{}) {
		cfg.Balancer = flow.DefaultBalancerConfig()
	}
	sched, err := flow.NewScheduler(topo, tenants, cfg.Algorithm, cfg.Balancer)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		sched:     sched,
		collector: flow.NewCollector(10 * time.Second),
		catalog:   catalog,
		store:     store,
		scale:     scale,
		stopc:     make(chan struct{}),
		donec:     make(chan struct{}),
	}
	return c, nil
}

// Scheduler exposes the traffic scheduler (brokers subscribe to it).
func (c *Controller) Scheduler() *flow.Scheduler { return c.sched }

// Collector exposes the traffic monitor (brokers/workers feed it).
func (c *Controller) Collector() *flow.Collector { return c.collector }

// Catalog exposes the metadata manager.
func (c *Controller) Catalog() *meta.Manager { return c.catalog }

// ShipGens exposes the WAL-shipping generation registry (nil when
// shipping is disabled).
func (c *Controller) ShipGens() *ship.Registry { return c.cfg.ShipGens }

// Start launches the background loops.
func (c *Controller) Start() {
	go c.run()
}

func (c *Controller) run() {
	defer close(c.donec)
	newTicker := func(d time.Duration) *time.Ticker {
		if d <= 0 {
			// Disabled: a ticker that never fires within any test.
			d = 24 * time.Hour
		}
		return time.NewTicker(d)
	}
	balance := newTicker(c.cfg.BalanceInterval)
	defer balance.Stop()
	expire := newTicker(c.cfg.ExpireInterval)
	defer expire.Stop()
	checkpoint := newTicker(c.cfg.CheckpointInterval)
	defer checkpoint.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case <-balance.C:
			if c.cfg.BalanceInterval > 0 {
				c.RunBalanceOnce()
			}
		case <-expire.C:
			if c.cfg.ExpireInterval > 0 {
				c.RunExpireOnce(time.Now().UnixMilli())
			}
		case <-checkpoint.C:
			if c.cfg.CheckpointInterval > 0 && c.cfg.CheckpointKey != "" {
				_ = c.Checkpoint()
			}
		}
	}
}

// Stop halts the background loops.
func (c *Controller) Stop() {
	c.once.Do(func() { close(c.stopc) })
	<-c.donec
}

// RunBalanceOnce executes one iteration of the traffic-control
// framework: snapshot traffic, detect hotspots, rebalance or scale.
func (c *Controller) RunBalanceOnce() flow.Action {
	tr := c.collector.Snapshot()
	action := c.sched.Rebalance(tr)
	switch action {
	case flow.ActionRebalanced:
		c.mu.Lock()
		c.rebalances++
		c.mu.Unlock()
	case flow.ActionScaleCluster:
		c.mu.Lock()
		c.scaleEvents++
		c.mu.Unlock()
		if c.scale != nil {
			if topo, ok := c.scale(); ok {
				// Retry the rebalance on the enlarged cluster.
				if err := c.sched.SetTopology(topo); err == nil {
					return c.sched.Rebalance(tr)
				}
			}
		}
	}
	return action
}

// RunExpireOnce deletes every LogBlock outside its tenant's retention
// window: the object first, then the catalog entry. Returns the number
// of blocks removed.
func (c *Controller) RunExpireOnce(nowMS int64) int {
	expired := c.catalog.Expired(nowMS)
	removed := 0
	for _, b := range expired {
		if err := c.store.Delete(b.Path); err != nil {
			continue // transient store error: retry next cycle
		}
		c.catalog.Remove(b.Tenant, b.Path)
		removed++
	}
	c.mu.Lock()
	c.expiredTotal += removed
	c.mu.Unlock()
	return removed
}

// Checkpoint snapshots the catalog to object storage.
func (c *Controller) Checkpoint() error {
	if c.cfg.CheckpointKey == "" {
		return fmt.Errorf("controller: no checkpoint key configured")
	}
	raw, err := c.catalog.Marshal()
	if err != nil {
		return fmt.Errorf("controller: marshal catalog: %w", err)
	}
	if err := c.store.Put(c.cfg.CheckpointKey, raw); err != nil {
		return fmt.Errorf("controller: upload checkpoint: %w", err)
	}
	return nil
}

// Recover restores the catalog from the last checkpoint.
func (c *Controller) Recover() error {
	if c.cfg.CheckpointKey == "" {
		return fmt.Errorf("controller: no checkpoint key configured")
	}
	raw, err := c.store.Get(c.cfg.CheckpointKey)
	if err != nil {
		return fmt.Errorf("controller: fetch checkpoint: %w", err)
	}
	return c.catalog.Unmarshal(raw)
}

// Stats reports controller activity.
func (c *Controller) Stats() (rebalances, scaleEvents, expired int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebalances, c.scaleEvents, c.expiredTotal
}
