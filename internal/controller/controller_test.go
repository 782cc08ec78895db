package controller

import (
	"errors"
	"testing"
	"time"

	"logstore/internal/flow"
	"logstore/internal/meta"
	"logstore/internal/oss"
)

func topo(workers, shardsPer int) *flow.Topology {
	t := &flow.Topology{
		ShardWorker:    map[flow.ShardID]flow.WorkerID{},
		ShardCapacity:  map[flow.ShardID]float64{},
		WorkerCapacity: map[flow.WorkerID]float64{},
	}
	sid := 0
	for w := 0; w < workers; w++ {
		t.WorkerCapacity[flow.WorkerID(w)] = 200_000
		for s := 0; s < shardsPer; s++ {
			t.ShardWorker[flow.ShardID(sid)] = flow.WorkerID(w)
			t.ShardCapacity[flow.ShardID(sid)] = 100_000
			sid++
		}
	}
	return t
}

func newController(t *testing.T, cfg Config, scale ScaleFunc) (*Controller, *oss.MemStore) {
	t.Helper()
	store := oss.NewMemStore()
	c, err := New(cfg, topo(2, 2), []flow.TenantID{1, 2}, meta.NewManager(), oss.WithDefaultRetry(store), scale)
	if err != nil {
		t.Fatal(err)
	}
	return c, store
}

func TestNewValidation(t *testing.T) {
	store := oss.WithDefaultRetry(oss.NewMemStore())
	if _, err := New(Config{}, topo(1, 1), nil, nil, store, nil); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := New(Config{}, topo(1, 1), nil, meta.NewManager(), nil, nil); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New(Config{}, &flow.Topology{}, nil, meta.NewManager(), store, nil); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestBalanceOnceRebalances(t *testing.T) {
	c, _ := newController(t, Config{Algorithm: flow.AlgorithmMaxFlow}, nil)
	// Feed a hot tenant through the collector: tenant 1 hammers its
	// home shard far past the shard hot threshold.
	home := flow.ShardID(-1)
	for s := range c.Scheduler().Table()[1] {
		home = s
	}
	w := flow.WorkerID(0)
	for sh, wk := range c.Scheduler().Topology().ShardWorker {
		if sh == home {
			w = wk
		}
	}
	// The collector averages over a 10 s window, so feeding 1.3M total
	// yields f ≈ 130k/s — beyond the 85k/s shard hot threshold.
	for i := 0; i < 10; i++ {
		c.Collector().Record(1, home, w, 130_000)
	}
	if action := c.RunBalanceOnce(); action != flow.ActionRebalanced {
		t.Fatalf("action = %v", action)
	}
	if len(c.Scheduler().Table()[1]) < 2 {
		t.Error("hot tenant not split")
	}
	reb, _, _ := c.Stats()
	if reb != 1 {
		t.Errorf("rebalances = %d", reb)
	}
}

func TestBalanceOnceScales(t *testing.T) {
	scaled := false
	scale := func() (*flow.Topology, bool) {
		scaled = true
		return topo(4, 2), true // doubled cluster
	}
	c, _ := newController(t, Config{Algorithm: flow.AlgorithmMaxFlow}, scale)
	home := flow.ShardID(-1)
	for s := range c.Scheduler().Table()[1] {
		home = s
	}
	wk := c.Scheduler().Topology().ShardWorker[home]
	// Demand beyond the 2-worker α capacity (2*200k*0.85 = 340k/s):
	// 5M over the 10 s window ≈ 500k/s.
	for i := 0; i < 10; i++ {
		c.Collector().Record(1, home, wk, 500_000)
	}
	action := c.RunBalanceOnce()
	if !scaled {
		t.Fatal("scale function never invoked")
	}
	_, scaleEvents, _ := c.Stats()
	if scaleEvents != 1 {
		t.Errorf("scaleEvents = %d", scaleEvents)
	}
	// After scaling the retried rebalance may succeed or still demand
	// more; both are legitimate actions.
	if action == flow.ActionNone {
		t.Errorf("action = %v", action)
	}
	if got := len(c.Scheduler().Topology().WorkerCapacity); got != 4 {
		t.Errorf("topology not replaced after scale: %d workers", got)
	}
}

func TestExpiration(t *testing.T) {
	c, store := newController(t, Config{}, nil)
	cat := c.Catalog()
	cat.SetRetention(1, time.Hour)
	// Two blocks: one stale, one fresh.
	stale := meta.BlockInfo{Tenant: 1, Path: "t/old", MinTS: 0, MaxTS: 1000}
	fresh := meta.BlockInfo{Tenant: 1, Path: "t/new", MinTS: 7_000_000, MaxTS: 7_200_000}
	for _, b := range []meta.BlockInfo{stale, fresh} {
		if err := store.Put(b.Path, []byte("block")); err != nil {
			t.Fatal(err)
		}
		if err := cat.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	nowMS := int64(2 * 3600_000) // 2h: cutoff at 1h = 3.6M ms
	removed := c.RunExpireOnce(nowMS)
	if removed != 1 {
		t.Fatalf("removed = %d", removed)
	}
	if _, err := store.Get("t/old"); !errors.Is(err, oss.ErrNotFound) {
		t.Error("stale object not deleted")
	}
	if _, err := store.Get("t/new"); err != nil {
		t.Error("fresh object deleted")
	}
	if blocks := cat.Blocks(1); len(blocks) != 1 || blocks[0].Path != "t/new" {
		t.Errorf("catalog after expire: %+v", blocks)
	}
	_, _, expired := c.Stats()
	if expired != 1 {
		t.Errorf("expired counter = %d", expired)
	}
}

func TestCheckpointRecover(t *testing.T) {
	c, store := newController(t, Config{CheckpointKey: "meta/checkpoint"}, nil)
	if err := c.Catalog().Register(meta.BlockInfo{Tenant: 9, Path: "p", MinTS: 1, MaxTS: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A fresh controller recovers the catalog from OSS.
	c2, err := New(Config{CheckpointKey: "meta/checkpoint"}, topo(2, 2), nil, meta.NewManager(), oss.WithDefaultRetry(store), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Recover(); err != nil {
		t.Fatal(err)
	}
	if blocks := c2.Catalog().Blocks(9); len(blocks) != 1 || blocks[0].Path != "p" {
		t.Errorf("recovered catalog: %+v", blocks)
	}
	// No key configured.
	c3, _ := newController(t, Config{}, nil)
	if err := c3.Checkpoint(); err == nil {
		t.Error("checkpoint without key accepted")
	}
	if err := c3.Recover(); err == nil {
		t.Error("recover without key accepted")
	}
}

func TestBackgroundLoops(t *testing.T) {
	c, store := newController(t, Config{
		Algorithm:          flow.AlgorithmMaxFlow,
		BalanceInterval:    10 * time.Millisecond,
		ExpireInterval:     10 * time.Millisecond,
		CheckpointInterval: 10 * time.Millisecond,
		CheckpointKey:      "meta/ckpt",
	}, nil)
	c.Catalog().SetRetention(1, time.Millisecond)
	if err := store.Put("t/x", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := c.Catalog().Register(meta.BlockInfo{Tenant: 1, Path: "t/x", MinTS: 0, MaxTS: 1}); err != nil {
		t.Fatal(err)
	}
	c.Start()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		_, _, expired := c.Stats()
		_, ckptErr := store.Get("meta/ckpt")
		if expired >= 1 && ckptErr == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Stop()
	_, _, expired := c.Stats()
	if expired < 1 {
		t.Error("expiration loop never ran")
	}
	if _, err := store.Get("meta/ckpt"); err != nil {
		t.Error("checkpoint loop never ran")
	}
}
