// Hotspot scenario (paper §4): a tenant's traffic surges — an online
// promotion — overloading its home shard. The hotspot manager detects
// the skew from runtime metrics and rebalances with the max-flow
// algorithm, splitting the tenant's write traffic across shards by
// weight, without migrating any data. The example prints the routing
// table as it evolves and compares the greedy baseline.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"logstore"
	"logstore/internal/flow"
)

func main() {
	fmt.Println("=== max-flow scheduling ===")
	run(logstore.AlgorithmMaxFlow)
	fmt.Println("\n=== greedy scheduling (baseline) ===")
	run(logstore.AlgorithmGreedy)
}

func run(algo logstore.Algorithm) {
	c, err := logstore.Open(logstore.Config{
		Workers:              3,
		ShardsPerWorker:      2,
		Algorithm:            algo,
		WorkerCapacityPerSec: 200_000,
		ShardCapacityPerSec:  100_000,
		TenantShardLimit:     100_000,
		ArchiveInterval:      time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Background tenants (and tenant 0 pre-surge): modest steady traffic.
	for t := int64(0); t <= 20; t++ {
		feed(c, t, 3_000)
	}
	fmt.Println("before the surge:")
	printRoutes(c, 0)

	// Tenant 0 surges to ~350k rows/s — far beyond one shard's 100k
	// capacity. (Traffic is recorded into the monitor the way brokers
	// do; the 10s monitoring window averages it.)
	feed(c, 0, 350_000)

	action := c.RebalanceNow()
	fmt.Printf("hotspot manager action: %v\n", actionName(action))
	fmt.Println("after rebalancing:")
	printRoutes(c, 0)
	fmt.Printf("total route rules: %d\n", c.RouteTable().Routes())
}

// feed records ratePerSec of traffic for the tenant into the monitor
// (spread over the 10s window the collector averages).
func feed(c *logstore.Cluster, tenant int64, ratePerSec int64) {
	rt := c.RouteTable()
	shards := rt[logstore.TenantID(tenant)]
	if len(shards) == 0 {
		// Tenant not routed yet: one synthetic append routes it.
		r := logstore.Row{
			logstore.IntValue(tenant), logstore.IntValue(time.Now().UnixMilli()),
			logstore.StringValue("10.0.0.1"), logstore.StringValue("/api"),
			logstore.IntValue(1), logstore.StringValue("false"), logstore.StringValue("warmup"),
		}
		if err := c.Append(r); err != nil {
			log.Fatal(err)
		}
		rt = c.RouteTable()
		shards = rt[logstore.TenantID(tenant)]
	}
	for shard, weight := range shards {
		wid, _ := c.ShardOwner(shard)
		c.Collector().Record(logstore.TenantID(tenant), shard, wid, int64(weight*float64(ratePerSec)*10))
	}
}

func printRoutes(c *logstore.Cluster, tenant int64) {
	routes := c.RouteTable()[logstore.TenantID(tenant)]
	type entry struct {
		shard  flow.ShardID
		weight float64
	}
	var es []entry
	for s, w := range routes {
		es = append(es, entry{s, w})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].shard < es[j].shard })
	fmt.Printf("  tenant %d -> {", tenant)
	for i, e := range es {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("Shard%d: %.0f%%", e.shard, e.weight*100)
	}
	fmt.Println("}")
}

func actionName(a flow.Action) string {
	switch a {
	case flow.ActionRebalanced:
		return "rebalanced"
	case flow.ActionScaleCluster:
		return "scale cluster"
	default:
		return "none"
	}
}
