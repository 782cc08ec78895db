// Analytics scenario: the lightweight BI queries the paper motivates —
// "which IP addresses frequently accessed this API in the past day?" —
// answered by COUNT/GROUP BY over archived LogBlocks, plus full-text
// investigation of the errors those dashboards surface.
package main

import (
	"fmt"
	"log"
	"time"

	"logstore"
	"logstore/internal/workload"
)

func main() {
	c, err := logstore.Open(logstore.Config{
		Workers:         2,
		ShardsPerWorker: 2,
		ArchiveInterval: 100 * time.Millisecond,
		MaxSegmentRows:  10_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// One day of application logs for a single tenant.
	start := time.Now().Add(-24 * time.Hour).UnixMilli()
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: 1, Theta: 0, Seed: 7, StartMS: start, StepMS: 2000,
	})
	if err := c.Append(gen.Batch(40_000)...); err != nil {
		log.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		log.Fatal(err)
	}
	end := time.Now().UnixMilli()
	window := fmt.Sprintf("tenant_id = 0 AND ts >= %d AND ts <= %d", start, end)

	// 1. The paper's motivating dashboard query.
	res, err := c.Query("SELECT ip, COUNT(*) FROM request_log WHERE " + window +
		" AND api = '/api/v1/query' GROUP BY ip ORDER BY count DESC LIMIT 5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top IPs hitting /api/v1/query in the past day:")
	for _, g := range res.Groups {
		fmt.Printf("  %-15s %6d requests\n", g.Key.S, g.Count)
	}

	// 2. Failure-rate breakdown per API.
	res, err = c.Query("SELECT api, COUNT(*) FROM request_log WHERE " + window +
		" AND fail = 'true' GROUP BY api ORDER BY count DESC LIMIT 5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfailures per API:")
	for _, g := range res.Groups {
		fmt.Printf("  %-20s %5d failures\n", g.Key.S, g.Count)
	}

	// 3. Tail-latency triage: the slowest calls' raw log lines.
	res, err = c.Query("SELECT ts, api, latency, log FROM request_log WHERE " + window +
		" AND latency >= 1000 ORDER BY latency DESC LIMIT 5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nslowest requests (latency >= 1s):")
	for _, r := range res.Rows {
		fmt.Printf("  ts=%d  %-18s %6dms  %s\n", r[0].I, r[1].S, r[2].I, r[3].S)
	}

	// 4. Full-text pivot: every rate-limited request, via the inverted
	// index over the log message column.
	res, err = c.Query("SELECT COUNT(*) FROM request_log WHERE " + window +
		" AND log MATCH 'rate limit'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrequests mentioning 'rate limit': %d\n", res.Count)

	// The work the optimizer skipped, from the shared execution stats.
	fmt.Printf("\nlast query stats: %d LogBlocks examined, %d skipped by SMA, %d index lookups, %d column blocks scanned\n",
		res.Stats.BlocksExamined, res.Stats.BlocksSkippedBySMA,
		res.Stats.IndexLookups, res.Stats.ColumnBlocksScanned)
}
