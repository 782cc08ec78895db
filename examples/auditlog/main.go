// Audit-log scenario from the paper's introduction: a DBaaS audit-log
// service ingesting a multi-tenant, Zipfian-skewed stream with a
// diurnal traffic curve. Tenants carry different retention policies —
// a bank archives for compliance while a dev-tool tenant keeps hours —
// and the catalog provides per-tenant usage for billing.
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
		Workers:         3,
		ShardsPerWorker: 2,
		ArchiveInterval: 100 * time.Millisecond,
		MaxSegmentRows:  5000,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Retention policies: tenant 0 (bank) keeps 7 years; tenant 1 keeps
	// 48 hours; everyone else gets the 30-day default.
	c.SetRetention(0, 7*365*24*time.Hour)
	c.SetRetention(1, 48*time.Hour)
	for t := int64(2); t < 50; t++ {
		c.SetRetention(t, 30*24*time.Hour)
	}

	// Compressed diurnal replay: 24 "hours" of traffic, with the
	// per-hour volume following the paper's Figure-1 curve.
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: 50, Theta: 0.99, Seed: 42,
		StartMS: time.Now().Add(-24 * time.Hour).UnixMilli(),
		StepMS:  3600, // spreads rows across the day
	})
	total := 0
	fmt.Println("hour  volume")
	for hour := 0; hour < 24; hour++ {
		volume := int(workload.DiurnalRate(float64(hour), 0.35) * 2000)
		if err := c.Append(gen.Batch(volume)...); err != nil {
			log.Fatal(err)
		}
		total += volume
		bar := ""
		for i := 0; i < volume/100; i++ {
			bar += "#"
		}
		fmt.Printf("%4d  %6d %s\n", hour, volume, bar)
	}
	fmt.Printf("ingested %d audit records\n\n", total)

	if err := c.Flush(); err != nil {
		log.Fatal(err)
	}

	// Billing report: per-tenant archived volume, top 8 tenants.
	fmt.Println("tenant  rows      bytes     blocks  (top 8 by volume)")
	type usage struct {
		tenant      int64
		rows, bytes int64
	}
	var us []usage
	for t := int64(0); t < 50; t++ {
		r, b := c.TenantUsage(t)
		us = append(us, usage{t, r, b})
	}
	for i := 0; i < len(us); i++ {
		for j := i + 1; j < len(us); j++ {
			if us[j].rows > us[i].rows {
				us[i], us[j] = us[j], us[i]
			}
		}
	}
	for _, u := range us[:8] {
		fmt.Printf("%6d  %-8d  %-8d  %d\n", u.tenant, u.rows, u.bytes, len(c.TenantBlocks(u.tenant)))
	}

	// Compliance audit: who failed requests against the admin API today?
	start := time.Now().Add(-25 * time.Hour).UnixMilli()
	end := time.Now().UnixMilli()
	res, err := c.Query(fmt.Sprintf(
		"SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= %d AND ts <= %d AND fail = 'true' GROUP BY ip ORDER BY count DESC LIMIT 5",
		start, end))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntenant 0: top source IPs of failed requests (compliance audit):")
	for _, g := range res.Groups {
		fmt.Printf("  %-15s %d failures\n", g.Key.S, g.Count)
	}

	// Retention enforcement: pretend 3 days pass — tenant 1's 48-hour
	// window expires its whole day of logs, the others keep theirs.
	removed := c.ExpireNow(time.Now().Add(72 * time.Hour).UnixMilli())
	fmt.Printf("\nretention sweep 3 days later: %d LogBlocks deleted\n", removed)
	fmt.Printf("tenant 1 blocks remaining: %d (48h retention)\n", len(c.TenantBlocks(1)))
	fmt.Printf("tenant 0 blocks remaining: %d (7y retention)\n", len(c.TenantBlocks(0)))
}
