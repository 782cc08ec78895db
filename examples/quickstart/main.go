// Quickstart: open an embedded LogStore cluster, append a few log
// records, query them back — first from the real-time row store, then
// from columnar LogBlocks on (simulated) object storage.
package main

import (
	"fmt"
	"log"
	"time"

	"logstore"
)

func main() {
	// An in-process cluster: 2 workers × 2 shards, each shard one raft
	// node. Set DataDir (and ShipWAL) for a log that survives a restart
	// or a lost disk.
	c, err := logstore.Open(logstore.Config{
		Workers:         2,
		ShardsPerWorker: 2,
		ArchiveInterval: 200 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// The default table is the paper's request_log:
	// (tenant_id, ts, ip, api, latency, fail, log)
	now := time.Now().UnixMilli()
	records := []logstore.Row{
		row(42, now+1, "10.0.0.1", "/api/v1/query", 12, "false", "request served"),
		row(42, now+2, "10.0.0.2", "/api/v1/query", 480, "false", "slow query detected on shard 3"),
		row(42, now+3, "10.0.0.1", "/api/v1/insert", 9, "true", "constraint violation"),
		row(7, now+4, "10.1.0.9", "/healthz", 1, "false", "ok"),
	}
	if err := c.Append(records...); err != nil {
		log.Fatal(err)
	}

	// Real-time visibility: the rows are queryable immediately.
	res, err := c.Query(fmt.Sprintf(
		"SELECT log FROM request_log WHERE tenant_id = 42 AND ts >= %d AND ts <= %d AND latency >= 100",
		now, now+10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("slow requests (from the real-time store):")
	for _, r := range res.Rows {
		fmt.Printf("  %s\n", r[0].S)
	}

	// Force archive: rows become per-tenant columnar LogBlocks on the
	// object store, fully indexed (inverted index on strings, BKD tree
	// on numerics) and compressed.
	if err := c.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\narchived LogBlocks for tenant 42:")
	for _, b := range c.TenantBlocks(42) {
		fmt.Printf("  %s  rows=%d bytes=%d ts=[%d..%d]\n", b.Path, b.Rows, b.Bytes, b.MinTS, b.MaxTS)
	}

	// Full-text search over the archived data via the inverted index.
	res, err = c.Query(fmt.Sprintf(
		"SELECT ip, log FROM request_log WHERE tenant_id = 42 AND ts >= %d AND ts <= %d AND log MATCH 'detected'",
		now, now+10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfull-text MATCH 'detected':")
	for _, r := range res.Rows {
		fmt.Printf("  %s: %s\n", r[0].S, r[1].S)
	}
}

func row(tenant, ts int64, ip, api string, latency int64, fail, msg string) logstore.Row {
	return logstore.Row{
		logstore.IntValue(tenant),
		logstore.IntValue(ts),
		logstore.StringValue(ip),
		logstore.StringValue(api),
		logstore.IntValue(latency),
		logstore.StringValue(fail),
		logstore.StringValue(msg),
	}
}
