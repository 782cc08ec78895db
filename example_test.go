package logstore_test

import (
	"fmt"
	"log"
	"time"

	"logstore"
)

// ExampleOpen shows the minimal append→query round trip: rows are
// visible immediately (real-time reads) and archived to object storage
// in the background.
func ExampleOpen() {
	c, err := logstore.Open(logstore.Config{
		Workers:         1,
		ShardsPerWorker: 1,
		ArchiveInterval: time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	err = c.Append(logstore.Row{
		logstore.IntValue(42),                       // tenant_id
		logstore.IntValue(1700000000000),            // ts (ms)
		logstore.StringValue("10.0.0.1"),            // ip
		logstore.StringValue("/api/v1"),             // api
		logstore.IntValue(480),                      // latency
		logstore.StringValue("false"),               // fail
		logstore.StringValue("slow query detected"), // log
	})
	if err != nil {
		log.Fatal(err)
	}

	res, err := c.Query("SELECT log FROM request_log WHERE tenant_id = 42 AND ts >= 0 AND ts <= 1800000000000 AND latency >= 100")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Rows[0][0].S)
	// Output: slow query detected
}

// ExampleCluster_Query demonstrates full-text search with a prefix
// term and the GROUP BY aggregation form over archived LogBlocks.
func ExampleCluster_Query() {
	c, err := logstore.Open(logstore.Config{
		Workers: 1, ShardsPerWorker: 1, ArchiveInterval: time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	mk := func(ts int64, ip, msg string) logstore.Row {
		return logstore.Row{
			logstore.IntValue(7), logstore.IntValue(ts),
			logstore.StringValue(ip), logstore.StringValue("/q"),
			logstore.IntValue(10), logstore.StringValue("false"),
			logstore.StringValue(msg),
		}
	}
	if err := c.Append(
		mk(1000, "10.0.0.1", "connection timeout upstream"),
		mk(1001, "10.0.0.2", "request served"),
		mk(1002, "10.0.0.1", "timed out waiting for lock"),
	); err != nil {
		log.Fatal(err)
	}
	if err := c.Flush(); err != nil { // archive to object storage
		log.Fatal(err)
	}

	// Prefix full-text: both "timeout" and "timed" match 'tim*'.
	res, err := c.Query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 7 AND ts >= 0 AND ts <= 2000 AND log MATCH 'tim*'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches:", res.Count)

	res, err = c.Query("SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 7 AND ts >= 0 AND ts <= 2000 GROUP BY ip ORDER BY count DESC LIMIT 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top ip: %s (%d)\n", res.Groups[0].Key.S, res.Groups[0].Count)
	// Output:
	// matches: 2
	// top ip: 10.0.0.1 (2)
}
