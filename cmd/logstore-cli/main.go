// Command logstore-cli opens an embedded LogStore cluster, optionally
// pre-loads a synthetic multi-tenant workload, and runs SQL against it
// — one-shot with -sql, or as an interactive prompt.
//
//	logstore-cli -rows 50000 -tenants 100 \
//	  -sql "SELECT COUNT(*) FROM request_log WHERE tenant_id = 0 AND ts >= 0 AND ts <= 9999999999999"
//
//	logstore-cli -rows 50000
//	logstore> SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 0 ... GROUP BY ip
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"logstore"
	"logstore/internal/workload"
)

func main() {
	var (
		rows    = flag.Int("rows", 0, "synthetic rows to pre-load")
		tenants = flag.Int("tenants", 100, "tenants in the synthetic workload")
		theta   = flag.Float64("theta", 0.99, "Zipf skew of the synthetic workload")
		sql     = flag.String("sql", "", "run one query and exit")
		workers = flag.Int("workers", 2, "worker nodes")
	)
	flag.Parse()

	c, err := logstore.Open(logstore.Config{
		Workers:         *workers,
		ShardsPerWorker: 2,
		ArchiveInterval: 200 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	if *rows > 0 {
		gen := workload.NewGenerator(workload.GeneratorConfig{
			Tenants: *tenants, Theta: *theta, Seed: 1,
			StartMS: time.Now().Add(-48 * time.Hour).UnixMilli(),
			StepMS:  48 * 3600 * 1000 / int64(*rows),
		})
		start := time.Now()
		remaining := *rows
		for remaining > 0 {
			n := 10_000
			if n > remaining {
				n = remaining
			}
			if err := c.Append(gen.Batch(n)...); err != nil {
				log.Fatal(err)
			}
			remaining -= n
		}
		if err := c.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d rows across %d tenants (θ=%g) in %v\n",
			*rows, *tenants, *theta, time.Since(start).Round(time.Millisecond))
	}

	if *sql != "" {
		runQuery(c, *sql)
		return
	}

	fmt.Fprintln(os.Stderr, `interactive mode — SQL, or: tenants | blocks <tenant> | compact | routes | quit`)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(os.Stderr, "logstore> ")
		if !scanner.Scan() {
			return
		}
		line := strings.TrimSpace(scanner.Text())
		fields := strings.Fields(line)
		switch {
		case line == "":
		case line == "quit" || line == "exit":
			return
		case line == "tenants":
			printTenants(c)
		case len(fields) == 2 && fields[0] == "blocks":
			printBlocks(c, fields[1])
		case line == "compact":
			merged, err := c.CompactNow(0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				continue
			}
			fmt.Printf("compacted %d LogBlocks away\n", merged)
		case line == "routes":
			printRoutes(c)
		default:
			runQuery(c, line)
		}
	}
}

func printBlocks(c *logstore.Cluster, tenantStr string) {
	var tenant int64
	if _, err := fmt.Sscanf(tenantStr, "%d", &tenant); err != nil {
		fmt.Fprintf(os.Stderr, "bad tenant id %q\n", tenantStr)
		return
	}
	fmt.Println("path\trows\tbytes\tts_range")
	for _, b := range c.TenantBlocks(tenant) {
		fmt.Printf("%s\t%d\t%d\t[%d..%d]\n", b.Path, b.Rows, b.Bytes, b.MinTS, b.MaxTS)
	}
}

func printRoutes(c *logstore.Cluster) {
	rt := c.RouteTable()
	fmt.Printf("route rules: %d\n", rt.Routes())
	n := 0
	for tenant, shards := range rt {
		if len(shards) > 1 {
			fmt.Printf("tenant %d -> %v\n", tenant, shards)
			n++
			if n >= 20 {
				fmt.Println("...")
				break
			}
		}
	}
}

func runQuery(c *logstore.Cluster, sql string) {
	start := time.Now()
	res, err := c.Query(sql)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	took := time.Since(start)
	fmt.Println(strings.Join(res.Columns, "\t"))
	switch {
	case len(res.Groups) > 0:
		for _, g := range res.Groups {
			fmt.Printf("%s\t%d\n", g.Key, g.Count)
		}
	case len(res.Rows) > 0:
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, "\t"))
		}
	default:
		fmt.Println(res.Count)
	}
	fmt.Fprintf(os.Stderr, "(%d rows, %v, %d blocks examined, %d skipped by SMA)\n",
		len(res.Rows), took.Round(time.Microsecond),
		res.Stats.BlocksExamined, res.Stats.BlocksSkippedBySMA)
}

func printTenants(c *logstore.Cluster) {
	fmt.Println("tenant\trows\tbytes\tblocks")
	for t := int64(0); t < 20; t++ {
		rows, bytes := c.TenantUsage(t)
		if rows == 0 {
			continue
		}
		fmt.Printf("%d\t%d\t%d\t%d\n", t, rows, bytes, len(c.TenantBlocks(t)))
	}
}
