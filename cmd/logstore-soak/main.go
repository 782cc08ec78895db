// Command logstore-soak is the sustained-load soak: chaos.Run with one
// fault-free step runs many concurrent zipfian writers and readers
// against an embedded cluster for a wall-clock duration — group commit
// under real contention, archive cycles mid-stream, readers competing
// for the same shards, the way the paper's production deployment runs.
// The driver's auditing reader holds each hot tenant's COUNT(*) between
// its previous count and the rows sent so far while rows move. After a
// final flush the soak verifies exactly-once accounting (appended ==
// resident + archived, each audited tenant's count == its acked rows)
// and writes a JSON report of sustained throughput, latency quantiles
// and the group-commit factor. It exits non-zero on any append or query
// error, an audited count out of range, or an accounting mismatch, so
// `make soak-short` can sit in the tier-1 gate.
//
//	logstore-soak -tenants 2000 -duration 20s -writers 8 -readers 2 -out BENCH_soak.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	logstore "logstore"
	"logstore/internal/chaos"
	"logstore/internal/workload"
)

type report struct {
	Tenants        int     `json:"tenants"`
	Writers        int     `json:"writers"`
	Readers        int     `json:"readers"`
	BatchRows      int     `json:"batch_rows"`
	Theta          float64 `json:"theta"`
	DurationSec    float64 `json:"duration_sec"`
	RowsAppended   int64   `json:"rows_appended"`
	RowsPerSec     float64 `json:"rows_per_sec"`
	AppendP50MS    float64 `json:"append_p50_ms"`
	AppendP99MS    float64 `json:"append_p99_ms"`
	Queries        int64   `json:"queries"`
	QueriesPerSec  float64 `json:"queries_per_sec"`
	QueryP50MS     float64 `json:"query_p50_ms"`
	QueryP99MS     float64 `json:"query_p99_ms"`
	CoalesceGroups int64   `json:"coalesce_groups"`
	CoalesceBatch  int64   `json:"coalesce_batches"`
	GroupFactor    float64 `json:"group_factor"`
	DedupSkips     int64   `json:"dedup_skips"`
	ResidentRows   int64   `json:"resident_rows"`
	ArchivedRows   int64   `json:"archived_rows"`
	AuditQueries   int64   `json:"audit_queries"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	// Bytes of LogBlocks handed to a peer worker's block cache at commit,
	// per byte archived: what the worker-to-worker link carries in a
	// deployment.
	HandoffPeerBytesPerArchivedByte float64 `json:"handoff_peer_bytes_per_archived_byte"`
	// Shipping metrics ride in the same flat numeric namespace the
	// benchdiff soak loader expects (no non-numeric fields here).
	ShipChunks     int64 `json:"ship_chunks,omitempty"`
	ShipSnapshots  int64 `json:"ship_snapshots,omitempty"`
	UnshippedBytes int64 `json:"unshipped_bytes,omitempty"`
}

// auditTenants is how many of the hottest tenants (the lowest ids) the
// auditing reader checks. They take most of a zipfian load, so they are
// the ones the archive loop is always in the middle of moving.
const auditTenants = 8

func main() {
	var (
		tenants  = flag.Int("tenants", 2000, "zipfian tenant population")
		duration = flag.Duration("duration", 20*time.Second, "sustained-load wall time")
		writers  = flag.Int("writers", 8, "concurrent append goroutines")
		readers  = flag.Int("readers", 2, "concurrent query goroutines")
		batch    = flag.Int("batch", 200, "rows per append batch")
		theta    = flag.Float64("theta", 0.99, "zipfian skew")
		workers  = flag.Int("workers", 3, "worker nodes")
		shards   = flag.Int("shards", 4, "shards per worker")
		ship     = flag.Bool("ship", false, "enable asynchronous WAL shipping to OSS (measures shipping overhead under load; implies durable raft WALs)")
		durable  = flag.Bool("durable", false, "put raft WALs on disk (a temp dir) without shipping — the baseline -ship is compared against")
		out      = flag.String("out", "BENCH_soak.json", "JSON report path")
	)
	flag.Parse()

	cfg := logstore.Config{
		Workers:         *workers,
		ShardsPerWorker: *shards,
		ArchiveInterval: 250 * time.Millisecond,
		RaftTick:        2 * time.Millisecond,
	}
	var shipDir string
	if *ship || *durable {
		// Shipping needs durable raft WALs to snapshot from.
		dir, err := os.MkdirTemp("", "logstore-soak-ship-*")
		if err != nil {
			fatal("ship temp dir: %v", err)
		}
		shipDir = dir
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
		cfg.ShipWAL = *ship
	}
	c, err := logstore.Open(cfg)
	if err != nil {
		fatal("open cluster: %v", err)
	}
	defer c.Close()

	specs := workload.GenerateQueries(workload.QuerySetConfig{
		Tenants:        min(*tenants, 500), // query the hot head of the population
		PerTenant:      6,
		HistoryStartMS: 0,
		HistoryEndMS:   64_000_000_000, // far past any generated ts
		Seed:           7,
	})
	queries := make([]string, len(specs))
	for i, q := range specs {
		queries[i] = q.SQL
	}
	// One step of traffic and no faults. Writer i's generator is seeded
	// 1000+i, and the driver gives each writer a disjoint timestamp
	// range: the ingest path dedups retries by batch content hash, so two
	// byte-identical batches from different writers would count as one.
	load, err := chaos.Run(c, chaos.Config{
		Seed: 1000, Tenants: *tenants, Theta: *theta,
		Writers: *writers, BatchRows: *batch,
		Readers: *readers, Queries: queries,
		Audit:    auditTenants,
		Schedule: []chaos.Step{{Hold: *duration}},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "soak: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal("%v", err)
	}
	phase := load.Phases[0]
	if n, m := load.AppendRetries, phase.Failures.Load(); n+m > 0 {
		fatal("%d append and %d query failures under sustained load (%d audit queries)", n, m, load.Audits)
	}
	if load.Audits == 0 {
		fatal("the auditing reader completed no query")
	}

	// Exactly-once accounting: drain everything to OSS and reconcile the
	// catalog + resident totals against the appended ledger. Broker-level
	// retries re-send content-addressed batches, so duplicates would show
	// up here as archived+resident > appended.
	if err := c.Flush(); err != nil {
		fatal("flush: %v", err)
	}
	if resident := c.WaitForArchive(30 * time.Second); resident != 0 {
		fatal("%d rows still resident after flush", resident)
	}
	audited := map[int64]int64{}
	for t := int64(0); t < auditTenants; t++ {
		audited[t] = load.Acked[t]
	}
	if err := chaos.VerifyCounts(c, audited, 0); err != nil {
		fatal("audit after the flush: %v", err)
	}
	stats := c.Stats()
	apply := c.ApplyStats()
	if apply.Lost() {
		fatal("apply drops (acked rows lost): %+v", apply)
	}
	if got := stats.ArchivedRows + stats.ResidentRows; got != load.AckedTotal {
		fatal("accounting mismatch: appended %d, archived+resident %d (counters %+v)",
			load.AckedTotal, got, apply)
	}

	groups, batches := c.CoalesceStats()
	elapsed := load.Elapsed
	rep := report{
		Tenants:        *tenants,
		Writers:        *writers,
		Readers:        *readers,
		BatchRows:      *batch,
		Theta:          *theta,
		DurationSec:    elapsed.Seconds(),
		RowsAppended:   load.AckedTotal,
		RowsPerSec:     float64(load.AckedTotal) / elapsed.Seconds(),
		AppendP50MS:    load.AppendLatency.Quantile(0.5),
		AppendP99MS:    load.AppendLatency.Quantile(0.99),
		Queries:        phase.Queries.Load(),
		QueriesPerSec:  float64(phase.Queries.Load()) / elapsed.Seconds(),
		QueryP50MS:     phase.Latency.Quantile(0.5),
		QueryP99MS:     phase.Latency.Quantile(0.99),
		CoalesceGroups: groups,
		CoalesceBatch:  batches,
		DedupSkips:     apply.DedupSkips,
		ResidentRows:   stats.ResidentRows,
		ArchivedRows:   stats.ArchivedRows,
		AuditQueries:   load.Audits,
	}
	if lookups := stats.CacheMemHits + stats.CacheMemMisses; lookups > 0 {
		rep.CacheHitRatio = float64(stats.CacheMemHits) / float64(lookups)
	}
	if stats.ArchivedBytes > 0 {
		rep.HandoffPeerBytesPerArchivedByte = float64(stats.HandoffPeerBytes) / float64(stats.ArchivedBytes)
	}
	if groups > 0 {
		rep.GroupFactor = float64(batches) / float64(groups)
	}
	if *ship {
		rec := c.RecoveryStats()
		rep.ShipChunks = rec.ShipChunks
		rep.ShipSnapshots = rec.ShipSnapshots
		rep.UnshippedBytes = rec.UnshippedBytes
		if rec.ShipChunks == 0 {
			fatal("WAL shipping enabled (%s) but no chunks shipped", shipDir)
		}
	}
	if batches == 0 {
		fatal("append path saw no raft proposals; soak must exercise group commit")
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("marshal report: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal("write %s: %v", *out, err)
	}
	fmt.Printf("soak ok: %.0f rows/s sustained, %.0f queries/s, group factor %.2f, p99 append %.2fms, %d audited counts in range\n",
		rep.RowsPerSec, rep.QueriesPerSec, rep.GroupFactor, rep.AppendP99MS, rep.AuditQueries)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "logstore-soak: "+format+"\n", args...)
	os.Exit(1)
}
