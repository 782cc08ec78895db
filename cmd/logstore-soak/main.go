// Command logstore-soak is the sustained-load soak driver: it runs an
// embedded cluster under continuous multi-tenant zipfian ingest with
// concurrent query traffic for a wall-clock duration, then verifies the
// exactly-once accounting (appended == resident + archived) and emits a
// JSON report of sustained throughput, latency quantiles, and the
// group-commit factor. While the load runs, an auditing reader holds the
// read side to the same ledger: a tenant's COUNT(*) over all time may
// never exceed the rows sent by the query's end (a row counted in its
// row store and in its LogBlock), never fall below the same tenant's
// previous count (a row counted in neither while the archive loop moves
// it), and must equal the rows acked once everything is flushed.
//
// Unlike the micro-benchmarks (one caller, tight loop), the soak
// exercises the ingest path the way the paper's production deployment
// does: many concurrent writers per worker, group commit under real
// contention, archive cycles running mid-stream, and readers competing
// for the same shards. It exits non-zero on any append error, any
// query error, an audited count out of range, or an accounting
// mismatch, so `make soak-short` can sit in the tier-1 gate.
//
//	logstore-soak -tenants 2000 -duration 20s -writers 8 -readers 2 -out BENCH_soak.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	logstore "logstore"
	"logstore/internal/metrics"
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
		replicas = flag.Int("replicas", 3, "replicas per shard raft group")
		ship     = flag.Bool("ship", false, "enable asynchronous WAL shipping to OSS (measures shipping overhead under load; implies durable raft WALs)")
		durable  = flag.Bool("durable", false, "put raft WALs on disk (a temp dir) without shipping — the baseline -ship is compared against")
		out      = flag.String("out", "BENCH_soak.json", "JSON report path")
	)
	flag.Parse()

	cfg := logstore.Config{
		Workers:         *workers,
		ShardsPerWorker: *shards,
		Replicas:        *replicas,
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
	sch := c.TableSchema()

	// Each writer gets a disjoint timestamp range. The ingest path
	// dedups retries by batch content hash, so two byte-identical
	// single-row sub-batches from different writers would count as one —
	// real log streams never collide like that because timestamps are
	// unique, and the generator guarantees that only within one stream.
	const startMS = 1_000
	const writerSpanMS = 1_000_000_000
	var (
		rowsAppended atomic.Int64
		queriesRun   atomic.Int64
		errsReported atomic.Int64
		appendLat    = metrics.NewHistogram(0)
		queryLat     = metrics.NewHistogram(0)
		stop         = make(chan struct{})
		wg           sync.WaitGroup
		// Per audited tenant: rows handed to Append so far, and rows whose
		// Append has returned.
		sent, acked [auditTenants]atomic.Int64
		audits      atomic.Int64
	)
	fail := func(format string, args ...any) {
		if errsReported.Add(1) <= 10 {
			fmt.Fprintf(os.Stderr, "soak: "+format+"\n", args...)
		}
	}

	for i := 0; i < *writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.GeneratorConfig{
				Tenants: *tenants, Theta: *theta, Seed: int64(1000 + i),
				StartMS: startMS + int64(i)*writerSpanMS,
			})
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows := gen.Batch(*batch)
				var audited [auditTenants]int64
				for _, r := range rows {
					if t := r.Tenant(sch); t < auditTenants {
						audited[t]++
					}
				}
				for t, n := range audited {
					sent[t].Add(n)
				}
				t0 := time.Now()
				if err := c.Append(rows...); err != nil {
					fail("append: %v", err)
					return
				}
				appendLat.Observe(float64(time.Since(t0).Microseconds()) / 1e3)
				for t, n := range audited {
					acked[t].Add(n)
				}
				rowsAppended.Add(int64(len(rows)))
			}
		}(i)
	}

	specs := workload.GenerateQueries(workload.QuerySetConfig{
		Tenants:        min(*tenants, 500), // query the hot head of the population
		PerTenant:      6,
		HistoryStartMS: 0,
		HistoryEndMS:   64_000_000_000, // far past any generated ts
		Seed:           7,
	})
	for i := 0; i < *readers; i++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for n := offset; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				q := specs[n%len(specs)]
				t0 := time.Now()
				if _, err := c.Query(q.SQL); err != nil {
					fail("query %q: %v", q.SQL, err)
					return
				}
				queryLat.Observe(float64(time.Since(t0).Microseconds()) / 1e3)
				queriesRun.Add(1)
			}
		}(i * 37)
	}

	// The auditing reader: per audited tenant, no more rows than were
	// sent by the end of the query and no fewer than its previous query
	// saw, whatever the archive loop is doing to the tenant's rows
	// meanwhile. (The floor is the previous count and not the rows acked
	// before the query: on a replicated shard an ack means quorum commit,
	// and the serving replica applies a moment later, so a row acked
	// microseconds ago may legitimately not be visible yet. Once visible
	// it must stay visible; the exact comparison with the acked ledger is
	// made after the final flush.) Its queries are in neither the query
	// count nor the latency quantiles, which keep describing the readers
	// above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var floor [auditTenants]int64
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			t := n % auditTenants
			got, err := countTenant(c, t)
			if err != nil {
				fail("audit query: %v", err)
				return
			}
			hi := sent[t].Load()
			audits.Add(1)
			if got < floor[t] || got > hi {
				fail("audit: tenant %d counts %d rows, outside [%d counted before, %d sent by the query's end]",
					t, got, floor[t], hi)
				continue // a wrong count is no floor for the next
			}
			floor[t] = got
		}
	}()

	t0 := time.Now()
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0)

	if n := errsReported.Load(); n > 0 {
		fatal("%d append, query or audit failures under sustained load (%d audit queries)", n, audits.Load())
	}
	if audits.Load() == 0 {
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
	for t := range acked {
		if got, err := countTenant(c, t); err != nil || got != acked[t].Load() {
			fatal("audit: tenant %d counts %d rows after the flush (%v), %d were acked", t, got, err, acked[t].Load())
		}
	}
	stats := c.Stats()
	apply := c.ApplyStats()
	if apply.Lost() {
		fatal("apply drops (acked rows lost): %+v", apply)
	}
	if got := stats.ArchivedRows + stats.ResidentRows; got != rowsAppended.Load() {
		fatal("accounting mismatch: appended %d, archived+resident %d (counters %+v)",
			rowsAppended.Load(), got, apply)
	}

	groups, batches := c.CoalesceStats()
	rep := report{
		Tenants:        *tenants,
		Writers:        *writers,
		Readers:        *readers,
		BatchRows:      *batch,
		Theta:          *theta,
		DurationSec:    elapsed.Seconds(),
		RowsAppended:   rowsAppended.Load(),
		RowsPerSec:     float64(rowsAppended.Load()) / elapsed.Seconds(),
		AppendP50MS:    appendLat.Quantile(0.5),
		AppendP99MS:    appendLat.Quantile(0.99),
		Queries:        queriesRun.Load(),
		QueriesPerSec:  float64(queriesRun.Load()) / elapsed.Seconds(),
		QueryP50MS:     queryLat.Quantile(0.5),
		QueryP99MS:     queryLat.Quantile(0.99),
		CoalesceGroups: groups,
		CoalesceBatch:  batches,
		DedupSkips:     apply.DedupSkips,
		ResidentRows:   stats.ResidentRows,
		ArchivedRows:   stats.ArchivedRows,
		AuditQueries:   audits.Load(),
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

// countTenant is the audit's query: every row of the tenant, resident
// or archived.
func countTenant(c *logstore.Cluster, tenant int) (int64, error) {
	sch := c.TableSchema()
	res, err := c.Query(fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = %d AND %s >= 0",
		sch.Name, sch.TenantCol, tenant, sch.TimeCol))
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "logstore-soak: "+format+"\n", args...)
	os.Exit(1)
}
