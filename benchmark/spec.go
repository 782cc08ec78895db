package main

// metricDef names one metric; BENCHMARK.json lists the same names,
// units and directions (spec_test.go holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a client of the cluster sees. Every workload reports
// every one, about its own operation: one 200-row AppendContext on the
// ingest workloads and mixed_paced_append, one QueryContext on
// query_cold and query_warm, one pair of queries on mixed_paced_query.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"oss_bytes_per_user_byte", "B/B", "lower"},
}

// perLayer is what the traced run reports, <module>.<metric>; none is
// gated. README.md says which end-to-end metric each should move, on
// which workload.
var perLayer = []metricDef{
	{"ops.tail_ms", "ms", "lower"},
	{"ops.tail_pct", "%", "higher"},
	{"run.failed_ops_frac", "ratio", "lower"},
	{"run.client_goroutines", "count", "lower"},
	{"run.cpus", "count", "higher"},

	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.achieved_rows_per_s", "1/s", "higher"},
	{"loadgen.tenants_per_batch", "count", "lower"},
	{"loadgen.user_bytes_per_row", "B", "lower"},

	{"httpapi.append_self_us", "us", "lower"},
	{"httpapi.query_self_us", "us", "lower"},

	{"broker.append_self_us", "us", "lower"},
	{"broker.query_self_us", "us", "lower"},
	{"broker.reroutes", "count", "lower"},
	{"broker.failovers", "count", "lower"},
	{"broker.hedges", "count", "lower"},
	{"broker.shed", "count", "lower"},

	{"worker.encode_us_per_batch", "us", "lower"},
	{"worker.append_us", "us", "lower"},
	{"worker.append_self_us", "us", "lower"},
	{"worker.coalesce_group_factor", "ratio", "higher"},
	{"worker.dedup_skips", "count", "lower"},
	{"worker.apply_lost", "count", "lower"},
	{"worker.queryblocks_cold_us", "us", "lower"},
	{"worker.queryblocks_warm_us", "us", "lower"},
	{"worker.queryrealtime_us", "us", "lower"},

	{"raft.propose_commit_us_mem", "us", "lower"},
	{"raft.propose_commit_us_wal", "us", "lower"},
	{"raft.self_us", "us", "lower"},
	{"raft.proposals_per_batch", "ratio", "lower"},

	{"wal.append_us", "us", "lower"},
	{"wal.sync_us", "us", "lower"},
	{"wal.bytes_per_user_byte", "B/B", "lower"},

	{"rowstore.append_us_per_batch", "us", "lower"},
	{"rowstore.scan_tenant_us", "us", "lower"},

	{"builder.drain_us_per_krow", "us", "lower"},
	{"builder.rows_per_block", "count", "higher"},
	{"builder.blocks_written", "count", "lower"},
	{"logblock.bytes_per_row", "B", "lower"},
	{"logblock.open_us", "us", "lower"},
	{"logblock.decode_us_per_colblock", "us", "lower"},

	{"meta.blocks_per_tenant", "count", "lower"},
	{"meta.prune_ratio", "ratio", "higher"},
	{"query.parse_us", "us", "lower"},
	{"query.blocks_examined_per_query", "count", "lower"},
	{"query.blocks_skipped_sma_per_query", "count", "higher"},
	{"query.index_lookups_per_query", "count", "lower"},
	{"query.colblocks_scanned_per_query", "count", "lower"},
	{"query.colblocks_skipped_per_query", "count", "higher"},
	{"query.rows_matched_per_query", "count", "higher"},
	{"query.kernel_us_per_block", "us", "lower"},
	{"query.self_p50_ms", "ms", "lower"},
	{"query.recent_p50_ms", "ms", "lower"},
	{"query.history_p50_ms", "ms", "lower"},

	{"cache.mem_hit_ratio", "ratio", "higher"},
	{"cache.mem_misses_per_query", "count", "lower"},
	{"cache.disk_hit_ratio", "ratio", "higher"},

	{"prefetch.fetch_cold_us", "us", "lower"},
	{"prefetch.fetch_warm_us", "us", "lower"},

	{"oss.puts", "count", "lower"},
	{"oss.put_bytes", "B", "lower"},
	{"oss.gets", "count", "lower"},
	{"oss.range_gets", "count", "lower"},
	{"oss.heads", "count", "lower"},
	{"oss.gets_per_query", "count", "lower"},
	{"oss.bytes_out_per_query", "B", "lower"},
	{"oss.get_p50_ms", "ms", "lower"},
	{"oss.busy_ms_per_query", "ms", "lower"},
	{"oss.concurrency_mean", "ratio", "higher"},

	{"process.cpu_ms_per_op", "ms", "lower"},
	{"process.cpu_us_per_query", "us", "lower"},
	{"process.allocs_per_row", "count", "lower"},
	{"process.allocs_per_query", "count", "lower"},
	{"process.heap_inuse_peak_mb", "MB", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"process.disk_write_bytes_per_user_byte", "B/B", "lower"},
	{"process.goroutines_peak", "count", "lower"},
	{"process.minor_faults", "count", "lower"},

	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
}

// workloadDef is one workload the program can run.
type workloadDef struct {
	Name string
	// setup builds the cluster and dataset; it is what setup_s times.
	setup func(o *options) (*env, error)
	// run drives the measured interval and returns what it saw.
	run func(o *options, e *env) *measured
	// ungated says why BENCHMARK.json does not list the workload (empty
	// for the ones it does): the driver never runs it, `go run
	// ./benchmark` does.
	ungated string
}

// The issue's mixed_paced appears twice, once per side: every workload
// must report every end-to-end metric, and the paced writer and the
// paced reader issue two different operations. Both names run the
// identical traffic.
var workloadDefs = []workloadDef{
	{Name: "ingest_mem", setup: func(o *options) (*env, error) { return setupIngest(o, false) }, run: runIngest},
	{Name: "ingest_durable", setup: func(o *options) (*env, error) { return setupIngest(o, true) }, run: runIngest,
		ungated: "every timing follows the sandbox's fsync path, which drifts by more than a bound may be: " +
			"ten runs of one commit gave an append p50 of 73 to 168 ms with a quartile spread of 23%, " +
			"and the median of ten moved between 68 and 92 ms within a session"},
	{Name: "query_cold", setup: func(o *options) (*env, error) { return setupQuery(o, false) }, run: runQueryCold},
	{Name: "query_warm", setup: func(o *options) (*env, error) { return setupQuery(o, true) }, run: runQueryWarm},
	{Name: "mixed_paced_append", setup: setupMixed, run: func(o *options, e *env) *measured { return runMixed(o, e, true) },
		ungated: "an append is a chain of some hundred goroutine hand-offs, so its latency at a fixed rate beside " +
			"other work doubles whenever the sandbox's CPU has a slow spell: one commit gave a p50 of 1.9 to 4.4 ms " +
			"in ten runs, a quartile spread of 40% (5% and 13% in calmer sets)"},
	{Name: "mixed_paced_query", setup: setupMixed, run: func(o *options, e *env) *measured { return runMixed(o, e, false) }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}
