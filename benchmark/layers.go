package main

import (
	"fmt"
	"time"

	logstore "logstore"
	"logstore/internal/worker"
)

// layerSet collects the traced run's per-layer metrics by name. A name
// that perLayer does not list is a bug in this package, so set panics.
type layerSet struct {
	known map[string]bool
	vals  map[string]float64
}

func newLayerSet() *layerSet {
	l := &layerSet{known: make(map[string]bool), vals: make(map[string]float64)}
	for _, def := range perLayer {
		l.known[def.Name] = true
	}
	return l
}

func (l *layerSet) set(name string, v float64) {
	if !l.known[name] {
		panic(fmt.Sprintf("benchmark: per-layer metric %q is not in the perLayer table", name))
	}
	l.vals[name] = v
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fromInterval fills the metrics that come from counting at the layer
// boundaries across the measured interval: before/after snapshots of
// the public stats accessors, the metered store, the Go runtime and the
// kernel, plus what each query's Result.Stats reported.
func (l *layerSet) fromInterval(rep *report, m *measured, e *env, st logstore.ClusterStats, apply worker.ApplyCounters) {
	iv := m.iv
	before, after := iv.before, iv.after
	d := after.store.sub(before.store)
	queries := float64(len(m.queries))

	// The tail of the workload's own operation. It is here and not among
	// the end-to-end metrics because under mixed_paced it does not
	// repeat: ten archive cycles a run set it, and the same commit gave
	// 14 to 48 ms.
	l.set("ops.tail_ms", rep.Ops.TailMS)
	l.set("ops.tail_pct", rep.Ops.TailPct)
	l.set("run.failed_ops_frac", ratio(float64(rep.Result.Failed), float64(rep.Result.Attempted)))
	l.set("run.client_goroutines", float64(m.clients))
	l.set("run.cpus", float64(rep.CPUs))

	// Appends inside the interval: the primary operation on
	// ingest_durable, the "append" kind on mixed_paced, none otherwise.
	appends := rep.Kinds["append"]
	if m.readBack && len(m.kinds) == 0 {
		appends = rep.Ops
	}
	batches := float64(appends.N - appends.Failed)
	rows := batches * batchRows
	l.set("loadgen.late_p99_ms", appends.LateP99ms)
	l.set("loadgen.achieved_rows_per_s", appends.PerSec*batchRows)
	distinct := 0
	recorded := e.recordedBatches()
	for _, b := range recorded {
		seen := make(map[int64]bool)
		for _, r := range b {
			seen[r[colTenant].I] = true
		}
		distinct += len(seen)
	}
	l.set("loadgen.tenants_per_batch", ratio(float64(distinct), float64(len(recorded))))
	userBytesPerRow := ratio(float64(e.ackedBytes.Load()), float64(e.ackedRows.Load()))
	l.set("loadgen.user_bytes_per_row", userBytesPerRow)

	rs := e.c.RecoveryStats()
	l.set("broker.reroutes", float64(rs.Reroutes))
	l.set("broker.failovers", float64(rs.Failovers))
	l.set("broker.hedges", float64(rs.Hedges))
	l.set("broker.shed", float64(rs.Shed))

	groups, subs := float64(after.groups-before.groups), float64(after.batches-before.batches)
	l.set("worker.coalesce_group_factor", ratio(subs, groups))
	l.set("raft.proposals_per_batch", ratio(groups, batches))
	l.set("worker.dedup_skips", float64(apply.DedupSkips))
	l.set("worker.apply_lost", float64(apply.DecodeFails+apply.AppendFails+apply.FrameFails+apply.StaleSkips))

	l.set("builder.blocks_written", float64(d.puts))
	l.set("builder.rows_per_block", ratio(float64(st.ArchivedRows), float64(st.ArchivedBlocks)))
	l.set("logblock.bytes_per_row", ratio(float64(st.ArchivedBytes), float64(st.ArchivedRows)))
	l.set("meta.blocks_per_tenant", ratio(float64(st.ArchivedBlocks), float64(st.Tenants)))

	for name, v := range rep.PerQuery {
		l.set(name, v)
	}
	l.set("query.recent_p50_ms", rep.Kinds["recent"].P50ms)
	l.set("query.history_p50_ms", rep.Kinds["history"].P50ms)

	memHits, memMisses := float64(after.memHits-before.memHits), float64(after.memMisses-before.memMisses)
	diskHits, diskMisses := float64(after.diskHits-before.diskHits), float64(after.diskMisses-before.diskMisses)
	l.set("cache.mem_hit_ratio", ratio(memHits, memHits+memMisses))
	l.set("cache.mem_misses_per_query", rep.Sizes["cache_mem_misses_per_query"])
	l.set("cache.disk_hit_ratio", ratio(diskHits, diskHits+diskMisses))

	l.set("oss.puts", float64(d.puts))
	l.set("oss.put_bytes", float64(d.putBytes))
	l.set("oss.gets", float64(d.gets))
	l.set("oss.range_gets", float64(d.rangeGets))
	l.set("oss.heads", float64(d.heads))
	l.set("oss.gets_per_query", rep.Sizes["oss_gets_per_query"])
	l.set("oss.bytes_out_per_query", ratio(float64(d.bytesOut), queries))
	l.set("oss.busy_ms_per_query", ratio(ms(time.Duration(d.busyNS)), queries))

	cpu := after.cpu - before.cpu
	mallocs := float64(after.mem.Mallocs - before.mem.Mallocs)
	l.set("process.cpu_ms_per_op", rep.CPUmsPerOp)
	l.set("process.cpu_us_per_query", ratio(us(cpu), queries))
	l.set("process.allocs_per_row", ratio(mallocs, rows))
	l.set("process.allocs_per_query", ratio(mallocs, queries))
	l.set("process.heap_inuse_peak_mb", float64(iv.heapPeak)/(1<<20))
	l.set("process.gc_pause_ms", ms(time.Duration(after.mem.PauseTotalNs-before.mem.PauseTotalNs)))
	l.set("process.disk_write_bytes_per_user_byte",
		ratio(float64(after.diskWrite-before.diskWrite), rows*userBytesPerRow))
	l.set("process.goroutines_peak", float64(iv.goroutinesPeak))
	l.set("process.minor_faults", float64(after.faults-before.faults))

	// Tracing was on in the interval's even windows and off in the odd
	// ones. A closed loop shows the overhead as lost throughput, a
	// paced one as added latency. Three windows against two of a couple
	// of seconds each: good to a few percent, no better.
	on, off := iv.tracedSplit(m.primary...)
	if len(m.kinds) == 0 {
		perWindow := func(s []sample, n float64) float64 { return float64(len(s)) / n }
		l.set("trace.overhead_frac", 1-ratio(perWindow(on, (windows+1)/2), perWindow(off, windows/2)))
	} else {
		p50 := func(s []sample) float64 {
			lat := make([]float64, len(s))
			for i, x := range s {
				lat[i] = ms(x.latency)
			}
			return median(lat)
		}
		l.set("trace.overhead_frac", ratio(p50(on), p50(off))-1)
	}
}

// fromSpans fills what only per-request attribution can give: how much
// the object-store calls of one query overlap, how long a query spends
// outside them, and what one call costs.
func (l *layerSet) fromSpans(spans []span) {
	kids := childrenByParent(spans)
	var conc, gets, self []float64
	for _, s := range spans {
		switch s.Name {
		case "Cluster.QueryContext":
			if c := concurrency(s, kids[s.ID]); c > 0 {
				conc = append(conc, c)
			}
			self = append(self, ms(time.Duration(selfNS(s, kids[s.ID]))))
		case "oss.Get", "oss.GetRange":
			gets = append(gets, ms(time.Duration(s.dur())))
		}
	}
	var sum float64
	for _, c := range conc {
		sum += c
	}
	l.set("oss.concurrency_mean", ratio(sum, float64(len(conc))))
	l.set("oss.get_p50_ms", median(gets))
	l.set("query.self_p50_ms", median(self))
}
