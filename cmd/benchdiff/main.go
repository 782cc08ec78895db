// Command benchdiff compares a fresh benchjson report against a
// committed baseline and fails when a benchmark regressed: ns/op or
// allocs/op more than -max-regress percent above the baseline. It is
// the perf gate that keeps the numbers in BENCH_*.json honest — a PR
// that slows the tracked paths down must either fix the regression or
// consciously re-baseline by committing the new JSON.
//
//	go test -bench ... -benchmem | benchjson > /tmp/new.json
//	benchdiff -base BENCH_scan.json -new /tmp/new.json
//
// A custom metric in exactMetrics (packedB/userB) fails the gate when
// it grows by more than its own, much tighter, bound; the others are
// printed for context.
//
// Benchmarks present in only one file are reported but not failing:
// baselines grow as benchmarks are added. Improvements are printed so
// a perf PR's wins are visible in the same output.
//
// -mode soak switches to the soak-report format (cmd/logstore-soak's
// flat metrics JSON, BENCH_soak*.json) and gates the throughput
// metrics, where lower — not higher — is the regression:
//
//	benchdiff -mode soak -base BENCH_soak_short.json -new /tmp/soak.json
//
// Soak runs are noisier than micro-benchmarks (zipfian load,
// scheduling, wall-clock pacing), so the soak gate defaults to a wider
// -max-regress; tune per call site rather than loosening the micro
// gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// result mirrors cmd/benchjson's per-benchmark entry.
type result struct {
	NsOp     float64            `json:"ns_op"`
	BOp      int64              `json:"b_op"`
	AllocsOp int64              `json:"allocs_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// exactMetrics are the custom metrics a benchmark computes from its
// output rather than from a clock, with the growth in percent that
// fails the gate. They do not vary run to run, so a tight bound is a
// real one: packedB/userB is the bytes a packed LogBlock costs per byte
// of user data.
var exactMetrics = map[string]float64{"packedB/userB": 1}

func load(path string) map[string]result {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	out := make(map[string]result)
	if err := json.Unmarshal(data, &out); err != nil {
		fatal("%s: %v", path, err)
	}
	return out
}

func pct(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// soakGateKeys are the soak metrics the gate holds steady: sustained
// throughput on both halves of the workload. Latency percentiles are
// printed for context but not gated — a 2s short soak's p99 swings
// too wildly to fail a build on.
var soakGateKeys = []string{"rows_per_sec", "queries_per_sec"}

var soakContextKeys = []string{"append_p50_ms", "append_p99_ms", "query_p50_ms", "query_p99_ms", "group_factor"}

// loadSoak reads a logstore-soak flat metrics report.
func loadSoak(path string) map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	out := make(map[string]float64)
	if err := json.Unmarshal(data, &out); err != nil {
		fatal("%s: %v", path, err)
	}
	return out
}

// diffSoak gates the throughput keys: a drop beyond maxRegress percent
// below the baseline fails.
func diffSoak(basePath, newPath string, maxRegress float64) {
	base := loadSoak(basePath)
	cur := loadSoak(newPath)
	failed := 0
	for _, k := range soakGateKeys {
		b, okB := base[k]
		c, okC := cur[k]
		if !okB || !okC {
			fmt.Printf("SKIP %s: missing from %s\n", k, map[bool]string{false: basePath, true: newPath}[okB])
			continue
		}
		drop := pct(b, c) // negative when throughput fell
		verdict := "ok  "
		if -drop > maxRegress {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%s %-18s %12.1f → %12.1f (%+6.1f%%)\n", verdict, k, b, c, drop)
	}
	for _, k := range soakContextKeys {
		if b, ok := base[k]; ok {
			if c, ok := cur[k]; ok {
				fmt.Printf("info %-18s %12.3f → %12.3f (%+6.1f%%)\n", k, b, c, pct(b, c))
			}
		}
	}
	if failed > 0 {
		fatal("%d soak metric(s) dropped more than %.0f%%", failed, maxRegress)
	}
}

func main() {
	var (
		basePath   = flag.String("base", "", "committed baseline JSON (required)")
		newPath    = flag.String("new", "", "freshly measured JSON (required)")
		maxRegress = flag.Float64("max-regress", 25, "max tolerated regression, percent")
		mode       = flag.String("mode", "bench", "report format: bench (benchjson micro) or soak (logstore-soak metrics)")
	)
	flag.Parse()
	if *basePath == "" || *newPath == "" {
		fatal("usage: benchdiff [-mode bench|soak] -base BENCH_x.json -new /tmp/new.json [-max-regress 25]")
	}
	if *mode == "soak" {
		diffSoak(*basePath, *newPath, *maxRegress)
		return
	}
	if *mode != "bench" {
		fatal("unknown -mode %q (want bench or soak)", *mode)
	}
	base := load(*basePath)
	cur := load(*newPath)

	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)

	failed := 0
	for _, n := range names {
		b := base[n]
		c, ok := cur[n]
		if !ok {
			fmt.Printf("SKIP %s: missing from %s\n", n, *newPath)
			continue
		}
		nsDelta := pct(b.NsOp, c.NsOp)
		allocDelta := pct(float64(b.AllocsOp), float64(c.AllocsOp))
		verdict := "ok  "
		if nsDelta > *maxRegress || allocDelta > *maxRegress {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%s %-40s ns/op %12.0f → %12.0f (%+6.1f%%)  allocs/op %6d → %6d (%+6.1f%%)\n",
			verdict, n, b.NsOp, c.NsOp, nsDelta, b.AllocsOp, c.AllocsOp, allocDelta)
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			bv := b.Metrics[unit]
			cv, ok := c.Metrics[unit]
			if !ok {
				fmt.Printf("SKIP %s %s: missing from %s\n", n, unit, *newPath)
				continue
			}
			verdict := "info"
			if bound, exact := exactMetrics[unit]; exact {
				verdict = "ok  "
				if pct(bv, cv) > bound {
					verdict = "FAIL"
					failed++
				}
			}
			fmt.Printf("%s %-40s %-14s %12.4g → %12.4g (%+6.1f%%)\n", verdict, n, unit, bv, cv, pct(bv, cv))
		}
	}
	for n := range cur {
		if _, ok := base[n]; !ok {
			fmt.Printf("NEW  %s: not in baseline %s\n", n, *basePath)
		}
	}
	if failed > 0 {
		fatal("%d benchmark(s) or exact metric(s) regressed beyond their bounds (ns/op and allocs/op %.0f%%)", failed, *maxRegress)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
