// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON object on stdout, one entry per benchmark:
//
//	{"BenchmarkScanInt64Pred": {"ns_op": 123456.0, "b_op": 7890, "allocs_op": 12}, ...}
//
// A benchmark's custom metrics ride along under "metrics", keyed by
// their unit: {"ns_op": ..., "metrics": {"packedB/userB": 0.28, "ns/row": 2761}}.
//
// Lines that are not benchmark results (PASS, ok, logs) are ignored, so
// the raw `go test` stream can be piped through unchanged:
//
//	go test -bench 'Scan' -benchmem -run '^$' ./... | benchjson > BENCH_scan.json
//
// Benchmarks appearing more than once (e.g. -count > 1) keep the last
// result, or — with -best — the lowest-ns/op one. Min-of-N is the
// standard de-noising for tight perf gates: the minimum converges on
// the true cost floor while mean and last soak up scheduler noise.
// The trailing "-8" GOMAXPROCS suffix is stripped from names.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result carries the three benchmem metrics recorded per benchmark,
// and any custom per-op metrics the benchmark reports (b.ReportMetric
// or b.SetBytes: packedB/userB, ns/row, MB/s), keyed by unit.
type Result struct {
	NsOp     float64            `json:"ns_op"`
	BOp      int64              `json:"b_op"`
	AllocsOp int64              `json:"allocs_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

func parseLine(line string) (string, Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", Result{}, false
	}
	fields := strings.Fields(line)
	// name  N  ns/op  [B/op]  [allocs/op]  [extra metrics...]
	if len(fields) < 3 {
		return "", Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var res Result
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsOp = v
			seen = true
		case "B/op":
			res.BOp = int64(v)
		case "allocs/op":
			res.AllocsOp = int64(v)
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[fields[i+1]] = v
		}
	}
	return name, res, seen
}

func main() {
	best := flag.Bool("best", false, "keep the lowest-ns/op result per benchmark across -count repeats (default: last wins)")
	flag.Parse()
	results := make(map[string]Result)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line) // keep the human-readable stream visible
		if name, res, ok := parseLine(line); ok {
			if prev, dup := results[name]; *best && dup && prev.NsOp <= res.NsOp {
				continue
			}
			results[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	// Emit in sorted order for stable diffs.
	out := make([]byte, 0, 1024)
	out = append(out, "{\n"...)
	for i, n := range names {
		entry, err := json.Marshal(results[n])
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
			os.Exit(1)
		}
		out = append(out, "  "...)
		key, _ := json.Marshal(n)
		out = append(out, key...)
		out = append(out, ": "...)
		out = append(out, entry...)
		if i != len(names)-1 {
			out = append(out, ',')
		}
		out = append(out, '\n')
	}
	out = append(out, "}\n"...)
	os.Stdout.Write(out)
}
