// Command benchmark is the repository's benchmark: it drives an embedded
// LogStore cluster through its public entry points under five workloads,
// checks what comes back, and prints end-to-end metrics — or, with
// -trace 1, per-layer metrics measured from outside the program.
// BENCHMARK.json at the repository root names every workload and
// metric; README.md in this directory says what each is for.
//
//	go run ./benchmark                          # all workloads, one after another
//	go run ./benchmark -workload query_cold -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -workload query_cold -trace 1
//	go run ./benchmark -repeat 5 -out a.json    # spread per metric and workload
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (empty = all, in order)")
		seed    = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds = fs.Int("seconds", 10, "length of the measured interval")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics and a trace file; 0 = end-to-end metrics")
		repeat  = fs.Int("repeat", 1, "run each workload this many times, on consecutive seeds, and report the spread")
		out     = fs.String("out", "", "also write the -repeat summary to this file")
		compare = fs.Bool("compare", false, "compare two -repeat summaries: benchmark -compare a.json b.json")
		outDir  = fs.String("outdir", "benchmark/out", "directory for trace files and scratch data")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two summary files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || *repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -repeat must be at least 1")
		return 2
	}
	defs := workloadDefs
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		defs = []workloadDef{*w}
	}

	enc := json.NewEncoder(stdout)
	status := 0
	runs := make(map[string][]*report)
	for r := 0; r < *repeat; r++ {
		for i := range defs {
			o := &options{seed: *seed + int64(r), seconds: *seconds, trace: *trace != 0, outDir: *outDir, errw: stderr}
			rep, err := runWorkload(o, &defs[i])
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			if !rep.Result.Correct {
				status = 1
			}
			runs[rep.Workload] = append(runs[rep.Workload], rep)
			// The explanation first, indented; then the one-line result
			// the driver reads, last.
			pretty, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", pretty)
			if err := enc.Encode(rep.Result); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
	}
	if *repeat > 1 {
		if err := writeSummary(summarizeRuns(runs, *seed, *seconds), *out, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return status
}
