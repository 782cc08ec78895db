package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// summary is the outcome of -repeat: for every workload and metric the
// spread over the runs. Two summaries are what -compare takes.
type summary struct {
	Seed      int64                        `json:"first_seed"`
	Seconds   int                          `json:"seconds"`
	Traced    bool                         `json:"traced"`
	Workloads map[string]map[string]spread `json:"workloads"`
}

func summarizeRuns(runs map[string][]*report, seed int64, seconds int) *summary {
	s := &summary{Seed: seed, Seconds: seconds, Workloads: make(map[string]map[string]spread)}
	for name, reps := range runs {
		vals := make(map[string][]float64)
		for _, rep := range reps {
			s.Traced = rep.Traced
			for metric, v := range rep.Result.Metrics {
				vals[metric] = append(vals[metric], v.Value)
			}
		}
		s.Workloads[name] = make(map[string]spread)
		for metric, v := range vals {
			s.Workloads[name][metric] = summarize(v)
		}
	}
	return s
}

func writeSummary(s *summary, path string, stdout io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if path != "" {
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

// Verdicts of -compare, per metric and workload.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies the benchmark's own rule to one metric and returns how
// much worse b is than a (negative = better): b is worse
// when its median is worse than a's by more than the bound, unless the
// run-to-run spread of either side (quartile distance over median)
// exceeds the bound, in which case the runs cannot tell.
func verdict(a, b spread, better string, bound float64) (string, float64) {
	if a.Median == 0 {
		return verdictUnresolved, 0
	}
	change := (b.Median - a.Median) / a.Median
	if better == "higher" {
		change = -change
	}
	switch {
	case a.IQRFrac > bound || b.IQRFrac > bound:
		return verdictUnresolved, change
	case change > bound:
		return verdictWorse, change
	}
	return verdictWithin, change
}

// benchmarkFile is BENCHMARK.json as far as -compare and the tests
// need it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for every end-to-end metric and workload present
// in both summaries, the change from a to b and its verdict under the
// bound BENCHMARK.json fixes. It returns 1 if any metric is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var a, b summary
	var spec benchmarkFile
	for _, f := range []struct {
		path string
		v    any
	}{{pathA, &a}, {pathB, &b}, {"BENCHMARK.json", &spec}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	status := 0
	fmt.Fprintf(stdout, "%-20s %-24s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "worse by", "bound", "iqr a/b", "verdict")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			sa, okA := a.Workloads[name][m.Name]
			sb, okB := b.Workloads[name][m.Name]
			if !okA || !okB {
				continue
			}
			v, change := verdict(sa, sb, m.Better, m.Bound)
			if v == verdictWorse {
				status = 1
			}
			fmt.Fprintf(stdout, "%-20s %-24s %12.4f %12.4f %+7.1f%% %7.0f%% %3.0f/%-3.0f%%  %s\n",
				name, m.Name, sa.Median, sb.Median, 100*change, 100*m.Bound, 100*sa.IQRFrac, 100*sb.IQRFrac, v)
		}
	}
	return status
}
