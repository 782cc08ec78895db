package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json and the tables the program emits from must name
// exactly the same workloads and metrics, with the same units and
// directions.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var spec benchmarkFile
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var gated []string
	for _, w := range workloadDefs {
		if w.ungated == "" {
			gated = append(gated, w.Name)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program gates %d", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, gated[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != endToEnd[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program emits %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != perLayer[i] {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, got, perLayer[i])
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%q (%q) breaks the naming rules", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%q: better = %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("%q is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

// Every per-layer metric in the table must be named where metrics are
// set: a name nothing sets would be emitted as a silent zero.
func TestEveryPerLayerMetricIsSet(t *testing.T) {
	var src []byte
	for _, f := range []string{"layers.go", "ladder.go", "run.go", "workloads.go"} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src = append(src, data...)
	}
	for _, d := range perLayer {
		if !bytes.Contains(src, []byte(`"`+d.Name+`"`)) {
			t.Errorf("no code sets per-layer metric %q", d.Name)
		}
	}
}
