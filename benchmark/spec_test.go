package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestSpecMatchesTables keeps BENCHMARK.json at the root of the repository
// and the tables the benchmark reports from in step, and checks the limits
// the file must stay inside.
func TestSpecMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has the extra key %q", k)
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(ws))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != ws[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, w.Name, ws[i].name)
		}
	}

	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(spec.EndToEnd), len(endToEndMetrics))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		if want := endToEndMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json and %+v in the benchmark", i, m, want)
		}
		if !unit.MatchString(m.Unit) || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("%s has a larger bound than setup_s", o.Name)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(spec.PerLayer) != len(perLayerMetrics) || len(spec.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark, at most 128 allowed", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		if want := perLayerMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json and %+v in the benchmark", i, m, want)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q", m.Name, m.Unit)
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, at most 64 KiB allowed", len(data))
	}
}
