package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) (ys []float64) {
		for _, x := range xs {
			ys = append(ys, x*f)
		}
		return ys
	}
	noisy := []float64{80, 120, 70, 130, 100, 90, 110, 60, 140, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, steady, "lower", 0.1, verdictWithin},
		{"slower within the bound", steady, scale(steady, 1.08), "lower", 0.1, verdictWithin},
		{"slower beyond the bound", steady, scale(steady, 1.15), "lower", 0.1, verdictWorse},
		{"faster", steady, scale(steady, 0.5), "lower", 0.1, verdictWithin},
		{"throughput down beyond the bound", steady, scale(steady, 0.85), "higher", 0.1, verdictWorse},
		{"throughput up", steady, scale(steady, 1.5), "higher", 0.1, verdictWithin},
		{"spread wider than the bound", noisy, noisy, "lower", 0.1, verdictUnresolved},
		{"worse wins over unresolved", noisy, scale(noisy, 1.5), "lower", 0.1, verdictWorse},
	} {
		if got, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	writeJSON := func(path string, v any) {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeJSON(spec, map[string]any{
		"workloads":  []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{{"name": "main_ms", "unit": "ms", "better": "lower", "bound": 0.1}},
	})
	file := func(name string, ms float64, iterations float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 4; seed++ {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"main_ms": {ms + float64(seed)/10, "ms"}}}
			if err := appendRecord(path, record{Workload: "w", Seed: seed, Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		traced := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"core.iterations": {iterations, "count"}, "core.allocs_per_solve": {ms, "count"}, "service.retries": {ms, "count"}}}
		if err := appendRecord(path, record{Workload: "w", Seed: 1, Trace: 1, Result: traced}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow, drift := file("a", 100, 314), file("same", 101, 314), file("slow", 120, 314), file("drift", 100, 315)

	var out, errs bytes.Buffer
	compareFiles := func(spec, a, b string, out, errs *bytes.Buffer) int {
		return compareFiles(spec, a, b, &printer{w: out}, &printer{w: errs})
	}
	if code := compareFiles(spec, a, same, &out, &errs); code != 0 {
		t.Errorf("a against same: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), verdictWithin) || strings.Contains(out.String(), "count differs") {
		t.Errorf("a against same printed\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(spec, a, slow, &out, &errs); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a against slow: exit %d\n%s", code, out.String())
	}
	out.Reset()
	// Allocation counts and service counters may differ; the solver's
	// iteration count at the same seed may not.
	if code := compareFiles(spec, a, drift, &out, &errs); code != 1 || !strings.Contains(out.String(), "core.iterations is 314 in a and 315 in b") {
		t.Errorf("a against drift: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(spec, a, filepath.Join(dir, "missing"), &out, &errs); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

func TestCheckPinned(t *testing.T) {
	var pin pinnedCounts
	if err := json.Unmarshal(pinnedJSON, &pin); err != nil {
		t.Fatal(err)
	}
	host := hostInfo{GOARCH: pin.GOARCH}
	for name, want := range pin.Workloads {
		got := map[string]float64{}
		for k, v := range want {
			got[k] = v
		}
		if err := checkPinned(name, pin.Seed, host, got); err != nil {
			t.Errorf("%s: the pinned counts do not pass their own check: %v", name, err)
		}
		got["base.iterations"]++
		if err := checkPinned(name, pin.Seed, host, got); err == nil {
			t.Errorf("%s: one more iteration passed the check", name)
		}
		// Another seed has other inputs, another architecture other
		// rounding: neither is held to the pinned counts.
		if err := checkPinned(name, pin.Seed+1, host, got); err != nil {
			t.Errorf("%s: another seed was checked: %v", name, err)
		}
		if err := checkPinned(name, pin.Seed, hostInfo{GOARCH: "other"}, got); err != nil {
			t.Errorf("%s: another architecture was checked: %v", name, err)
		}
		delete(got, "base.iterations")
		got["main.rollbacks"] = 1e9
		if err := checkPinned(name, pin.Seed, host, got); err == nil {
			t.Errorf("%s: a count that is not pinned passed the check", name)
		}
	}
	if len(pin.Workloads) == 0 {
		t.Error("pinned.json pins no workload")
	}
}
