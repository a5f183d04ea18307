package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEveryWorkloadEndToEnd runs every workload, untraced and traced, on
// operators a hundredth of the real size: the whole path from the flags to
// the result line, with every output checked, in a few seconds.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	defer func(old opSizes) { sizes = old }(sizes)
	sizes = opSizes{circuit: 600, convDiff: 24, par: 24, cold: 200}

	for _, w := range workloads() {
		// A round of a job workload is a time window that needs five jobs
		// of every arm, so those two need a longer phase than three solves.
		seconds := fmt.Sprint(0.2 * smokeScale)
		if w.name == "serve_mixed" || w.name == "router_tiny" {
			seconds = fmt.Sprint(0.6 * smokeScale)
		}
		for _, trace := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			start := time.Now()
			code := run([]string{"--workload", w.name, "--seed", "5", "--seconds", seconds, "--trace", trace,
				"--trace-out", filepath.Join(t.TempDir(), "trace.json")}, &out, &errs)
			t.Logf("%s --trace %s took %v", w.name, trace, time.Since(start))
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s%s", w.name, trace, code, out.String(), errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var keys map[string]json.RawMessage
			var res result
			last := []byte(lines[len(lines)-1])
			if err := json.Unmarshal(last, &keys); err != nil {
				t.Fatalf("%s: last line is not JSON: %v\n%s", w.name, err, last)
			}
			if err := json.Unmarshal(last, &res); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s --trace %s: %d keys, correct=%v attempted=%d failed=%d", w.name, trace, len(keys), res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndMetrics
			if trace == "1" {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s --trace %s: metric %s is missing", w.name, trace, m.name)
				case got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s --trace %s: metric %s = %v %s, want a number in %s", w.name, trace, m.name, got.Value, got.Unit, m.unit)
				case trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want above zero", w.name, m.name, got.Value)
				}
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no_such_workload"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"-compare", "only-one-file"},
		{"stray"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, errs.String())
		}
		if strings.Contains(out.String(), `"metrics"`) {
			t.Errorf("%v printed a result", args)
		}
	}
}
