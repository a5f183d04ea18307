package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
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

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// readRecords reads an --out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //lint:ignore errdrop the file is only read
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// verdict of one (workload, metric) row.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a bound to two sets of runs of one metric: b is worse when
// its median is worse than a's by more than bound·median(a); the row is
// unresolved when either set's own spread is wider than the bound, because
// then a difference of that size cannot be told from noise.
func judge(a, b []float64, better string, bound float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / math.Abs(ma)
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case worse > bound:
		return verdictWorse, change
	case spread(a) > bound || spread(b) > bound:
		return verdictUnresolved, change
	}
	return verdictWithin, change
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and the exact counts that differ between traced runs at the
// same seed. It returns 1 when any row is worse or any count differs.
func compareFiles(specPath, pathA, pathB string, stdout, stderr *printer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		stderr.printf("benchmark: %v\n", err)
		return 2
	}
	var sets [2][]record
	for i, p := range []string{pathA, pathB} {
		if sets[i], err = readRecords(p); err != nil {
			stderr.printf("benchmark: %v\n", err)
			return 2
		}
	}
	values := func(recs []record, workload, metric string, trace int) (vs []float64) {
		for _, r := range recs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	status := 0
	stdout.printf("%-24s %-18s %5s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "bound", "median a", "median b", "change", "iqr a", "iqr b", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(sets[0], w.Name, m.Name, 0), values(sets[1], w.Name, m.Name, 0)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict, change := judge(a, b, m.Better, m.Bound)
			if verdict == verdictWorse {
				status = 1
			}
			stdout.printf("%-24s %-18s %5.2f %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, m.Bound, median(a), median(b), 100*change, 100*spread(a), 100*spread(b), verdict)
		}
	}

	// Exact counts of the solver and the par engine: the same seed must
	// give the same counts in both files.
	type key struct {
		workload string
		seed     int64
		metric   string
	}
	counts := map[key]float64{}
	for _, r := range sets[0] {
		for name, m := range r.Result.Metrics {
			if r.Trace == 1 && isExactCount(name, m.Unit) {
				counts[key{r.Workload, r.Seed, name}] = m.Value
			}
		}
	}
	var drift []string
	for _, r := range sets[1] {
		for name, m := range r.Result.Metrics {
			want, ok := counts[key{r.Workload, r.Seed, name}]
			if ok && r.Trace == 1 && math.Abs(want-m.Value) > 0 {
				drift = append(drift, fmt.Sprintf("%s seed %d: %s is %v in a and %v in b", r.Workload, r.Seed, name, want, m.Value))
			}
		}
	}
	sort.Strings(drift)
	for _, d := range drift {
		status = 1
		stdout.printf("count differs: %s\n", d)
	}
	return status
}

// isExactCount reports whether a per-layer metric is a count that the same
// inputs must reproduce: the solver's and the par engine's counts are;
// allocation counts and the service's counters depend on timing.
func isExactCount(name, unit string) bool {
	if unit != "count" || strings.Contains(name, "allocs") {
		return false
	}
	return strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "par.")
}
