package main

import (
	"path/filepath"
	"strings"
	"testing"

	"newsum/internal/bench/trajectory"
)

// seedBaseline writes a baseline trajectory with one record into dir and
// returns its path.
func seedBaseline(t *testing.T, dir string, benches []trajectory.Bench) string {
	t.Helper()
	path := filepath.Join(dir, "BENCH_TEST.json")
	f := &trajectory.File{}
	f.Append("Go Benchmark", trajectory.Record{
		Commit:  trajectory.Commit{ID: "baseline"},
		Date:    1754640000000,
		Tool:    "go",
		Benches: benches,
	})
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateSelfTest is the standing gate's own regression test: inject a
// >threshold regression in a deterministic unit into a fresh temp-dir
// baseline and require the comparator to exit non-zero naming the metric,
// exactly as verify.sh runs it.
func TestGateSelfTest(t *testing.T) {
	base := seedBaseline(t, t.TempDir(), []trajectory.Bench{
		{Name: "BenchmarkAblationDetectionLatency/lazy-d8", Value: 168, Unit: "wasted-iters"},
		{Name: "BenchmarkAblationVerifyCost", Value: 0, Unit: "allocs/op"},
	})
	// Injected regression: wasted-iters 168 → 200 (any increase fails),
	// alloc pin 0 → 3 (pinned zero broken).
	input := "BenchmarkAblationDetectionLatency/lazy-d8 1 100 ns/op 200 wasted-iters\n" +
		"BenchmarkAblationVerifyCost 1 100 ns/op 3 allocs/op\n"
	var out, errOut strings.Builder
	code := run([]string{"-baseline", base}, strings.NewReader(input), &out, &errOut)
	if code == 0 {
		t.Fatalf("injected regression did not fail the gate:\n%s%s", out.String(), errOut.String())
	}
	for _, want := range []string{"BenchmarkAblationDetectionLatency/lazy-d8", "wasted-iters",
		"BenchmarkAblationVerifyCost", "allocs/op", "REGRESSED"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("gate report does not name %q:\n%s", want, out.String())
		}
	}
}

// TestGatePassesCleanRun: the same run re-compared against itself passes,
// and a wall-clock unit is not compared at all — a 1x pass times nothing.
func TestGatePassesCleanRun(t *testing.T) {
	base := seedBaseline(t, t.TempDir(), []trajectory.Bench{
		{Name: "BenchmarkX", Value: 100, Unit: "ns/op"},
		{Name: "BenchmarkX", Value: 7, Unit: "wasted-iters"},
	})
	// 50x timing blowup but identical deterministic metric.
	input := "BenchmarkX 1 5000 ns/op 7 wasted-iters\n"
	var out, errOut strings.Builder
	if code := run([]string{"-baseline", base}, strings.NewReader(input), &out, &errOut); code != 0 {
		t.Fatalf("clean run failed (%d):\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "compared 1 metrics: 1 ok") {
		t.Errorf("want the wasted-iters metric alone compared:\n%s", out.String())
	}
}

// TestRecordAndFilters: -record appends a trimmed record without the
// wall-clock units; -only/-exclude split one bench stream into per-suite
// baselines.
func TestRecordAndFilters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_CORE.json")
	input := "BenchmarkCore 1 100 ns/op 0 allocs/op\nBenchmarkServeQueue 1 200 ns/op 5 allocs/op\n"

	var out, errOut strings.Builder
	code := run([]string{"-baseline", path, "-record", "-exclude", "^BenchmarkServe",
		"-commit", "abc123", "-message", "first record"},
		strings.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("first record run failed (%d): %s", code, errOut.String())
	}
	f, err := trajectory.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := f.Latest("Go Benchmark")
	if !ok || len(rec.Benches) != 1 || rec.Commit.ID != "abc123" {
		t.Fatalf("recorded entry wrong: %+v", rec)
	}
	if b := rec.Benches[0]; b.Name != "BenchmarkCore" || b.Unit != "allocs/op" {
		t.Fatalf("recorded %+v, want BenchmarkCore's allocs/op alone (no ns/op, no serve metric)", b)
	}

	// -only keeps just the serve metrics.
	var out2, errOut2 strings.Builder
	servePath := filepath.Join(dir, "BENCH_SERVE.json")
	code = run([]string{"-baseline", servePath, "-record", "-only", "^BenchmarkServe"},
		strings.NewReader(input), &out2, &errOut2)
	if code != 0 {
		t.Fatalf("serve record run failed (%d): %s", code, errOut2.String())
	}
	sf, err := trajectory.Load(servePath)
	if err != nil {
		t.Fatal(err)
	}
	srec, _ := sf.Latest("Go Benchmark")
	if len(srec.Benches) != 1 || !strings.HasPrefix(srec.Benches[0].Name, "BenchmarkServe") {
		t.Fatalf("-only kept wrong metrics: %+v", srec.Benches)
	}
}

// TestRecordRefusedOnRegression: a regressed run is not silently written
// over the baseline; -force re-baselines deliberately.
func TestRecordRefusedOnRegression(t *testing.T) {
	dir := t.TempDir()
	base := seedBaseline(t, dir, []trajectory.Bench{
		{Name: "BenchmarkX", Value: 0, Unit: "sdc-rate"},
	})
	input := "BenchmarkX 1 100 ns/op 2 sdc-rate\n"
	var out, errOut strings.Builder
	if code := run([]string{"-baseline", base, "-record"},
		strings.NewReader(input), &out, &errOut); code == 0 {
		t.Fatal("regressed -record run exited zero")
	}
	if !strings.Contains(errOut.String(), "refusing to record") {
		t.Errorf("no refusal diagnostic: %s", errOut.String())
	}
	f, err := trajectory.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Entries["Go Benchmark"]) != 1 {
		t.Fatal("regressed run was recorded anyway")
	}

	var out2, errOut2 strings.Builder
	if code := run([]string{"-baseline", base, "-record", "-force"},
		strings.NewReader(input), &out2, &errOut2); code != 1 {
		t.Fatalf("-force run exit = %d, want 1 (gate still reports the regression)", code)
	}
	f2, err := trajectory.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Entries["Go Benchmark"]) != 2 {
		t.Fatal("-force did not record")
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                                      // missing -baseline
		{"-baseline", "x", "-smoke"},            // removed flag: there is one mode
		{"-baseline", "x", "-only", "("},        // bad regexp
		{"-baseline", "x", "-input", "/nope"},   // unreadable input
		{"-baseline", "/nope/dir/x", "-record"}, // parse fails first on empty stdin
	} {
		var out, errOut strings.Builder
		if code := run(args, strings.NewReader(""), &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2 (%s)", args, code, errOut.String())
		}
	}
}

func TestEmptyInputAfterFilters(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-baseline", filepath.Join(t.TempDir(), "b.json"), "-only", "^Nope"},
		strings.NewReader("BenchmarkX 1 100 ns/op\n"), &out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), "no benchmark metrics") {
		t.Fatalf("empty-after-filter run = %d, %s", code, errOut.String())
	}
}

func TestFirstRecordHasNoBaseline(t *testing.T) {
	var out, errOut strings.Builder
	path := filepath.Join(t.TempDir(), "b.json")
	code := run([]string{"-baseline", path},
		strings.NewReader("BenchmarkX 1 100 ns/op 0 allocs/op\n"), &out, &errOut)
	if code != 0 || !strings.Contains(out.String(), "no baseline record") {
		t.Fatalf("first run against empty baseline = %d, %s", code, out.String())
	}
}
