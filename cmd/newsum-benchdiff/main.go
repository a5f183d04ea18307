// Command newsum-benchdiff gates benchmark regressions against a
// committed trajectory file and records new runs into it.
//
// It reads `go test -bench` output — raw text or the `-json` (test2json)
// stream — parses every metric line, keeps the units the trajectory has a
// rule for (B/op, allocs/op, and this repo's deterministic b.ReportMetric
// units: sdc-rate, wasted-iters, detect-%, stored-bytes, …), and compares
// the run against the newest record in the baseline trajectory. A
// regression exits non-zero and names the metric. Wall-clock units have no
// rule: they are neither compared nor recorded (benchmark/ takes those).
//
// Usage:
//
//	go test -bench . -benchmem | newsum-benchdiff -baseline BENCH_CORE.json
//	newsum-benchdiff -baseline BENCH_CORE.json -input bench.out -record -commit "$(git rev-parse HEAD)"
//	newsum-benchdiff -baseline BENCH_SERVE.json -only '^BenchmarkServe' -input bench.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"time"

	"newsum/internal/bench/trajectory"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// fprintf and fprintln route CLI output to the injected streams. A failed
// write to stdout/stderr leaves the gate nothing to report with, so the
// error is consciously dropped.
func fprintf(w io.Writer, format string, args ...any) {
	//lint:ignore errdrop CLI output failure is unactionable from inside the CLI
	_, _ = fmt.Fprintf(w, format, args...)
}

func fprintln(w io.Writer, args ...any) {
	//lint:ignore errdrop CLI output failure is unactionable from inside the CLI
	_, _ = fmt.Fprintln(w, args...)
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("newsum-benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseline   = fs.String("baseline", "", "trajectory file to compare against (required)")
		input      = fs.String("input", "-", "bench output to read ('-' = stdin)")
		suite      = fs.String("suite", "Go Benchmark", "suite name inside the trajectory file")
		only       = fs.String("only", "", "regexp: keep only matching benchmark names")
		exclude    = fs.String("exclude", "", "regexp: drop matching benchmark names")
		record     = fs.Bool("record", false, "append this run to the baseline file (refused on regression unless -force)")
		force      = fs.Bool("force", false, "record even when the gate fails (deliberate re-baselining)")
		commit     = fs.String("commit", "unknown", "commit id for the recorded entry")
		message    = fs.String("message", "", "commit message for the recorded entry")
		maxRecords = fs.Int("max-records", 50, "keep at most this many records per suite (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" {
		fprintln(stderr, "newsum-benchdiff: -baseline is required")
		return 2
	}

	in := stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fprintln(stderr, "newsum-benchdiff:", err)
			return 2
		}
		//lint:ignore errdrop read-only file; Close cannot lose data
		defer f.Close()
		in = f
	}
	benches, err := trajectory.ParseGoBench(in)
	if err != nil {
		fprintln(stderr, "newsum-benchdiff:", err)
		return 2
	}
	rules := trajectory.DefaultRules()
	benches, err = filterBenches(benches, rules, *only, *exclude)
	if err != nil {
		fprintln(stderr, "newsum-benchdiff:", err)
		return 2
	}
	if len(benches) == 0 {
		fprintln(stderr, "newsum-benchdiff: no benchmark metrics in input (after filters)")
		return 2
	}

	file, err := trajectory.LoadOrEmpty(*baseline)
	if err != nil {
		fprintln(stderr, "newsum-benchdiff:", err)
		return 2
	}

	failed := false
	if base, ok := file.Latest(*suite); ok {
		rep := trajectory.Compare(base.Benches, benches, rules)
		if err := rep.WriteText(stdout); err != nil {
			fprintln(stderr, "newsum-benchdiff:", err)
			return 2
		}
		failed = rep.Failed()
	} else {
		fprintf(stdout, "no baseline record in %s suite %q: %d metrics are new\n",
			*baseline, *suite, len(benches))
	}

	if *record {
		if failed && !*force {
			fprintln(stderr, "newsum-benchdiff: refusing to record a regressed run (use -force to re-baseline deliberately)")
			return 1
		}
		file.Append(*suite, trajectory.Record{
			Commit: trajectory.Commit{
				ID:        *commit,
				Message:   *message,
				Timestamp: time.Now().UTC().Format(time.RFC3339),
			},
			Date:    time.Now().UnixMilli(),
			Tool:    "go",
			Benches: benches,
		})
		file.Trim(*suite, *maxRecords)
		if err := file.Save(*baseline); err != nil {
			fprintln(stderr, "newsum-benchdiff:", err)
			return 2
		}
		fprintf(stdout, "recorded %d metrics to %s suite %q\n", len(benches), *baseline, *suite)
	}

	if failed {
		return 1
	}
	return 0
}

// filterBenches keeps the metrics whose unit has a rule — the rest are
// neither compared nor recorded — and applies the -only / -exclude name
// regexps.
func filterBenches(benches []trajectory.Bench, rules trajectory.RuleSet, only, exclude string) ([]trajectory.Bench, error) {
	var keep []trajectory.Bench
	for _, b := range benches {
		if _, ok := rules.ByUnit[b.Unit]; ok {
			keep = append(keep, b)
		}
	}
	if only != "" {
		re, err := regexp.Compile(only)
		if err != nil {
			return nil, fmt.Errorf("-only: %w", err)
		}
		var out []trajectory.Bench
		for _, b := range keep {
			if re.MatchString(b.Name) {
				out = append(out, b)
			}
		}
		keep = out
	}
	if exclude != "" {
		re, err := regexp.Compile(exclude)
		if err != nil {
			return nil, fmt.Errorf("-exclude: %w", err)
		}
		var out []trajectory.Bench
		for _, b := range keep {
			if !re.MatchString(b.Name) {
				out = append(out, b)
			}
		}
		keep = out
	}
	return keep, nil
}
