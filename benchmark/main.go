// Command benchmark is the repository's wall-clock benchmark: six workloads
// over the library, the service and the router, each reporting the same
// end-to-end metrics, and with --trace 1 the same per-layer metrics.
// README.md in this directory describes the workloads and the metrics;
// BENCHMARK.json at the root of the repository names them with their bounds.
//
//	bash benchmark/run.sh --workload pcg_circuit_clean --seed 20160531 --seconds 12 --trace 0
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

//go:embed pinned.json
var pinnedJSON []byte

// pinnedCounts are the exact counts of every workload at one seed on one
// architecture. A run at that seed whose counts differ is a different
// program, and fails before it reports a timing.
type pinnedCounts struct {
	Seed      int64                         `json:"seed"`
	GOARCH    string                        `json:"goarch"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an --out file: a result with what produced it.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    int      `json:"trace"`
	Host     hostInfo `json:"host"`
	Result   result   `json:"result"`
}

type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	out      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// printer writes a report. The first write error sticks, and run turns it
// into a failed exit: a result nobody could read was not delivered.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	out, errs := &printer{w: stdout}, &printer{w: stderr}
	status := runWith(args, out, errs)
	if out.err != nil && status == 0 {
		return 1
	}
	return status
}

func runWith(args []string, stdout, stderr *printer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr.w)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", defaultSeed, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 12, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
	out := fs.String("out", "", "file to append each result to, one JSON line per run, for -compare")
	compare := fs.Bool("compare", false, "compare two --out files against the bounds in BENCHMARK.json")
	spec := fs.String("spec", "BENCHMARK.json", "the benchmark's description, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			stderr.printf("benchmark: -compare takes two result files\n")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		stderr.printf("benchmark: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		return 2
	}
	todo := workloads()
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			stderr.printf("benchmark: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	host := readHost()
	stdout.printf("host: nproc=%d GOMAXPROCS=%d %s %s caches=%v\n", host.NProc, host.GOMAXPROCS, host.GoVersion, host.GOARCH, host.Caches)
	status := 0
	for _, w := range todo {
		o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut, out: *out}
		if o.trace && o.traceOut == "" {
			o.traceOut = ".bench_build/trace-" + w.name + ".json"
		}
		res, err := runWorkload(w, o, host, stdout)
		if err != nil {
			stderr.printf("benchmark: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			stderr.printf("benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if o.out != "" {
			if err := appendRecord(o.out, record{w.name, o.seed, *trace, host, res}); err != nil {
				stderr.printf("benchmark: %v\n", err)
				return 1
			}
		}
		stdout.printf("%s\n", line)
		if !res.Correct || res.Failed > 0 {
			status = 1
		}
	}
	return status
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() //lint:ignore errdrop the write error is the one reported
		return err
	}
	return f.Close()
}

// runWorkload sets the workload up, warms it, measures it and checks it.
func runWorkload(w workload, o options, host hostInfo, stdout *printer) (res result, err error) {
	stdout.printf("\n== %s  seed=%d  seconds=%g  trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	for arm, what := range w.arms {
		stdout.printf("  %-4s = %s\n", armNames[arm], what)
	}

	// Set-up, repeated: a later change that moves work into set-up shows
	// in setup_s. The last instance is the one measured.
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		if inst, err = w.setup(o.seed, host); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()
	if err := inst.warmup(); err != nil {
		return res, err
	}

	var tr *tracer
	seconds := o.seconds
	if o.trace {
		// A traced run spends a third of its time on the workload itself
		// and the rest on the layer ladder.
		tr, seconds = newTracer(), o.seconds/3
	}
	rec := newRecorder(tr)
	runtime.GC()
	allocated := heapAllocated()
	inst.measure(seconds, rec)
	allocated = heapAllocated() - allocated

	if err := checkPinned(w.name, o.seed, host, rec.counts); err != nil {
		return res, err
	}
	// Every arm's wall time, as measured, with its quartiles and its sample
	// count. These are not end-to-end metrics, because on a shared host they
	// drift together by more than any bound worth setting; a traced run
	// reports them as run.* beside the layers.
	for arm := range rec.arms {
		q1, q2, q3 := quartiles(rec.arms[arm].ops)
		stdout.printf("  %-4s %10.4f ms  [q1 %.4f, q3 %.4f]  n=%d\n", armNames[arm], q2, q1, q3, len(rec.arms[arm].ops))
	}
	base, main, alt, ref := &rec.arms[armBase], &rec.arms[armMain], &rec.arms[armAlt], &rec.arms[armRef]
	defs, values := endToEndMetrics, map[string]float64{
		"setup_s":          median(setups),
		"base_over_ref_x":  armRatio(base, ref),
		"main_over_base_x": armRatio(main, base),
		"alt_over_base_x":  armRatio(alt, base),
		"alloc_kb_per_op":  allocated / 1024 / float64(rec.attempted),
	}
	if o.trace {
		defs = perLayerMetrics
		if values, err = runLadder(inst, rec, o.seed, o.seconds, host, stdout); err != nil {
			return res, err
		}
		values["run.base_ms"], values["run.main_ms"], values["run.alt_ms"] = median(base.ops), median(main.ops), median(alt.ops)
		values["run.ref_ms"], values["run.ops_per_s"] = median(ref.ops), rec.ops/rec.opsSeconds
		if err := writeTrace(o.traceOut, traceFile{w.name, o.seed, host, tr.spans}); err != nil {
			return res, err
		}
		stdout.printf("  %d spans written to %s\n", len(tr.spans), o.traceOut)
	}
	m := map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured (%v); failures: %v", d.name, v, rec.problems)
		}
		m[d.name] = metricValue{v, d.unit}
	}
	report(stdout, m, rec)
	return result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: m}, nil
}

// armRatio is the per-round paired ratio of two arms. A phase so short that
// no round holds enough jobs of both arms falls back on the ratio of the
// arms' medians over the whole phase.
func armRatio(num, den *armSamples) float64 {
	if r := pairedRatio(num.rounds, den.rounds); !math.IsNaN(r) {
		return r
	}
	return median(num.ops) / median(den.ops)
}

// report prints every metric by name and unit, the exact counts and the
// first failures.
func report(stdout *printer, m map[string]metricValue, rec *recorder) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		stdout.printf("  %-38s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	if len(rec.counts) > 0 {
		counts, err := json.Marshal(rec.counts)
		if err == nil {
			stdout.printf("  counts: %s\n", counts)
		}
	}
	stdout.printf("  attempted=%d failed=%d sdc=%d\n", rec.attempted, rec.failed, rec.sdc)
	for _, p := range rec.problems {
		stdout.printf("  FAILED: %s\n", p)
	}
}

// checkPinned compares the run's exact counts with the pinned ones when the
// run is at the pinned seed on the pinned architecture.
func checkPinned(workload string, seed int64, host hostInfo, counts map[string]float64) error {
	var pin pinnedCounts
	if err := json.Unmarshal(pinnedJSON, &pin); err != nil {
		return fmt.Errorf("pinned.json: %w", err)
	}
	want, ok := pin.Workloads[workload]
	if !ok || seed != pin.Seed || host.GOARCH != pin.GOARCH {
		return nil
	}
	names := map[string]bool{}
	for k := range want {
		names[k] = true
	}
	for k := range counts {
		names[k] = true
	}
	for k := range names {
		if math.Abs(want[k]-counts[k]) > 0 {
			got, err := json.Marshal(counts)
			if err != nil {
				return err
			}
			return fmt.Errorf("exact count %s is %v, pinned %v: the program computes something else than the one the baseline was taken on; if that is intended, re-pin benchmark/pinned.json to %s", k, counts[k], want[k], got)
		}
	}
	return nil
}

// heapAllocated is the number of bytes the process has allocated on the
// heap so far. The memory metric is what one operation allocates: it repeats
// from run to run within a few percent, where the heap's peak, even the
// peak of the live heap, moves by 10–30 % with the moments the collector
// happens to run.
func heapAllocated() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// runLadder runs the traced run's layer ladder and returns the per-layer
// metrics by name.
func runLadder(inst instance, rec *recorder, seed int64, seconds float64, host hostInfo, stdout *printer) (map[string]float64, error) {
	p, err := inst.layerProblem()
	if err != nil {
		return nil, err
	}
	pp, err := parProblem(seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	l := &layerRun{tr: rec.tr, rec: rec, host: host, seconds: seconds, metrics: map[string]float64{}, out: stdout}
	l.root = rec.tr.open("ladder", 0, 0, t0)
	for _, step := range []func() error{
		func() error { return l.opLadder(p) },
		func() error { return l.coreLadder(p) },
		func() error { return l.parLadder(pp) },
		func() error { return l.serviceLadder(inst) },
		func() error { return l.routerLadder(inst) },
		func() error { return l.missLadder(inst.jobs()) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	rec.tr.finish(l.root, time.Now(), 0, 0)

	// What recording spans cost: the main arm in traced rounds against the
	// same arm in the untraced rounds between them.
	var traced, untraced []float64
	a := &rec.arms[armMain]
	for i, ms := range a.ops {
		if a.traced[i] {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
	}
	l.metrics["trace.overhead_share"] = 0
	if len(traced) > 0 && len(untraced) > 0 {
		l.metrics["trace.overhead_share"] = median(traced)/median(untraced) - 1
	}
	return l.metrics, nil
}
