// Command newsum-bench regenerates the paper's evaluation tables and
// figures (HPDC'16, §6). Each experiment prints the same rows/series the
// paper reports; see DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured comparisons.
//
// Usage:
//
//	newsum-bench -exp all
//	newsum-bench -exp fig6 -n 40000 -repeats 3
//	newsum-bench -exp table5
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"newsum/internal/accuracy"
	"newsum/internal/bench"
	"newsum/internal/bench/trajectory"
	"newsum/internal/core"
	"newsum/internal/model"
	"newsum/internal/par"
	"newsum/internal/sparse"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table3|table4|table5|fig5|fig6|fig7|fig8|fig9|fig10|par|accuracy|checkpoint|serve|shard|kernels|all")
		n       = flag.Int("n", 40000, "target matrix order for empirical experiments")
		blocks  = flag.Int("blocks", 16, "block-Jacobi block count (stand-in for MPI ranks)")
		repeats = flag.Int("repeats", 3, "timing repetitions (median reported)")
		seed    = flag.Int64("seed", 20160531, "deterministic seed (HPDC'16 started 2016-05-31)")
		csvDir  = flag.String("csv", "", "also write each experiment's data as CSV into this directory")

		benchJSON = flag.String("bench-json", "", "append this run's metrics as a record to this trajectory file (docs/benchmarks.md)")
		compare   = flag.String("compare", "", "gate this run's metrics against the newest record of this trajectory file; non-zero exit on regression")
		smoke     = flag.Bool("smoke", false, "with -compare: wall-clock units are advisory, deterministic units still gate")
		suite     = flag.String("suite", "newsum-bench", "suite name inside the trajectory file")
		commit    = flag.String("commit", "unknown", "commit id recorded with -bench-json")
		message   = flag.String("message", "", "commit message recorded with -bench-json")
	)
	flag.Parse()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "newsum-bench:", err)
			os.Exit(1)
		}
	}
	var collected *[]trajectory.Bench
	if *benchJSON != "" || *compare != "" {
		collected = &[]trajectory.Bench{}
	}
	if err := run(*exp, *n, *blocks, *repeats, *seed, *csvDir, collected); err != nil {
		fmt.Fprintln(os.Stderr, "newsum-bench:", err)
		os.Exit(1)
	}
	if collected != nil {
		failed, err := finishTrajectory(*collected, *compare, *benchJSON, *suite, *commit, *message, *smoke)
		if err != nil {
			fmt.Fprintln(os.Stderr, "newsum-bench:", err)
			os.Exit(1)
		}
		if failed {
			os.Exit(1)
		}
	}
}

// finishTrajectory gates the collected metrics against a baseline
// trajectory (-compare) and/or appends them as a new record (-bench-json).
// It reports whether the gate failed.
func finishTrajectory(benches []trajectory.Bench, compare, benchJSON, suite, commit, message string, smoke bool) (bool, error) {
	if len(benches) == 0 {
		return false, fmt.Errorf("no metrics collected (experiment emitted nothing)")
	}
	failed := false
	if compare != "" {
		file, err := trajectory.Load(compare)
		if err != nil {
			return false, err
		}
		base, ok := file.Latest(suite)
		if !ok {
			return false, fmt.Errorf("%s has no records in suite %q", compare, suite)
		}
		rep := trajectory.Compare(base.Benches, benches, trajectory.DefaultRules(), smoke)
		if err := rep.WriteText(os.Stdout); err != nil {
			return false, err
		}
		failed = rep.Failed()
	}
	if benchJSON != "" {
		file, err := trajectory.LoadOrEmpty(benchJSON)
		if err != nil {
			return false, err
		}
		file.Append(suite, trajectory.Record{
			Commit:  trajectory.Commit{ID: commit, Message: message, Timestamp: time.Now().UTC().Format(time.RFC3339)},
			Date:    time.Now().UnixMilli(),
			Tool:    "go",
			Benches: benches,
		})
		if err := file.Save(benchJSON); err != nil {
			return false, err
		}
		fmt.Printf("recorded %d metrics to %s suite %q\n", len(benches), benchJSON, suite)
	}
	return failed, nil
}

func run(exp string, n, blocks, repeats int, seed int64, csvDir string, collected *[]trajectory.Bench) error {
	collect := func(bs ...trajectory.Bench) {
		if collected != nil {
			*collected = append(*collected, bs...)
		}
	}
	writeCSV := func(name string, emit func(w *os.File) error) error {
		if csvDir == "" {
			return nil
		}
		f, err := os.Create(csvDir + "/" + name)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			//lint:ignore errdrop the emit error is the primary failure being reported
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	out := os.Stdout
	all := exp == "all"

	if all || exp == "table3" {
		w, err := bench.CircuitPCG(minInt(n, 4900), minInt(blocks, 8), seed)
		if err != nil {
			return err
		}
		r, err := bench.Table3(w, seed)
		if err != nil {
			return err
		}
		if err := bench.WriteTable3(out, r); err != nil {
			return err
		}
		collect(bench.Table3Benches(r)...)
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "table4" {
		// (d, cd) = (1, 12): the paper's λ=1 optimum; c0 = 4.8 matches
		// G3_circuit's nnz/n.
		if err := bench.WriteTable4(out, 1, 12, 4.8); err != nil {
			return err
		}
		collect(bench.Table4Benches(1, 12, 4.8)...)
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "table5" {
		if err := bench.WriteTable5(out, model.Stampede(), 2000, 1000); err != nil {
			return err
		}
		collect(bench.Table5Benches(model.Stampede(), 2000, 1000)...)
		if err := writeCSV("table5.csv", func(f *os.File) error {
			return bench.WriteTable5CSV(f, model.Stampede(), 2000, 1000)
		}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "fig5" {
		if err := bench.WriteFigure5(out, model.Stampede(), 2000); err != nil {
			return err
		}
		collect(bench.Figure5Benches(model.Stampede(), 2000)...)
		if err := writeCSV("figure5_pcg.csv", func(f *os.File) error {
			return bench.WriteSurfaceCSV(f, model.Stampede().PCG, 1.0, 2000, 40, 8)
		}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "fig6" {
		w, err := bench.CircuitPCG(n, blocks, seed)
		if err != nil {
			return err
		}
		fig, err := bench.FigureOverheads(w, repeats, seed)
		if err != nil {
			return err
		}
		if err := bench.WriteOverheadFigure(out, "Figure 6: PCG overheads (host measurement)", fig); err != nil {
			return err
		}
		collect(bench.OverheadFigureBenches("fig6", fig)...)
		if err := writeCSV("figure6.csv", func(f *os.File) error { return bench.WriteOverheadCSV(f, fig) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "fig7" {
		side := isqrt(n)
		w, err := bench.ConvectionPBiCGSTAB(side, side, blocks, 20)
		if err != nil {
			return err
		}
		fig, err := bench.FigureOverheads(w, repeats, seed)
		if err != nil {
			return err
		}
		if err := bench.WriteOverheadFigure(out, "Figure 7: PBiCGSTAB overheads (host measurement)", fig); err != nil {
			return err
		}
		collect(bench.OverheadFigureBenches("fig7", fig)...)
		if err := writeCSV("figure7.csv", func(f *os.File) error { return bench.WriteOverheadCSV(f, fig) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "fig8" {
		fig := bench.ProjectOverheads(model.Tianhe2(), core.MethodPCG, 1, 12, 4.8)
		if err := bench.WriteProjectedFigure(out, "Figure 8: PCG overheads on Tianhe-2", fig); err != nil {
			return err
		}
		collect(bench.ProjectedBenches("fig8", fig)...)
		if err := writeCSV("figure8.csv", func(f *os.File) error { return bench.WriteProjectedCSV(f, fig) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "fig9" {
		fig := bench.ProjectOverheads(model.Tianhe2(), core.MethodPBiCGSTAB, 1, 10, 4.8)
		if err := bench.WriteProjectedFigure(out, "Figure 9: PBiCGSTAB overheads on Tianhe-2", fig); err != nil {
			return err
		}
		collect(bench.ProjectedBenches("fig9", fig)...)
		if err := writeCSV("figure9.csv", func(f *os.File) error { return bench.WriteProjectedCSV(f, fig) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "par" {
		a := sparseCircuit(minInt(n, 6000), seed)
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1 + float64(i%13)
		}
		ranks := []int{1, 2, 4}
		if blocks >= 8 {
			ranks = append(ranks, 8)
		}
		pts, err := bench.ParallelSweep(a, b, bench.ParallelSolvers, ranks,
			[]par.Topology{par.Tree, par.Linear}, par.Options{Tol: 1e-8})
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Parallel: distributed ABFT solvers on circuit n=%d (goroutine ranks, per-solve collective counters)", a.Rows)
		if err := bench.WriteParallelTable(out, title, pts); err != nil {
			return err
		}
		collect(bench.ParallelBenches(pts)...)
		if err := writeCSV("parallel.csv", func(f *os.File) error { return bench.WriteParallelCSV(f, pts) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "fig10" {
		w, err := bench.CircuitPCG(n, blocks, seed)
		if err != nil {
			return err
		}
		fig, err := bench.Figure10(w, repeats, seed)
		if err != nil {
			return err
		}
		if err := bench.WriteFigure10(out, fig); err != nil {
			return err
		}
		collect(bench.Figure10Benches(fig)...)
		if err := writeCSV("figure10.csv", func(f *os.File) error { return bench.WriteFigure10CSV(f, fig) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "accuracy" {
		// The campaign measures rates, not scale: a modest grid keeps the
		// full (engine × solver × scheme × model × magnitude) sweep fast.
		cfg := accuracy.Config{
			Side:     minInt(isqrt(n), 24),
			Trials:   3,
			TwoLevel: true,
			Forward:  true,
			Seed:     seed,
		}
		rep, err := bench.RunAccuracy(cfg)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Accuracy: adversarial fault-model campaign, %d² unknowns, %d trials/cell",
			cfg.Side, cfg.Trials)
		if err := bench.WriteAccuracyReport(out, title, rep); err != nil {
			return err
		}
		collect(bench.AccuracyBenches(rep)...)
		if err := writeCSV("accuracy.csv", func(f *os.File) error { return bench.WriteAccuracyCSV(f, rep) }); err != nil {
			return err
		}
		if err := writeCSV("accuracy_fp.csv", func(f *os.File) error { return bench.WriteAccuracyFPCSV(f, rep) }); err != nil {
			return err
		}
		if err := writeCSV("accuracy_overhead.csv", func(f *os.File) error { return bench.WriteAccuracyOverheadCSV(f, rep) }); err != nil {
			return err
		}
		if err := writeCSV("accuracy_forward.csv", func(f *os.File) error { return bench.WriteAccuracyForwardCSV(f, rep) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "checkpoint" {
		// The snapshot-codec sweep: codec × error bound × fault rate on
		// identical strike schedules, measuring checkpoint bytes stored
		// against extra iterations after lossy restarts. Everything is
		// deterministic at the committed seed.
		cfg := accuracy.Config{
			Side:             minInt(isqrt(n), 20),
			Trials:           3,
			CheckpointBounds: []float64{1e-4, 1e-8},
			Seed:             seed,
		}
		points, err := bench.RunCheckpoint(cfg)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Checkpoint: snapshot codec sweep (full/diff/lossy × bound × fault rate), %d² unknowns, %d trials/arm",
			cfg.Side, cfg.Trials)
		if err := bench.WriteCheckpointReport(out, title, points); err != nil {
			return err
		}
		collect(bench.CheckpointBenches(points)...)
		if err := writeCSV("checkpoint.csv", func(f *os.File) error { return bench.WriteCheckpointCSV(f, points) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "serve" {
		// The serving-layer sweep: worker-pool width × admission-queue
		// depth × encoding cache, under closed-loop clients with one chaos
		// fault per job. Small fixed operators keep the sweep about the
		// scheduling stack rather than the solves.
		pts, err := bench.ServeSweep([]int{2, 4, 8}, []int{8, 64}, []bool{true, false}, 8, 64, seed)
		if err != nil {
			return err
		}
		title := "Serve: solve-service throughput/latency sweep (8 closed-loop clients, 64 jobs, 1 chaos fault/job)"
		if err := bench.WriteServeTable(out, title, pts); err != nil {
			return err
		}
		collect(bench.ServeBenches(pts)...)
		if err := writeCSV("serve.csv", func(f *os.File) error { return bench.WriteServeCSV(f, pts) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "shard" {
		// Router-vs-single comparison at a matched total worker budget:
		// backends=1 is one process with all the workers, wider fleets put
		// a consistent-hash router in front. Zero-class corruption
		// counters ride along so a sharded fleet is held to the same
		// no-silent-errors bar as a single process.
		pts, err := bench.ShardSweep([]int{1, 2, 4}, 2, 8, 64, seed)
		if err != nil {
			return err
		}
		title := "Shard: router-vs-single throughput at matched worker budget (2 workers/backend, 8 closed-loop clients, 64 jobs, 1 chaos fault/job)"
		if err := bench.WriteShardTable(out, title, pts); err != nil {
			return err
		}
		collect(bench.ShardBenches(pts)...)
		if err := writeCSV("shard.csv", func(f *os.File) error { return bench.WriteShardCSV(f, pts) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	if all || exp == "kernels" {
		// Shared-memory kernel sweep: workers × n × kernel over the
		// internal/kernel layer, with an in-benchmark bitwise check that
		// every parallel result reproduces the serial bits (the
		// determinism contract). Sizes straddle the pool's serial
		// cutover so the table shows both regimes.
		nsides := []int{10, 17, 24}
		workers := []int{1, 2, 4, 8}
		pts, err := bench.KernelsSweep(nsides, workers, 10*repeats)
		if err != nil {
			return err
		}
		if err := bench.VerifyKernelsBitwise(pts); err != nil {
			return err
		}
		title := fmt.Sprintf("Kernels: deterministic shared-memory sweep on 3D Laplacians (GOMAXPROCS=%d; bitwise column is checked, not assumed)",
			runtime.GOMAXPROCS(0))
		if err := bench.WriteKernelsTable(out, title, pts); err != nil {
			return err
		}
		collect(bench.KernelBenches(pts)...)
		if err := writeCSV("kernels.csv", func(f *os.File) error { return bench.WriteKernelsCSV(f, pts) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout)
	}
	switch exp {
	case "all", "table3", "table4", "table5", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "par", "accuracy", "checkpoint", "serve", "shard", "kernels":
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func isqrt(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// sparseCircuit builds the raw circuit matrix for the parallel sweep (the
// distributed engine builds its own per-rank block preconditioners).
func sparseCircuit(n int, seed int64) *sparse.CSR {
	return sparse.CircuitLike(n, seed)
}
