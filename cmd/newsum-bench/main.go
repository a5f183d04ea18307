// Command newsum-bench regenerates the paper's evaluation tables and
// figures (HPDC'16, §6). Each experiment prints the same rows/series the
// paper reports; see DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured comparisons. Wall times of anything that
// is not one of the paper's tables or figures — kernels, the rank engine,
// the service, the router — are benchmark/'s (docs/benchmarks.md).
//
// Usage:
//
//	newsum-bench -exp all
//	newsum-bench -exp fig6 -n 40000 -repeats 3
//	newsum-bench -exp table5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"newsum/internal/accuracy"
	"newsum/internal/bench"
	"newsum/internal/core"
	"newsum/internal/model"
)

// config is what the flags hand every experiment.
type config struct {
	out                io.Writer
	n, blocks, repeats int
	seed               int64
	csvDir             string
}

// experiments are the -exp values, in the order "all" runs them.
var experiments = []struct {
	name string
	run  func(config) error
}{
	{"table3", table3}, {"table4", table4}, {"table5", table5},
	{"fig5", fig5}, {"fig6", fig6}, {"fig7", fig7}, {"fig8", fig8}, {"fig9", fig9}, {"fig10", fig10},
	{"accuracy", accuracyCampaign}, {"checkpoint", checkpointSweep},
}

// expNames is the accepted -exp values joined by "|".
func expNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, "|") + "|all"
}

// parseFlags reads the command line into the experiment name and config.
func parseFlags(args []string, stderr io.Writer) (exp string, c config, err error) {
	fs := flag.NewFlagSet("newsum-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&exp, "exp", "all", "experiment: "+expNames())
	fs.IntVar(&c.n, "n", 40000, "target matrix order for empirical experiments")
	fs.IntVar(&c.blocks, "blocks", 16, "block-Jacobi block count (stand-in for MPI ranks)")
	fs.IntVar(&c.repeats, "repeats", 3, "timing repetitions (median reported)")
	fs.Int64Var(&c.seed, "seed", 20160531, "deterministic seed (HPDC'16 started 2016-05-31)")
	fs.StringVar(&c.csvDir, "csv", "", "also write each experiment's data as CSV into this directory")
	return exp, c, fs.Parse(args)
}

func main() {
	exp, c, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and the usage
	}
	c.out = os.Stdout
	if err := run(exp, c); err != nil {
		fmt.Fprintln(os.Stderr, "newsum-bench:", err)
		os.Exit(1)
	}
}

// run executes one experiment, or every one for "all", each followed by a
// blank line. The name is checked before any work is done.
func run(exp string, c config) error {
	todo := experiments
	if exp != "all" {
		todo = nil
		for _, e := range experiments {
			if e.name == exp {
				todo = append(todo, e)
			}
		}
		if todo == nil {
			return fmt.Errorf("unknown experiment %q (want %s)", exp, expNames())
		}
	}
	if c.csvDir != "" {
		if err := os.MkdirAll(c.csvDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range todo {
		if err := e.run(c); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(c.out); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV emits one experiment's data file into the -csv directory, if
// there is one.
func (c config) writeCSV(name string, emit func(w io.Writer) error) error {
	if c.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(c.csvDir, name))
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

func table3(c config) error {
	w, err := bench.CircuitPCG(min(c.n, 4900), min(c.blocks, 8), c.seed)
	if err != nil {
		return err
	}
	r, err := bench.Table3(w, c.seed)
	if err != nil {
		return err
	}
	return bench.WriteTable3(c.out, r)
}

func table4(c config) error {
	// (d, cd) = (1, 12): the paper's λ=1 optimum; c0 = 4.8 matches
	// G3_circuit's nnz/n.
	return bench.WriteTable4(c.out, 1, 12, 4.8)
}

func table5(c config) error {
	if err := bench.WriteTable5(c.out, model.Stampede(), 2000, 1000); err != nil {
		return err
	}
	return c.writeCSV("table5.csv", func(f io.Writer) error {
		return bench.WriteTable5CSV(f, model.Stampede(), 2000, 1000)
	})
}

func fig5(c config) error {
	if err := bench.WriteFigure5(c.out, model.Stampede(), 2000); err != nil {
		return err
	}
	return c.writeCSV("figure5_pcg.csv", func(f io.Writer) error {
		return bench.WriteSurfaceCSV(f, model.Stampede().PCG, 1.0, 2000, 40, 8)
	})
}

// overheadFigure is Figs. 6 and 7: the host-measured overheads of one
// workload.
func overheadFigure(c config, w bench.Workload, title, csvName string) error {
	fig, err := bench.FigureOverheads(w, c.repeats, c.seed)
	if err != nil {
		return err
	}
	if err := bench.WriteOverheadFigure(c.out, title, fig); err != nil {
		return err
	}
	return c.writeCSV(csvName, func(f io.Writer) error { return bench.WriteOverheadCSV(f, fig) })
}

func fig6(c config) error {
	w, err := bench.CircuitPCG(c.n, c.blocks, c.seed)
	if err != nil {
		return err
	}
	return overheadFigure(c, w, "Figure 6: PCG overheads (host measurement)", "figure6.csv")
}

func fig7(c config) error {
	side := isqrt(c.n)
	w, err := bench.ConvectionPBiCGSTAB(side, side, c.blocks, 20)
	if err != nil {
		return err
	}
	return overheadFigure(c, w, "Figure 7: PBiCGSTAB overheads (host measurement)", "figure7.csv")
}

// projectedFigure is Figs. 8 and 9: the model's projection on Tianhe-2.
func projectedFigure(c config, method core.Method, cd int, title, csvName string) error {
	fig := bench.ProjectOverheads(model.Tianhe2(), method, 1, cd, 4.8)
	if err := bench.WriteProjectedFigure(c.out, title, fig); err != nil {
		return err
	}
	return c.writeCSV(csvName, func(f io.Writer) error { return bench.WriteProjectedCSV(f, fig) })
}

func fig8(c config) error {
	return projectedFigure(c, core.MethodPCG, 12, "Figure 8: PCG overheads on Tianhe-2", "figure8.csv")
}

func fig9(c config) error {
	return projectedFigure(c, core.MethodPBiCGSTAB, 10, "Figure 9: PBiCGSTAB overheads on Tianhe-2", "figure9.csv")
}

func fig10(c config) error {
	w, err := bench.CircuitPCG(c.n, c.blocks, c.seed)
	if err != nil {
		return err
	}
	fig, err := bench.Figure10(w, c.repeats, c.seed)
	if err != nil {
		return err
	}
	if err := bench.WriteFigure10(c.out, fig); err != nil {
		return err
	}
	return c.writeCSV("figure10.csv", func(f io.Writer) error { return bench.WriteFigure10CSV(f, fig) })
}

func accuracyCampaign(c config) error {
	// The campaign measures rates, not scale: a modest grid keeps the
	// full (engine × solver × scheme × model × magnitude) sweep fast.
	cfg := accuracy.Config{
		Side:     min(isqrt(c.n), 24),
		Trials:   3,
		TwoLevel: true,
		Forward:  true,
		Seed:     c.seed,
	}
	rep, err := bench.RunAccuracy(cfg)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Accuracy: adversarial fault-model campaign, %d² unknowns, %d trials/cell",
		cfg.Side, cfg.Trials)
	if err := bench.WriteAccuracyReport(c.out, title, rep); err != nil {
		return err
	}
	if err := c.writeCSV("accuracy.csv", func(f io.Writer) error { return bench.WriteAccuracyCSV(f, rep) }); err != nil {
		return err
	}
	if err := c.writeCSV("accuracy_fp.csv", func(f io.Writer) error { return bench.WriteAccuracyFPCSV(f, rep) }); err != nil {
		return err
	}
	return c.writeCSV("accuracy_forward.csv", func(f io.Writer) error { return bench.WriteAccuracyForwardCSV(f, rep) })
}

func checkpointSweep(c config) error {
	// The snapshot-codec sweep: codec × error bound × fault rate on
	// identical strike schedules, measuring checkpoint bytes stored
	// against extra iterations after lossy restarts. Everything is
	// deterministic at the committed seed.
	cfg := accuracy.Config{
		Side:             min(isqrt(c.n), 20),
		Trials:           3,
		CheckpointBounds: []float64{1e-4, 1e-8},
		Seed:             c.seed,
	}
	points, err := bench.RunCheckpoint(cfg)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Checkpoint: snapshot codec sweep (full/diff/lossy × bound × fault rate), %d² unknowns, %d trials/arm",
		cfg.Side, cfg.Trials)
	if err := bench.WriteCheckpointReport(c.out, title, points); err != nil {
		return err
	}
	return c.writeCSV("checkpoint.csv", func(f io.Writer) error { return bench.WriteCheckpointCSV(f, points) })
}

func isqrt(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}
