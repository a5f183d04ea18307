package accuracy

import (
	"fmt"

	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// The serial campaign drives internal/core's protected solvers through the
// fault-model matrix. Detection intervals are fixed at the paper's defaults
// scaled for visibility (d = 2, cd = 10) and the rollback budget is kept
// small so attacks on the recovery machinery abort quickly instead of
// burning the iteration cap.

const (
	serialDetect     = 2
	serialCheckpoint = 10
	serialRollbacks  = 8
)

// serialSchemes lists the schemes the campaign runs for a solver: CR has no
// serial two-level variant.
func serialSchemes(cfg Config, solverName string) []string {
	schemes := []string{"basic"}
	if cfg.TwoLevel && solverName != "cr" {
		schemes = append(schemes, "two-level")
	}
	return schemes
}

// runSerial dispatches one protected serial solve.
func runSerial(solverName, scheme string, a *sparse.CSR, m precond.Preconditioner, b []float64, opts core.Options) (core.Result, error) {
	method, ok := map[string]core.Method{"pcg": core.MethodPCG, "bicgstab": core.MethodPBiCGSTAB, "cr": core.MethodCR}[solverName]
	sch, ok2 := map[string]core.Scheme{"basic": core.Basic, "two-level": core.TwoLevel}[scheme]
	if !ok || !ok2 {
		return core.Result{}, fmt.Errorf("accuracy: unknown serial solver/scheme %s/%s", solverName, scheme)
	}
	return core.Solve(method, sch, a, m, b, opts)
}

// RunSerial executes the serial half of the campaign grid.
func RunSerial(cfg Config) ([]Cell, error) {
	cfg.normalize()
	a, b, _ := system(cfg.Side)
	m, err := precond.BlockJacobiILU0(a, 4)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	seed := cfg.Seed
	for _, sv := range cfg.Solvers {
		for _, scheme := range serialSchemes(cfg, sv) {
			base, err := runSerial(sv, scheme, a, m, b, core.Options{
				Options:            solver.Options{Tol: 1e-10},
				DetectInterval:     serialDetect,
				CheckpointInterval: serialCheckpoint,
			})
			if err != nil {
				return nil, fmt.Errorf("fault-free baseline %s/%s: %w", sv, scheme, err)
			}
			for _, model := range cfg.Models {
				for _, mag := range cfg.Magnitudes {
					cell := Cell{Engine: "serial", Solver: sv, Scheme: scheme, Model: model, Magnitude: mag}
					for trial := 0; trial < cfg.Trials; trial++ {
						seed++
						iter := strikeIteration(base.Iterations, trial, cfg.Trials)
						forward := cfg.Forward && supportsForward(sv)
						runSerialTrial(&cell, sv, scheme, a, m, b, base.X, model, mag, iter, seed, forward)
					}
					cells = append(cells, cell)
				}
			}
		}
	}
	return cells, nil
}

// strikeIteration spreads the trials' strikes across the middle of the
// fault-free run (never iteration 0, never the last iteration).
func strikeIteration(baselineIters, trial, trials int) int {
	if baselineIters < 3 {
		return 1
	}
	return 1 + (baselineIters-2)*(trial+1)/(trials+1)
}

// serialEvents builds one trial's event schedule. Checkpoint-buffer models
// poison the snapshot guarding the strike window and pair it with a
// detectable trigger at the strike iteration, since the corruption is only
// ever read through a rollback.
func serialEvents(model fault.Model, mag fault.Magnitude, iter int) []fault.Event {
	if !model.AttacksRecovery() {
		return model.Events(mag, iter, fault.SiteMVM)
	}
	cpIter := (iter / serialCheckpoint) * serialCheckpoint
	events := model.Events(mag, cpIter, fault.SiteMVM)
	return append(events, fault.Event{
		Iteration: iter, Site: fault.SiteMVM, Kind: fault.Arithmetic,
		Index: -1, BitFlip: true, Bit: 62,
	})
}

func runSerialTrial(cell *Cell, sv, scheme string, a *sparse.CSR, m precond.Preconditioner, b, baseX []float64, model fault.Model, mag fault.Magnitude, iter int, seed int64, forward bool) {
	inj := fault.NewInjector(serialEvents(model, mag, iter), seed)
	trace := &core.Trace{}
	res, err := runSerial(sv, scheme, a, m, b, core.Options{
		Options:            solver.Options{Tol: 1e-10},
		DetectInterval:     serialDetect,
		CheckpointInterval: serialCheckpoint,
		MaxRollbacks:       serialRollbacks,
		ForwardRecovery:    forward,
		Injector:           inj,
		Trace:              trace,
	})
	fired := len(inj.Injected) > 0
	detected := res.Stats.Detections > 0 || res.Stats.Corrections > 0
	matches := err == nil && vec.Equal(res.X, baseX, 1e-6)
	o := classify(fired, detected, err, matches)
	latency, have := 0, false
	if detected && fired {
		last := 0
		for _, rec := range inj.Injected {
			if rec.Iteration > last {
				last = rec.Iteration
			}
		}
		var alarms []int
		for _, ev := range trace.Events {
			if ev.Kind == core.EvDetection || ev.Kind == core.EvCorrection {
				alarms = append(alarms, ev.Iteration)
			}
		}
		if at, ok := firstAlarm(alarms, last); ok {
			latency, have = at-last, true
		}
	}
	cell.tally(fired, detected, o, latency, have)
	cell.ForwardRepairs += res.Stats.ForwardRepairs
	cell.RollbacksAvoided += res.Stats.RollbacksAvoided
	cell.IterationsSaved += res.Stats.IterationsSaved
}
