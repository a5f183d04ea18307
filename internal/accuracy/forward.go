package accuracy

import (
	"fmt"

	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/par"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// The forward comparison answers the question the forward-recovery tier
// exists for: against an identical single-strike schedule, how many
// iterations does repairing in place save over rewinding to the last
// checkpoint? Each trial runs the same faulty solve twice — once
// rollback-only, once with forward recovery — so the two arms differ in
// nothing but the recovery policy.

// supportsForward reports whether a solver has a forward-recovery tier.
// BiCGStab carries single-weight checksums only and always recovers by
// rollback.
func supportsForward(solverName string) bool {
	return solverName == "pcg" || solverName == "cr"
}

// ForwardPoint aggregates one (engine × solver) comparison between the
// rollback-only arm ("Base") and the forward-recovery arm ("Fwd") over
// Trials identical strike schedules.
type ForwardPoint struct {
	Engine string // "serial" or "parallel"
	Solver string // "pcg" or "cr"
	Trials int
	// Rollback-only arm: rollbacks taken and iterations they discarded.
	BaseRollbacks int
	BaseWasted    int
	// Forward arm: rollbacks still taken (multi-error fallbacks) and
	// iterations discarded by them.
	FwdRollbacks int
	FwdWasted    int
	// Forward arm bookkeeping: in-place repairs, rollbacks avoided,
	// iterations those avoided rollbacks would have discarded, and
	// corrections undone by their own confirmation probe.
	ForwardRepairs   int
	RollbacksAvoided int
	IterationsSaved  int
	Rejected         int
	// Mismatches counts arm runs (up to two per trial) whose answer
	// diverged from the fault-free baseline — it must stay zero for the
	// comparison to mean anything.
	Mismatches int
}

// record folds one arm run into the point.
func (p *ForwardPoint) record(forward bool, rollbacks, wasted, repairs, avoided, saved, rejected int, matches bool) {
	if forward {
		p.FwdRollbacks += rollbacks
		p.FwdWasted += wasted
		p.ForwardRepairs += repairs
		p.RollbacksAvoided += avoided
		p.IterationsSaved += saved
		p.Rejected += rejected
	} else {
		p.BaseRollbacks += rollbacks
		p.BaseWasted += wasted
	}
	if !matches {
		p.Mismatches++
	}
}

// forwardSerialOptions builds the serial campaign options for one arm.
func forwardSerialOptions(forward bool, inj *fault.Injector) core.Options {
	return core.Options{
		Options:            solver.Options{Tol: 1e-10},
		DetectInterval:     serialDetect,
		CheckpointInterval: serialCheckpoint,
		MaxRollbacks:       serialRollbacks,
		ForwardRecovery:    forward,
		Injector:           inj,
	}
}

// CompareForward runs the rollback-vs-forward comparison for every solver
// in the grid that has a forward tier, on both engines. The strike is a
// detectable additive corruption of one MVM output element — the error
// lands after the output's checksum is derived, so it surfaces as a
// single-element inconsistency the §5.2 correction can repair in place.
func CompareForward(cfg Config) ([]ForwardPoint, error) {
	cfg.normalize()
	a, b, _ := system(cfg.Side)
	m, err := precond.BlockJacobiILU0(a, 4)
	if err != nil {
		return nil, err
	}
	var points []ForwardPoint
	seed := cfg.Seed
	for _, sv := range cfg.Solvers {
		if !supportsForward(sv) {
			continue
		}
		pt, err := compareSerial(cfg, sv, a, m, b, &seed)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	for _, sv := range cfg.Solvers {
		if !supportsForward(sv) {
			continue
		}
		pt, err := compareParallel(cfg, sv, a, b)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

func compareSerial(cfg Config, sv string, a *sparse.CSR, m precond.Preconditioner, b []float64, seed *int64) (ForwardPoint, error) {
	pt := ForwardPoint{Engine: "serial", Solver: sv}
	base, err := runSerial(sv, "basic", a, m, b, core.Options{
		Options:            solver.Options{Tol: 1e-10},
		DetectInterval:     serialDetect,
		CheckpointInterval: serialCheckpoint,
	})
	if err != nil {
		return pt, fmt.Errorf("forward baseline serial/%s: %w", sv, err)
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		*seed++
		iter := strikeIteration(base.Iterations, trial, cfg.Trials)
		events := []fault.Event{{
			Iteration: iter, Site: fault.SiteMVM, Kind: fault.Arithmetic,
			Index: -1, Magnitude: 1e4,
		}}
		for _, forward := range []bool{false, true} {
			res, err := runSerial(sv, "basic", a, m, b,
				forwardSerialOptions(forward, fault.NewInjector(events, *seed)))
			pt.record(forward,
				res.Stats.Rollbacks, res.Stats.WastedIterations,
				res.Stats.ForwardRepairs, res.Stats.RollbacksAvoided,
				res.Stats.IterationsSaved, res.Stats.RejectedCorrections,
				err == nil && vec.Equal(res.X, base.X, 1e-6))
		}
		pt.Trials++
	}
	return pt, nil
}

func compareParallel(cfg Config, sv string, a *sparse.CSR, b []float64) (ForwardPoint, error) {
	pt := ForwardPoint{Engine: "parallel", Solver: sv}
	base, err := runParallel(sv, a, b, cfg.Ranks, parOptions("basic"))
	if err != nil {
		return pt, fmt.Errorf("forward baseline parallel/%s: %w", sv, err)
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		iter := strikeIteration(base.Iterations, trial, cfg.Trials)
		strike := []par.Fault{{
			Iteration: iter, Rank: trial % cfg.Ranks, Index: 1 + trial,
			Magnitude: 1e4,
		}}
		for _, forward := range []bool{false, true} {
			opts := parOptions("basic")
			opts.Faults = strike
			opts.ForwardRecovery = forward
			res, err := runParallel(sv, a, b, cfg.Ranks, opts)
			pt.record(forward,
				res.Rollbacks, res.WastedIterations,
				res.ForwardRepairs, res.RollbacksAvoided,
				res.IterationsSaved, res.RejectedCorrections,
				err == nil && vec.Equal(res.X, base.X, 1e-6))
		}
		pt.Trials++
	}
	return pt, nil
}
