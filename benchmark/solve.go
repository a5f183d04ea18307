package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// The three arms of every workload: the control, the path the workload is
// about, and an alternative to it. Beside them every round runs the
// yardstick: a fixed amount of memory-bound work in the benchmark's own
// code (no repository code), shaped like the base arm's operation. The host
// this runs on drifts by ±10–20 % over minutes, which moves every wall time
// of a run together; the base arm's time in yardsticks of the same round
// does not move with it, and still shows any change to the base arm.
const (
	armBase = iota
	armMain
	armAlt
	numArms
	armRef  = numArms // the yardstick's slot where arms are indexed
	numSlot = numArms + 1
)

var armNames = [numSlot]string{"base", "main", "alt", "ref"}

// armSamples holds one arm's timings in milliseconds.
type armSamples struct {
	// ops has one entry per operation; traced tells which of them ran in a
	// round that recorded spans.
	ops    []float64
	traced []bool
	// rounds has one entry per round: the operation's time where a round
	// runs the arm once, the midmean of the arm's operations otherwise, NaN
	// where the round has no usable sample.
	rounds []float64
}

// recorder collects what a timed phase measures and checks.
type recorder struct {
	// tr is nil in an untraced run. In a traced run odd rounds record
	// spans and even rounds do not, which measures what tracing costs.
	tr   *tracer
	arms [numSlot]armSamples
	// attempted and failed count checked operations; sdc counts the
	// failed ones that claimed convergence with a wrong answer.
	attempted, failed, sdc int
	// ops completed in opsSeconds of measured time give ops_per_s.
	ops, opsSeconds float64
	// counts are exact, repeatable counts by name.
	counts map[string]float64
	// problems describes the first few failures.
	problems []string
	// samples keeps the jobs of a traffic phase for the layer metrics.
	samples []sample
}

func newRecorder(tr *tracer) *recorder { return &recorder{tr: tr, counts: map[string]float64{}} }

func (r *recorder) tracedRound(round int) bool { return r.tr != nil && round%2 == 1 }

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// checkSolution counts one output and reports whether it passed: it must
// have converged, and the benchmark's own residual must confirm it.
func (r *recorder) checkSolution(what string, p *problem, x []float64, converged bool, err error) bool {
	r.attempted++
	switch {
	case err != nil:
		r.fail("%s: %v", what, err)
	case !converged:
		r.fail("%s: not converged", what)
	default:
		if res := ownResidual(p.a, p.b, x); !(res <= 10*p.tol) {
			r.sdc++
			r.fail("%s: reported converged, but ‖b−Ax‖/‖b‖ = %.3g > %.3g", what, res, 10*p.tol)
		} else {
			return true
		}
	}
	return false
}

// solveInstance is a library workload: three solve arms on one problem, run
// once each per round in rotating order.
type solveInstance struct {
	p        *problem
	refIters float64
	specs    [numArms]solveSpec
	// faults puts arms main and alt under Scenario 2 over the fault-free
	// iteration count the warm-up measures.
	faults bool
	// par makes arm main the par engine at parRanks ranks and arm alt the
	// par engine at one rank; arm base stays the serial solve of specs[0].
	par     bool
	traffic *traffic

	run   [numArms]func() (solveOut, error)
	want  [numArms]solveCounts
	scale float64
}

func (s *solveInstance) layerProblem() (*problem, error) { return s.p, nil }
func (s *solveInstance) jobs() *traffic                  { return s.traffic }
func (s *solveInstance) close() error                    { return nil }

// warmup runs the base arm first: its fault-free iteration count I fixes
// the time scale refIters/I and the span of the fault schedule. Then it
// runs the other arms once. The counts seen here are what every timed
// round must reproduce.
func (s *solveInstance) warmup() error {
	var err error
	if s.run[armBase], err = prepareSolve(s.p, s.specs[armBase]); err != nil {
		return err
	}
	check := newRecorder(nil)
	for arm := 0; arm < numArms; arm++ {
		if arm == armMain {
			iters := s.want[armBase].Iterations
			s.scale = s.refIters / float64(iters)
			for a := armMain; a < numArms; a++ {
				if s.par {
					ranks := parRanks
					if a == armAlt {
						ranks = 1
					}
					s.run[a] = func() (solveOut, error) { return parSolve(s.p, ranks, false) }
					continue
				}
				spec := s.specs[a]
				if s.faults {
					spec.faultIters, spec.faultSeed = iters, faultScheduleSeed
				}
				if s.run[a], err = prepareSolve(s.p, spec); err != nil {
					return err
				}
			}
		}
		out, err := s.run[arm]()
		if !check.checkSolution(armNames[arm]+" warm-up", s.p, out.x, out.converged, err) {
			return fmt.Errorf("benchmark: %s", check.problems[0])
		}
		s.want[arm] = out.counts
	}
	return nil
}

func (s *solveInstance) measure(seconds float64, rec *recorder) {
	for arm := range s.want {
		s.want[arm].record(armNames[arm], rec.counts)
	}
	// The yardstick of a solve: half as many matrix-vector products as the
	// base arm has iterations, by the benchmark's own CSR loop, so about a
	// fifth of the base arm's time and, like every arm, proportional to the
	// iteration count the scale divides by. The products alternate between
	// the operator and a copy of it, which makes the yardstick stream about
	// what an iteration streams (the matrix and its incomplete factors): a
	// yardstick that fits a cache the solve overflows would not slow down
	// with it when a neighbour on the host takes memory bandwidth.
	x, y := s.p.scratch(0), s.p.scratch(1)
	operators := [2]*CSR{s.p.a, cloneCSR(s.p.a)}
	products := (s.want[armBase].Iterations + 1) / 2

	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		traced := rec.tracedRound(round)
		var tr *tracer
		if traced {
			tr = rec.tr
		}
		t0 := time.Now()
		roundID := tr.open("round", 0, 0, t0)
		for k := 0; k < numSlot; k++ {
			arm := (round + k) % numSlot
			a := &rec.arms[arm]
			if arm == armRef {
				t0 := time.Now()
				for i := 0; i < products; i++ {
					ownMatVec(operators[i%2], y, x)
				}
				t1 := time.Now()
				tr.add("yardstick", roundID, roundID, t0, t1, float64(products), 0)
				ms := t1.Sub(t0).Seconds() * 1e3 * s.scale
				a.ops, a.rounds = append(a.ops, ms), append(a.rounds, ms)
				continue
			}
			t0 := time.Now()
			out, err := s.run[arm]()
			t1 := time.Now()
			tr.add("solve."+armNames[arm], roundID, roundID, t0, t1, float64(out.counts.Iterations), 0)
			ms := t1.Sub(t0).Seconds() * 1e3 * s.scale
			ok := rec.checkSolution(armNames[arm], s.p, out.x, out.converged, err)
			if ok && out.counts != s.want[arm] {
				ok = false
				rec.fail("%s: counts %+v differ from the warm-up's %+v on the same inputs", armNames[arm], out.counts, s.want[arm])
			}
			if !ok {
				a.rounds = append(a.rounds, math.NaN())
				continue
			}
			a.ops = append(a.ops, ms)
			a.traced = append(a.traced, traced)
			a.rounds = append(a.rounds, ms)
			rec.ops++
			rec.opsSeconds += ms / 1e3
		}
		tr.finish(roundID, time.Now(), numArms, 0)
		// Collect between rounds, outside every timed region, so that one
		// arm's garbage is not collected on another arm's time.
		runtime.GC()
	}
}

// record writes the counts that are set under prefix.name.
func (c solveCounts) record(prefix string, into map[string]float64) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"iterations", float64(c.Iterations)},
		{"checksum_updates", float64(c.ChecksumUpdates)},
		{"verifications", float64(c.Verifications)},
		{"detections", float64(c.Detections)},
		{"corrections", float64(c.Corrections)},
		{"checkpoints", float64(c.Checkpoints)},
		{"rollbacks", float64(c.Rollbacks)},
		{"wasted_iters", float64(c.WastedIters)},
		{"forward_repairs", float64(c.ForwardRepairs)},
		{"injected", float64(c.Injected)},
		{"checkpoint_bytes", float64(c.CheckpointBytes)},
		{"reductions", float64(c.Reductions)},
		{"gathers", float64(c.Gathers)},
		{"msgs", float64(c.Msgs)},
		{"words_moved", float64(c.Words)},
	} {
		if f.v > 0 {
			into[prefix+"."+f.name] = f.v
		}
	}
}
