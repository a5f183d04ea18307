// Package accuracy measures how well the online ABFT detectors actually
// detect: it drives the adversarial fault-model matrix of internal/fault
// through the serial (internal/core) and distributed (internal/par) engines
// and reports, per (engine × solver × scheme × model × magnitude) cell,
//
//   - the detection rate — what fraction of injected strikes were flagged
//     by any verification or inner-level probe;
//   - the outcome split — recovered to the fault-free answer, aborted
//     (rollback storm), silent data corruption (wrong answer delivered),
//     or masked (undetected but numerically harmless);
//   - the detection latency — iterations between the strike and the first
//     detection or correction event on the run's timeline.
//
// Alongside the campaign grid it sweeps the false-positive rate of
// fault-free runs across verification thresholds θ — the sensitivity
// against noise a detection threshold trades. What protection costs in
// time is the repo benchmark's question (benchmark/, main_over_base_x).
package accuracy

import (
	"fmt"
	"math"

	"newsum/internal/fault"
	"newsum/internal/sparse"
)

// Outcome classifies one faulty solve against its fault-free baseline.
type Outcome int

const (
	// Recovered: the fault was detected and the solve still delivered the
	// fault-free answer.
	Recovered Outcome = iota
	// Aborted: the solve gave up (rollback storm or unrecoverable error) —
	// loud failure, no wrong answer delivered.
	Aborted
	// SDC: silent data corruption — the solve "succeeded" with an answer
	// that differs from the fault-free baseline. The failure mode ABFT
	// exists to prevent.
	SDC
	// Masked: the fault fired but was never detected AND the answer still
	// matches the baseline — the strike was numerically benign (e.g. a
	// below-τ mantissa flip absorbed by the iteration's own contraction).
	Masked
)

func (o Outcome) String() string {
	switch o {
	case Recovered:
		return "recovered"
	case Aborted:
		return "aborted"
	case SDC:
		return "SDC"
	case Masked:
		return "masked"
	default:
		return "unknown-outcome"
	}
}

// Cell aggregates the trials of one campaign grid point.
type Cell struct {
	Engine    string // "serial" or "parallel"
	Solver    string // "pcg", "bicgstab", "cr"
	Scheme    string // "basic" or "two-level"
	Model     fault.Model
	Magnitude fault.Magnitude
	Trials    int
	// Fired counts trials whose scheduled strike actually landed.
	Fired int
	// Detected counts trials with at least one detection or correction.
	Detected int
	// Outcome tallies.
	Recovered, Aborted, SDC, Masked int
	// LatencySum accumulates (detection iteration − injection iteration)
	// over detected trials; MeanLatency() reports the average.
	LatencySum   int
	LatencyCount int
	// Forward-recovery columns, populated when Config.Forward enables the
	// tier: in-place repairs applied, rollbacks avoided, and iterations the
	// avoided rollbacks would have discarded, summed over the cell's trials.
	ForwardRepairs   int
	RollbacksAvoided int
	IterationsSaved  int
}

// DetectionRate is the fraction of fired strikes that were detected.
func (c Cell) DetectionRate() float64 {
	if c.Fired == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Fired)
}

// MeanLatency is the average iterations-to-detection over detected trials,
// or NaN when nothing was detected.
func (c Cell) MeanLatency() float64 {
	if c.LatencyCount == 0 {
		return math.NaN()
	}
	return float64(c.LatencySum) / float64(c.LatencyCount)
}

// FPPoint is one fault-free run at a candidate threshold θ: any detection
// it reports is by construction a false positive.
type FPPoint struct {
	Engine     string
	Solver     string
	Theta      float64
	Iterations int
	Detections int
	Rollbacks  int
}

// FalsePositive reports whether the fault-free run raised any alarm.
func (p FPPoint) FalsePositive() bool { return p.Detections > 0 }

// Config parameterizes a campaign.
type Config struct {
	// Side is the 2-D Laplacian grid side; the system has Side² unknowns.
	// 0 means 20 (n = 400).
	Side int
	// Solvers to grid over; nil means {pcg, bicgstab, cr}.
	Solvers []string
	// Models to grid over; nil means every fault.Model.
	Models []fault.Model
	// Magnitudes to grid over; nil means every fault.Magnitude.
	Magnitudes []fault.Magnitude
	// Trials per cell; 0 means 3. Each trial moves the strike to a
	// different iteration with a different seed.
	Trials int
	// TwoLevel adds the two-level scheme next to basic for solvers that
	// support it (serial PCG/BiCGStab, every parallel solver).
	TwoLevel bool
	// Ranks is the distributed team size; 0 means 2.
	Ranks int
	// Thetas is the threshold sweep of the false-positive measurement; nil
	// means {1e-6, 1e-8, 1e-10, 1e-12, 1e-14}.
	Thetas []float64
	// Forward enables the engines' forward-recovery tier for every campaign
	// solve of a solver that supports it (pcg, cr), populating the Cells'
	// forward columns and shifting recoveries from rollback to repair.
	Forward bool
	// CheckpointBounds is the lossy-codec relative error bound axis of the
	// checkpoint sweep; nil means {1e-4, 1e-8}.
	CheckpointBounds []float64
	// Seed offsets every per-trial seed so campaigns are reproducible but
	// not all identical.
	Seed int64
}

func (c *Config) normalize() {
	if c.Side <= 0 {
		c.Side = 20
	}
	if len(c.Solvers) == 0 {
		c.Solvers = []string{"pcg", "bicgstab", "cr"}
	}
	if len(c.Models) == 0 {
		c.Models = fault.Models()
	}
	if len(c.Magnitudes) == 0 {
		c.Magnitudes = fault.Magnitudes()
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Ranks <= 0 {
		c.Ranks = 2
	}
	if len(c.Thetas) == 0 {
		c.Thetas = []float64{1e-6, 1e-8, 1e-10, 1e-12, 1e-14}
	}
}

// Report bundles a full campaign's outputs.
type Report struct {
	Cells []Cell
	FP    []FPPoint
	// Forward compares forward recovery against rollback-only recovery on
	// identical strike schedules, per (engine × solver).
	Forward []ForwardPoint
	// Checkpoint characterizes the snapshot codecs — bytes stored vs extra
	// iterations after lossy restarts — on identical strike schedules.
	Checkpoint []CheckpointPoint
}

// Run executes the full campaign: the serial and parallel detection grids,
// the false-positive sweep, and the forward and checkpoint comparisons.
func Run(cfg Config) (Report, error) {
	cfg.normalize()
	var rep Report
	serial, err := RunSerial(cfg)
	if err != nil {
		return rep, fmt.Errorf("accuracy: serial campaign: %w", err)
	}
	rep.Cells = append(rep.Cells, serial...)
	parallel, err := RunParallel(cfg)
	if err != nil {
		return rep, fmt.Errorf("accuracy: parallel campaign: %w", err)
	}
	rep.Cells = append(rep.Cells, parallel...)
	fp, err := FalsePositiveSweep(cfg)
	if err != nil {
		return rep, fmt.Errorf("accuracy: false-positive sweep: %w", err)
	}
	rep.FP = fp
	fw, err := CompareForward(cfg)
	if err != nil {
		return rep, fmt.Errorf("accuracy: forward comparison: %w", err)
	}
	rep.Forward = fw
	cp, err := CompareCheckpoint(cfg)
	if err != nil {
		return rep, fmt.Errorf("accuracy: checkpoint comparison: %w", err)
	}
	rep.Checkpoint = cp
	return rep, nil
}

// system builds the campaign's reference problem: a 2-D Laplacian with a
// known smooth solution, the same construction the solver test suites use.
func system(side int) (a *sparse.CSR, b, xTrue []float64) {
	a = sparse.Laplacian2D(side, side)
	xTrue = make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = math.Cos(float64(i))
	}
	b = make([]float64, a.Rows)
	a.MulVec(b, xTrue)
	return a, b, xTrue
}

// classify maps one faulty solve's observables to an Outcome.
func classify(fired, detected bool, err error, matchesBaseline bool) Outcome {
	switch {
	case err != nil:
		return Aborted
	case !matchesBaseline:
		return SDC
	case detected:
		return Recovered
	default:
		_ = fired
		return Masked
	}
}

// tally folds one trial into the cell.
func (c *Cell) tally(fired, detected bool, o Outcome, latency int, haveLatency bool) {
	c.Trials++
	if fired {
		c.Fired++
	}
	if detected {
		c.Detected++
	}
	switch o {
	case Recovered:
		c.Recovered++
	case Aborted:
		c.Aborted++
	case SDC:
		c.SDC++
	case Masked:
		c.Masked++
	}
	if haveLatency {
		c.LatencySum += latency
		c.LatencyCount++
	}
}

// firstAlarm returns the iteration of the first detection or correction at
// or after the injection iteration on a timeline, and whether one exists.
func firstAlarm(iters []int, injectIter int) (int, bool) {
	for _, it := range iters {
		if it >= injectIter {
			return it, true
		}
	}
	return 0, false
}
