package accuracy

import (
	"errors"
	"math"
	"testing"

	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/par"
)

// Above-threshold single flips are the bread-and-butter fault the detectors
// were designed for: every solver on both engines must detect 100% of them.
func TestAboveThresholdDetectionIsTotal(t *testing.T) {
	cfg := Config{
		Models:     []fault.Model{fault.ModelSingle},
		Magnitudes: []fault.Magnitude{fault.MagLarge},
		Trials:     3,
		TwoLevel:   true,
	}
	serial, err := RunSerial(cfg)
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	parallel, err := RunParallel(cfg)
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	cells := append(serial, parallel...)
	if len(cells) == 0 {
		t.Fatalf("campaign produced no cells")
	}
	for _, c := range cells {
		if c.Fired != c.Trials {
			t.Errorf("%s/%s/%s: only %d/%d strikes fired", c.Engine, c.Solver, c.Scheme, c.Fired, c.Trials)
		}
		if c.DetectionRate() != 1.0 {
			t.Errorf("%s/%s/%s: detection rate %.2f, want 1.00 for above-threshold single flips",
				c.Engine, c.Solver, c.Scheme, c.DetectionRate())
		}
		if c.SDC > 0 {
			t.Errorf("%s/%s/%s: %d silent corruptions from detectable flips", c.Engine, c.Solver, c.Scheme, c.SDC)
		}
	}
}

// Fault-free runs at the default threshold must raise zero alarms on either
// engine — the false-positive half of the accuracy contract.
func TestNoFalsePositivesAtDefaultTheta(t *testing.T) {
	cfg := Config{Thetas: []float64{0}} // 0 → each engine's default θ = 1e-10
	cfg.Thetas[0] = 1e-10
	points, err := FalsePositiveSweep(cfg)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(points) != 6 { // 3 solvers × 2 engines × 1 θ
		t.Fatalf("sweep produced %d points, want 6", len(points))
	}
	for _, p := range points {
		if p.FalsePositive() {
			t.Errorf("%s/%s θ=%g: %d false alarms on a fault-free run",
				p.Engine, p.Solver, p.Theta, p.Detections)
		}
		if p.Iterations == 0 {
			t.Errorf("%s/%s θ=%g: run made no progress", p.Engine, p.Solver, p.Theta)
		}
	}
}

// The blocked pairwise reductions cut the accumulation round-off from
// O(n·ε) to O((block + log n)·ε), and the carried η bounds now track that
// tighter depth (checksum.ReduceEps). The re-baselined near-τ contract:
// the sweep stays alarm-free three decades below the default θ = 1e-10.
// Before the rewrite this margin was unavailable — the naive-accumulation
// η at the campaign's n would swamp a 1e-13 threshold, making any tighter
// θ indistinguishable from round-off.
func TestNoFalsePositivesAtTightenedTheta(t *testing.T) {
	cfg := Config{Thetas: []float64{1e-12, 1e-13}}
	points, err := FalsePositiveSweep(cfg)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(points) != 12 { // 3 solvers × 2 engines × 2 θ
		t.Fatalf("sweep produced %d points, want 12", len(points))
	}
	for _, p := range points {
		if p.FalsePositive() {
			t.Errorf("%s/%s θ=%g: %d false alarms on a fault-free run",
				p.Engine, p.Solver, p.Theta, p.Detections)
		}
		if p.Iterations == 0 {
			t.Errorf("%s/%s θ=%g: run made no progress", p.Engine, p.Solver, p.Theta)
		}
	}
}

// Detection latency for above-threshold strikes is bounded by one
// checkpoint window: huge flips trip the recurrence-scalar guard at the
// strike iteration itself, moderate ones surface through checksum
// propagation within a few detect intervals — never later than cd.
func TestDetectionLatencyBounded(t *testing.T) {
	cfg := Config{
		Models:     []fault.Model{fault.ModelSingle, fault.ModelSign},
		Magnitudes: []fault.Magnitude{fault.MagLarge},
		Trials:     2,
	}
	serial, err := RunSerial(cfg)
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	for _, c := range serial {
		lat := c.MeanLatency()
		if math.IsNaN(lat) {
			t.Errorf("%s/%s %s×%s: no latency samples", c.Solver, c.Scheme, c.Model, c.Magnitude)
			continue
		}
		if lat < 0 || lat > float64(serialCheckpoint) {
			t.Errorf("%s/%s %s×%s: mean latency %.1f outside [0, %d]",
				c.Solver, c.Scheme, c.Model, c.Magnitude, lat, serialCheckpoint)
		}
	}
}

// Checkpoint-buffer attacks subvert the recovery path itself: the run must
// end loudly (aborted) rather than deliver a silently wrong answer.
func TestCheckpointAttacksAbortNotSDC(t *testing.T) {
	cfg := Config{
		Models:     []fault.Model{fault.ModelCheckpoint},
		Magnitudes: []fault.Magnitude{fault.MagLarge},
		Trials:     2,
	}
	serial, err := RunSerial(cfg)
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	parallel, err := RunParallel(cfg)
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	for _, c := range append(serial, parallel...) {
		if c.SDC > 0 {
			t.Errorf("%s/%s/%s: checkpoint attack produced %d silent corruptions",
				c.Engine, c.Solver, c.Scheme, c.SDC)
		}
		if c.Aborted == 0 && c.Recovered == 0 {
			t.Errorf("%s/%s/%s: checkpoint attack neither aborted nor recovered (masked=%d)",
				c.Engine, c.Solver, c.Scheme, c.Masked)
		}
	}
}

// Below-τ strikes sit inside the round-off band by design: whatever the
// detector does, the answer must stay right (masked or recovered, never SDC).
func TestBelowThresholdNeverCorrupts(t *testing.T) {
	cfg := Config{
		Solvers:    []string{"pcg"},
		Models:     []fault.Model{fault.ModelSingle, fault.ModelMantissa},
		Magnitudes: []fault.Magnitude{fault.MagBelowTau},
		Trials:     3,
	}
	serial, err := RunSerial(cfg)
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	for _, c := range serial {
		if c.SDC > 0 {
			t.Errorf("%s/%s %s×%s: %d below-τ strikes became SDC",
				c.Engine, c.Solver, c.Model, c.Magnitude, c.SDC)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		Recovered: "recovered", Aborted: "aborted", SDC: "SDC", Masked: "masked", Outcome(9): "unknown-outcome",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), s)
		}
	}
}

func TestCellRates(t *testing.T) {
	var c Cell
	if c.DetectionRate() != 0 {
		t.Errorf("empty cell detection rate %v", c.DetectionRate())
	}
	if !math.IsNaN(c.MeanLatency()) {
		t.Errorf("empty cell latency %v, want NaN", c.MeanLatency())
	}
	c.tally(true, true, Recovered, 2, true)
	c.tally(true, false, Masked, 0, false)
	if c.Trials != 2 || c.Fired != 2 || c.Detected != 1 || c.Recovered != 1 || c.Masked != 1 {
		t.Errorf("tally bookkeeping wrong: %+v", c)
	}
	if c.DetectionRate() != 0.5 || c.MeanLatency() != 2 {
		t.Errorf("rates wrong: det=%v lat=%v", c.DetectionRate(), c.MeanLatency())
	}
}

func TestFirstAlarm(t *testing.T) {
	if _, ok := firstAlarm(nil, 3); ok {
		t.Errorf("empty timeline produced an alarm")
	}
	if at, ok := firstAlarm([]int{1, 2, 6, 9}, 4); !ok || at != 6 {
		t.Errorf("firstAlarm = %d,%v, want 6,true", at, ok)
	}
	if _, ok := firstAlarm([]int{1, 2}, 4); ok {
		t.Errorf("pre-strike alarms should not count")
	}
}

// A minimal end-to-end campaign through Run: one solver, two models, one
// trial — enough to exercise the orchestration (grid + FP sweep + comparisons)
// without re-running the full matrix.
func TestRunEndToEnd(t *testing.T) {
	rep, err := Run(Config{
		Solvers:    []string{"cr"},
		Models:     []fault.Model{fault.ModelMultiBit, fault.ModelBurst},
		Magnitudes: []fault.Magnitude{fault.MagLarge},
		Trials:     1,
		Thetas:     []float64{1e-10},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Cells) != 4 { // 2 engines × 2 models
		t.Errorf("%d cells, want 4", len(rep.Cells))
	}
	if len(rep.FP) != 2 {
		t.Errorf("FP=%d, want 2", len(rep.FP))
	}
	for _, c := range rep.Cells {
		if c.SDC > 0 {
			t.Errorf("%s/%s %s: SDC from large multi-strike", c.Engine, c.Solver, c.Model)
		}
	}
}

// parFaults must map every model onto well-formed distributed faults.
func TestParFaultsShapes(t *testing.T) {
	for _, model := range fault.Models() {
		for _, mag := range fault.Magnitudes() {
			faults := parFaults(model, mag, 13, 1, 2)
			if len(faults) == 0 {
				t.Fatalf("%s×%s: no faults", model, mag)
			}
			for _, f := range faults {
				if f.Bit < 0 || f.Bit > 63 {
					t.Errorf("%s×%s: bit %d out of range", model, mag, f.Bit)
				}
			}
			switch model {
			case fault.ModelMultiBit:
				if len(faults) != 3 {
					t.Errorf("multi-bit built %d faults, want 3", len(faults))
				}
			case fault.ModelBurst:
				if len(faults) != 4 {
					t.Errorf("burst built %d faults, want 4", len(faults))
				}
			case fault.ModelSign:
				if faults[0].Bit != 63 {
					t.Errorf("sign flip targets bit %d", faults[0].Bit)
				}
			case fault.ModelChecksum:
				if faults[0].Target != par.TargetChecksum {
					t.Errorf("checksum model targets %v", faults[0].Target)
				}
			case fault.ModelCheckpoint:
				if len(faults) != 2 || faults[0].Target != par.TargetCheckpoint {
					t.Errorf("checkpoint model built %+v", faults)
				}
			}
		}
	}
}

func TestStrikeIterationSpread(t *testing.T) {
	if got := strikeIteration(2, 0, 3); got != 1 {
		t.Errorf("degenerate baseline: strike at %d, want 1", got)
	}
	for trial := 0; trial < 3; trial++ {
		it := strikeIteration(30, trial, 3)
		if it < 1 || it > 28 {
			t.Errorf("trial %d strikes iteration %d, outside (0, iters-1)", trial, it)
		}
	}
	if !(strikeIteration(30, 0, 3) < strikeIteration(30, 1, 3)) {
		t.Errorf("strikes should advance across trials")
	}
}

func TestDispatchUnknownSolver(t *testing.T) {
	if _, err := runSerial("qmr", "basic", nil, nil, nil, core.Options{}); err == nil {
		t.Errorf("unknown serial solver accepted")
	}
	if _, err := runParallel("qmr", nil, nil, 2, par.Options{}); err == nil {
		t.Errorf("unknown parallel solver accepted")
	}
}

func TestClassify(t *testing.T) {
	if got := classify(true, true, errAny, false); got != Aborted {
		t.Errorf("error run classified %v", got)
	}
	if got := classify(true, false, nil, false); got != SDC {
		t.Errorf("wrong-answer run classified %v", got)
	}
	if got := classify(true, true, nil, true); got != Recovered {
		t.Errorf("detected+matching run classified %v", got)
	}
	if got := classify(true, false, nil, true); got != Masked {
		t.Errorf("benign run classified %v", got)
	}
}

var errAny = errors.New("any failure")
