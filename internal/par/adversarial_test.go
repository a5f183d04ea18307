package par

import (
	"testing"

	"newsum/internal/core"
	"newsum/internal/vec"
)

// A checksum-state strike corrupts the carried partial checksum, not the
// data: the verifier must still flag the inconsistency and recover to the
// right answer (one futile rollback for the false alarm).
func TestPCGChecksumTargetDetected(t *testing.T) {
	a, b := campaignSystem(t)
	base, err := ABFTPCG(a, b, 2, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	res, err := ABFTPCG(a, b, 2, Options{
		Tol: 1e-10,
		Faults: []Fault{
			{Iteration: 5, Rank: 1, Target: TargetChecksum, BitFlip: true, Bit: 62},
		},
	})
	if err != nil {
		t.Fatalf("checksum-target solve: %v", err)
	}
	if res.InjectedFaults != 1 {
		t.Fatalf("fault fired %d times, want 1", res.InjectedFaults)
	}
	if res.Detections == 0 || res.Rollbacks == 0 {
		t.Errorf("checksum-state attack not flagged: detections=%d rollbacks=%d",
			res.Detections, res.Rollbacks)
	}
	if !vec.Equal(res.X, base.X, 1e-8) {
		t.Errorf("solution diverged from fault-free baseline")
	}
}

// A checkpoint-buffer strike is dormant until a trigger forces a rollback;
// then every restore resurrects the corruption and the run must abort.
func TestPCGCheckpointTargetAborts(t *testing.T) {
	a, b := campaignSystem(t)
	_, err := ABFTPCG(a, b, 2, Options{
		Tol:                1e-10,
		CheckpointInterval: 20,
		MaxRollbacks:       5,
		Faults: []Fault{
			{Iteration: 0, Rank: 0, Target: TargetCheckpoint, BitFlip: true, Bit: 62},
			{Iteration: 7, Rank: 1, BitFlip: true, Bit: 62}, // trigger
		},
	})
	if err == nil {
		t.Fatalf("poisoned checkpoint should end in a rollback storm")
	}
}

// Without a trigger the poisoned snapshot is never read: the solve matches
// the fault-free baseline exactly.
func TestPCGCheckpointTargetDormant(t *testing.T) {
	a, b := campaignSystem(t)
	base, err := ABFTPCG(a, b, 2, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	res, err := ABFTPCG(a, b, 2, Options{
		Tol: 1e-10,
		Faults: []Fault{
			{Iteration: 0, Rank: 0, Target: TargetCheckpoint, BitFlip: true, Bit: 62},
		},
	})
	if err != nil {
		t.Fatalf("dormant checkpoint fault broke the solve: %v", err)
	}
	if res.Rollbacks != 0 || res.Detections != 0 {
		t.Errorf("dormant corruption caused rollbacks=%d detections=%d", res.Rollbacks, res.Detections)
	}
	if !vec.Equal(res.X, base.X, 0) {
		t.Errorf("dormant run should be bit-identical to baseline")
	}
}

// A correlated multi-rank upset (every rank struck at the same iteration)
// must still be detected and recovered from by every solver.
func TestCorrelatedMultiRankFaults(t *testing.T) {
	a, b := campaignSystem(t)
	faults := CorrelatedFaults(Fault{Iteration: 4, Index: 1, BitFlip: true, Bit: 62}, 3)
	if len(faults) != 3 {
		t.Fatalf("CorrelatedFaults built %d faults", len(faults))
	}
	for r, f := range faults {
		if f.Rank != r || f.Iteration != 4 {
			t.Fatalf("fault %d: rank=%d iter=%d", r, f.Rank, f.Iteration)
		}
	}
	base, err := ABFTPCG(a, b, 3, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	res, err := ABFTPCG(a, b, 3, Options{Tol: 1e-10, Faults: faults})
	if err != nil {
		t.Fatalf("correlated solve: %v", err)
	}
	if res.InjectedFaults != 3 {
		t.Fatalf("fired %d faults, want 3", res.InjectedFaults)
	}
	if res.Detections == 0 {
		t.Errorf("correlated upset escaped detection")
	}
	if !vec.Equal(res.X, base.X, 1e-8) {
		t.Errorf("solution diverged from fault-free baseline")
	}
}

func TestTargetStrings(t *testing.T) {
	if TargetOutput.String() != "output" || TargetChecksum.String() != "checksum" ||
		TargetCheckpoint.String() != "checkpoint" || Target(9).String() != "unknown-target" {
		t.Fatalf("Target.String broken")
	}
}

// The team timeline is recorded in core's event vocabulary by rank 0 and
// must tell the full story of a faulty solve: checkpoints, a detection at
// the struck iteration, and a rollback — in order.
func TestResultTraceTimeline(t *testing.T) {
	a, b := campaignSystem(t)
	res, err := ABFTPCG(a, b, 2, Options{
		Tol: 1e-10,
		Faults: []Fault{
			{Iteration: 5, Rank: 1, Index: 2, BitFlip: true, Bit: 62},
		},
	})
	if err != nil {
		t.Fatalf("traced solve: %v", err)
	}
	if len(res.Trace) == 0 {
		t.Fatalf("no trace recorded")
	}
	counts := map[core.EventKind]int{}
	for _, ev := range res.Trace {
		counts[ev.Kind]++
	}
	if counts[core.EvCheckpoint] != res.Checkpoints {
		t.Errorf("trace has %d checkpoint events, result reports %d",
			counts[core.EvCheckpoint], res.Checkpoints)
	}
	if counts[core.EvDetection] != res.Detections {
		t.Errorf("trace has %d detection events, result reports %d",
			counts[core.EvDetection], res.Detections)
	}
	if counts[core.EvRollback] != res.Rollbacks {
		t.Errorf("trace has %d rollback events, result reports %d",
			counts[core.EvRollback], res.Rollbacks)
	}
	// The detection must land at or after the strike, and be followed by its
	// rollback.
	sawDetection := false
	for _, ev := range res.Trace {
		if ev.Kind == core.EvDetection {
			if ev.Iteration < 5 {
				t.Errorf("detection at iteration %d precedes the iteration-5 strike", ev.Iteration)
			}
			sawDetection = true
		}
		if ev.Kind == core.EvRollback && !sawDetection {
			t.Errorf("rollback before any detection")
		}
	}
	if !sawDetection {
		t.Errorf("no detection event in trace")
	}
}

// Fault-free runs produce checkpoint-only timelines: no detections, no
// rollbacks, no corrections — the 0-false-positive half of the accuracy
// contract at the event level.
func TestResultTraceFaultFree(t *testing.T) {
	a, b := campaignSystem(t)
	for name, run := range map[string]func() (Result, error){
		"pcg":      func() (Result, error) { return ABFTPCG(a, b, 2, Options{Tol: 1e-10}) },
		"bicgstab": func() (Result, error) { return ABFTBiCGStab(a, b, 2, Options{Tol: 1e-10}) },
		"cr":       func() (Result, error) { return ABFTCR(a, b, 2, Options{Tol: 1e-10}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ev := range res.Trace {
			if ev.Kind != core.EvCheckpoint {
				t.Errorf("%s: fault-free run logged %v at iteration %d: %s",
					name, ev.Kind, ev.Iteration, ev.Detail)
			}
		}
		if len(res.Trace) != res.Checkpoints {
			t.Errorf("%s: %d trace events, want %d checkpoints only", name, len(res.Trace), res.Checkpoints)
		}
	}
}

// TestInnerEventsCarryTheStruckIteration: under two-level protection the
// inner check's event is stamped with the iteration whose MVM was struck,
// for every method — CR included, whose MVM runs after the driver's clock
// has advanced — so a latency read off the timeline is the strike-to-alarm
// distance. One struck element is corrected in place; two are a detection,
// and the rollback that follows keeps the driver's clock.
func TestInnerEventsCarryTheStruckIteration(t *testing.T) {
	a, b := campaignSystem(t)
	const iter = 5
	for name, solve := range map[string]func(Options) (Result, error){
		"pcg":      func(o Options) (Result, error) { return ABFTPCG(a, b, 2, o) },
		"bicgstab": func(o Options) (Result, error) { return ABFTBiCGStab(a, b, 2, o) },
		"cr":       func(o Options) (Result, error) { return ABFTCR(a, b, 2, o) },
	} {
		for _, tc := range []struct {
			strikes int
			kind    core.EventKind
		}{{1, core.EvCorrection}, {2, core.EvDetection}} {
			faults := make([]Fault, tc.strikes)
			for k := range faults {
				faults[k] = Fault{Iteration: iter, Rank: 1, Index: 2 + 3*k}
			}
			res, err := solve(Options{Tol: 1e-10, TwoLevel: true, Faults: faults})
			if err != nil || !res.Converged {
				t.Fatalf("%s, %d strikes: converged %v, %v", name, tc.strikes, res.Converged, err)
			}
			at := -1
			for _, ev := range res.Trace {
				if ev.Kind == tc.kind {
					at = ev.Iteration
					break
				}
			}
			if at != iter {
				t.Errorf("%s, %d strikes at iteration %d: first %v at %d", name, tc.strikes, iter, tc.kind, at)
			}
		}
	}
}
