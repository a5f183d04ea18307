package core

import (
	"testing"

	"newsum/internal/fault"
	"newsum/internal/solver"
	"newsum/internal/vec"
)

// A checksum-state strike leaves the data clean but breaks the carried
// relationship; the outer level must still converge to the right answer,
// paying one futile rollback for the false alarm.
func TestBasicPCGSurvivesChecksumStateAttack(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector(fault.ModelChecksum.Events(fault.MagLarge, 7, fault.SiteMVM), 1)
	res, err := BasicPCG(a, m, b, Options{
		Options:            solver.Options{Tol: 1e-10},
		DetectInterval:     2,
		CheckpointInterval: 6,
		Injector:           inj,
	})
	if err != nil {
		t.Fatalf("checksum-state attack: %v", err)
	}
	if res.Stats.Detections == 0 {
		t.Errorf("broken checksum state escaped verification")
	}
	if res.Stats.Rollbacks == 0 {
		t.Errorf("no rollback charged for the false alarm")
	}
	checkSolution(t, a, b, res.X, 1e-9)
}

// A checkpoint-buffer strike poisons the snapshot copy while live state
// stays clean: dormant until a trigger fault forces a rollback, after which
// every restore resurrects the corruption and the run must abort in a
// rollback storm rather than emit a wrong answer.
func TestBasicPCGCheckpointAttackAborts(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	events := fault.ModelCheckpoint.Events(fault.MagLarge, 0, fault.SiteMVM)
	// Trigger: a plain MVM strike inside the first checkpoint window, so the
	// poisoned snapshot is still the rollback target.
	events = append(events, fault.Event{
		Iteration: 7, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1,
	})
	inj := fault.NewInjector(events, 1)
	_, err := BasicPCG(a, m, b, Options{
		Options:            solver.Options{Tol: 1e-10},
		DetectInterval:     2,
		CheckpointInterval: 20,
		MaxRollbacks:       5,
		Injector:           inj,
	})
	if err == nil {
		t.Fatalf("poisoned checkpoint should end in a rollback storm")
	}
	if len(inj.Injected) == 0 {
		t.Fatalf("checkpoint fault never fired")
	}
}

// Without a trigger the poisoned snapshot is never restored: the solve is
// bit-identical to a fault-free run (the corruption is dormant by design).
func TestCheckpointAttackDormantWithoutTrigger(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector(fault.ModelCheckpoint.Events(fault.MagLarge, 0, fault.SiteMVM), 1)
	res, err := BasicPCG(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10},
		Injector: inj,
	})
	if err != nil {
		t.Fatalf("dormant checkpoint fault broke the solve: %v", err)
	}
	if res.Stats.Rollbacks != 0 || res.Stats.Detections != 0 {
		t.Errorf("dormant corruption caused rollbacks=%d detections=%d",
			res.Stats.Rollbacks, res.Stats.Detections)
	}
	checkSolution(t, a, b, res.X, 1e-9)
}

// Sign flips preserve magnitude; the checksum relationship still breaks by
// 2|c_i·v_i|, so the outer level must detect and recover.
func TestBasicCRRecoversFromSignFlip(t *testing.T) {
	a, _, b, _ := testSystem(t, 400)
	events := fault.ModelSign.Events(fault.MagLarge, 9, fault.SiteMVM)
	inj := fault.NewInjector(events, 1)
	res, err := BasicCR(a, b, Options{
		Options:            solver.Options{Tol: 1e-10},
		DetectInterval:     2,
		CheckpointInterval: 6,
		Injector:           inj,
	})
	if err != nil {
		t.Fatalf("CR with sign flip: %v", err)
	}
	if res.Stats.Detections == 0 {
		t.Errorf("sign flip escaped detection")
	}
	checkSolution(t, a, b, res.X, 1e-9)
}

// A burst defeats single-error correction by design: the two-level inner
// level must escalate to rollback, never "correct" one of four errors. The
// sweep covers 3 000 injector seeds (every tenth under -short): about one
// burst in four overflows δ1² or δ2·δ3, which only Diagnose's non-finite
// guard keeps from passing the single-error test.
func TestTwoLevelPCGBurstEscalatesToRollback(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	events := fault.ModelBurst.Events(fault.MagLarge, 5, fault.SiteMVM)
	stride := int64(1)
	if testing.Short() {
		stride = 10
	}
	r := make([]float64, len(b))
	corrected, runs := 0, 0
	for seed := int64(0); seed < 3000; seed += stride {
		res, err := TwoLevelPCG(a, m, b, Options{
			Options:  solver.Options{Tol: 1e-10},
			Injector: fault.NewInjector(events, seed),
		})
		if err != nil {
			t.Fatalf("seed %d: two-level PCG with burst: %v", seed, err)
		}
		runs++
		if res.Stats.Corrections != 0 {
			corrected++
		}
		if res.Stats.Rollbacks == 0 {
			t.Errorf("seed %d: burst should trigger rollback", seed)
		}
		a.MulVec(r, res.X)
		vec.Sub(r, b, r)
		if rel := vec.Norm2(r) / vec.Norm2(b); rel > 1e-9 {
			t.Errorf("seed %d: true residual %.3e exceeds 1e-9", seed, rel)
		}
	}
	if corrected != 0 {
		t.Errorf("burst of 4 errors was 'corrected' in %d of %d seeds", corrected, runs)
	}
}
