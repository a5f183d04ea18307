package par

import (
	"fmt"
	"math"
	"testing"

	"newsum/internal/checksum"
	"newsum/internal/vec"
)

// The distributed forward-recovery campaign, mirroring the serial one in
// internal/core: inject one additive strike per (iteration, rank, local
// element) coordinate of a small distributed solve and require that the
// forward tier repairs it in place — zero coordinated rollbacks, at least
// one rollback avoided — and that the team still converges to the
// fault-free answer. The additive magnitude 1e4 is always detectable at the
// next boundary and never trips the suspect-scalar pre-check. Each
// (iteration, rank) coordinate strikes two rotating local indices, covering
// every local element across the sweep without the full cross-product.

func forwardParOptions(faults []Fault) Options {
	return Options{
		Tol:                1e-10,
		DetectInterval:     2,
		CheckpointInterval: 10,
		MaxRollbacks:       8,
		ForwardRecovery:    true,
		Faults:             faults,
	}
}

func runParForwardCampaign(t *testing.T, solve func(faults []Fault) (Result, error), iters, ranks, local int, baseX []float64) {
	t.Helper()
	forward, masked, total := 0, 0, 0
	for iter := 0; iter < iters; iter++ {
		for rank := 0; rank < ranks; rank++ {
			for _, idx := range []int{(iter + rank) % local, (iter + rank + local/2) % local} {
				iter, rank, idx := iter, rank, idx
				t.Run(fmt.Sprintf("iter=%d/rank=%d/idx=%d", iter, rank, idx), func(t *testing.T) {
					res, err := solve([]Fault{{
						Iteration: iter, Rank: rank, Index: idx, Magnitude: 1e4,
					}})
					if err != nil {
						t.Fatalf("faulted solve: %v", err)
					}
					if res.InjectedFaults != 1 {
						t.Fatalf("fault did not fire exactly once: injected=%d", res.InjectedFaults)
					}
					total++
					switch {
					case res.Rollbacks != 0:
						t.Errorf("forward tier fell back to rollback: %+v", res)
					case res.RollbacksAvoided > 0:
						forward++
					case res.Detections == 0:
						// A strike at the final MVM near convergence enters r
						// multiplied by the collapsed step length — benignly
						// masked; the answer-equality check below still gates it.
						masked++
					default:
						t.Errorf("detected strike escaped the forward tier: %+v", res)
					}
					if !vec.Equal(res.X, baseX, 1e-6) {
						t.Errorf("solution drifted from the fault-free answer")
					}
				})
			}
		}
	}
	if forward+masked != total {
		t.Errorf("forward-recovery rate %d/%d (+%d masked), want every detected strike forward", forward, total, masked)
	} else if masked > 2*ranks {
		// Masking is a final-iteration phenomenon; more than one iteration's
		// worth of masked strikes means detection itself regressed.
		t.Errorf("masked %d strikes, want at most %d (one iteration sweep)", masked, 2*ranks)
	} else {
		t.Logf("campaign: %d/%d strikes repaired forward, %d benignly masked", forward, total, masked)
	}
}

func TestForwardCampaignParPCG(t *testing.T) {
	a, b := campaignSystem(t)
	const ranks = 4
	base, err := ABFTPCG(a, b, ranks, forwardParOptions(nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	runParForwardCampaign(t, func(faults []Fault) (Result, error) {
		return ABFTPCG(a, b, ranks, forwardParOptions(faults))
	}, base.Iterations, ranks, a.Rows/ranks, base.X)
}

func TestForwardCampaignParCR(t *testing.T) {
	a, b := campaignSystem(t)
	const ranks = 2
	base, err := ABFTCR(a, b, ranks, forwardParOptions(nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	// CR's protected MVM runs at the tail of every non-final iteration, so
	// the sweep covers 0..Iterations-2.
	runParForwardCampaign(t, func(faults []Fault) (Result, error) {
		return ABFTCR(a, b, ranks, forwardParOptions(faults))
	}, base.Iterations-1, ranks, a.Rows/ranks, base.X)
}

// TestWithinDriftRejectsNonFinite pins the distributed amplified-drift
// screen, as par reaches it through forwardDiagnose with no η, against a
// NaN or infinite δ: δ2 and δ3 sit broken but inside the drift window, so
// the non-finite δ1 alone must keep an overflowed burst from being
// re-anchored over.
func TestWithinDriftRejectsNonFinite(t *testing.T) {
	const n = 64
	e := &rankEngine{c: NewTeam(1)[0], weights: checksum.Triple, n: n, hi: n, res: &Result{}}
	v := NewDistVector(n, len(e.weights))
	for i := range v.Data {
		v.Data[i] = math.Cos(float64(i))
	}
	data := append([]float64(nil), v.Data...)
	// reset re-anchors v and pushes δ2, δ3 to ten times their verification
	// limits, within DriftFactor of them.
	reset := func() {
		v.LocalChecksums(e.weights, e.lo)
		for k := 1; k < 3; k++ {
			_, absSum := localSums(e.weights[k], e.lo, v.Data)
			v.S[k] -= 10 * checksum.DefaultTheta * math.Max(absSum, n)
		}
	}
	v.LocalChecksums(e.weights, e.lo)
	if out, _ := e.forwardDiagnose(v); out != checksum.Clean {
		t.Fatalf("zero deltas diagnosed as %d, want Clean (%d)", out, checksum.Clean)
	}
	reset()
	if out, _ := e.forwardDiagnose(v); out != checksum.Reanchored {
		t.Fatalf("drift diagnosed as %d, want Reanchored (%d)", out, checksum.Reanchored)
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		reset()
		v.S[0] = d
		if out, _ := e.forwardDiagnose(v); out == checksum.Reanchored || out == checksum.Clean {
			t.Errorf("δ1 from carried checksum %g accepted as drift (outcome %d)", d, out)
		}
		for i := range data {
			if v.Data[i] != data[i] {
				t.Fatalf("carried checksum %g changed element %d", d, i)
			}
		}
	}
	if e.res.Corrections != 0 {
		t.Errorf("non-finite δ counted as a correction")
	}
}
