package core

import (
	"math"
	"testing"

	"newsum/internal/checksum"
	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// The fake-correction hazard campaign (§5.2): multi-element corruptions must
// never be "repaired" by an in-place single-element correction. Depending on
// where the burst lands, the sound outcomes are reconstruction from clean
// state (r has the identity r = b − A·x), a family restart (CR's products),
// or the checkpoint rollback (the iterate x, which has no identity to
// rebuild from) — but never Stats.Corrections > 0, which would be the
// forward tier corrupting a healthy element on a mislocated diagnosis.

// TestForwardBurstOnIterateRollsBack plants two equal-magnitude errors in
// the iterate update — the classic pattern that fools the double-checksum
// locator into "correcting" the midpoint element. The triple-checksum
// single-error test δ2·δ3 = δ1² rejects it at close positions, so the
// forward tier must refuse any repair and fall back to rollback.
func TestForwardBurstOnIterateRollsBack(t *testing.T) {
	a, b, m := forwardCampaignSystem(t)
	base, err := BasicPCG(a, m, b, forwardCampaignOptions(nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: 10, Magnitude: 1e4},
		{Iteration: 5, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: 12, Magnitude: 1e4},
	}, 1)
	res, err := BasicPCG(a, m, b, forwardCampaignOptions(inj))
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if len(inj.Injected) != 2 {
		t.Fatalf("burst did not fire exactly twice: injected=%d", len(inj.Injected))
	}
	if res.Stats.Corrections != 0 {
		t.Errorf("burst of 2 errors was 'corrected' %d times", res.Stats.Corrections)
	}
	if res.Stats.RollbacksAvoided != 0 {
		t.Errorf("unlocalizable iterate burst must not take the forward path: %+v", res.Stats)
	}
	if res.Stats.Rollbacks == 0 {
		t.Errorf("unlocalizable iterate burst must roll back: %+v", res.Stats)
	}
	if !vec.Equal(res.X, base.X, 1e-6) {
		t.Errorf("solution drifted from the fault-free answer")
	}
}

// TestForwardBurstOnResidualReconstructs plants the same two-element burst
// in the MVM output, which lands in the residual. Localization fails, but r
// has the identity r = b − A·x: the forward tier must rebuild it from the
// verified iterate — one recovery MVM, no correction, no rollback.
func TestForwardBurstOnResidualReconstructs(t *testing.T) {
	a, b, m := forwardCampaignSystem(t)
	base, err := BasicPCG(a, m, b, forwardCampaignOptions(nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 10, Magnitude: 1e4},
		{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 12, Magnitude: 1e4},
	}, 1)
	res, err := BasicPCG(a, m, b, forwardCampaignOptions(inj))
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if len(inj.Injected) != 2 {
		t.Fatalf("burst did not fire exactly twice: injected=%d", len(inj.Injected))
	}
	if res.Stats.Corrections != 0 {
		t.Errorf("burst of 2 errors was 'corrected' %d times", res.Stats.Corrections)
	}
	if res.Stats.Rollbacks != 0 {
		t.Errorf("residual burst should reconstruct forward, not roll back: %+v", res.Stats)
	}
	if res.Stats.RollbacksAvoided == 0 {
		t.Errorf("residual burst escaped the forward tier: %+v", res.Stats)
	}
	if !vec.Equal(res.X, base.X, 1e-6) {
		t.Errorf("solution drifted from the fault-free answer")
	}
}

// TestForwardBurstCRFamilyRestart plants a two-element burst in CR's
// product update Ar = A·r. Localization fails, and no identity repairs Ar
// element-wise — the forward tier must restart the whole product family
// from the residual instead of correcting or rolling back.
func TestForwardBurstCRFamilyRestart(t *testing.T) {
	a, b, _ := forwardCampaignSystem(t)
	base, err := BasicCR(a, b, forwardCampaignOptions(nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 10, Magnitude: 1e4},
		{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 12, Magnitude: 1e4},
	}, 1)
	res, err := BasicCR(a, b, forwardCampaignOptions(inj))
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if len(inj.Injected) != 2 {
		t.Fatalf("burst did not fire exactly twice: injected=%d", len(inj.Injected))
	}
	if res.Stats.Corrections != 0 {
		t.Errorf("burst of 2 errors was 'corrected' %d times", res.Stats.Corrections)
	}
	if res.Stats.Rollbacks != 0 {
		t.Errorf("product burst should restart the family forward, not roll back: %+v", res.Stats)
	}
	if res.Stats.RollbacksAvoided == 0 {
		t.Errorf("product burst escaped the forward tier: %+v", res.Stats)
	}
	if !vec.Equal(res.X, base.X, 1e-6) {
		t.Errorf("solution drifted from the fault-free answer")
	}
}

// aliasedPairSystem builds a system large enough to host the aliased
// two-error pattern: equal magnitudes at 1-based positions p and p+2 give
// the integral locator j = p+1 and a δ2·δ3/δ1² ratio of 1 + 1/(p(p+2)),
// inside the single-error test's 1e-6 relative tolerance once p ≳ 1000.
// Only the §5.2 post-correction confirmation can catch it — via the
// harmonic relation, which the "correction" leaves broken by
// 2e/(p(p+1)(p+2)).
func aliasedPairSystem(t *testing.T) (*sparse.CSR, []float64, precond.Preconditioner) {
	t.Helper()
	a := sparse.Laplacian2D(91, 91)
	xTrue := make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = math.Cos(float64(i))
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, xTrue)
	m, err := precond.BlockJacobiILU0(a, 4)
	if err != nil {
		t.Fatalf("preconditioner: %v", err)
	}
	return a, b, m
}

// TestForwardRejectedFakeCorrectionRollsBack drives the aliased pair through
// a full solve: the forward tier's Diagnose is fooled into a single-error
// verdict at the healthy midpoint element, the confirmation rejects the
// correction, the correction is undone, and the solver falls back to
// rollback — the "rejected fake correction" path, counted explicitly.
func TestForwardRejectedFakeCorrectionRollsBack(t *testing.T) {
	a, b, m := aliasedPairSystem(t)
	base, err := BasicPCG(a, m, b, forwardCampaignOptions(nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 2, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: 4000, Magnitude: 1e6},
		{Iteration: 2, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: 4002, Magnitude: 1e6},
	}, 1)
	res, err := BasicPCG(a, m, b, forwardCampaignOptions(inj))
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if len(inj.Injected) != 2 {
		t.Fatalf("burst did not fire exactly twice: injected=%d", len(inj.Injected))
	}
	if res.Stats.RejectedCorrections == 0 {
		t.Errorf("aliased pair must be caught by the confirmation: %+v", res.Stats)
	}
	if res.Stats.Corrections != 0 {
		t.Errorf("rejected correction must not be counted as a correction: %+v", res.Stats)
	}
	if res.Stats.Rollbacks == 0 {
		t.Errorf("rejected correction must fall back to rollback: %+v", res.Stats)
	}
	if res.Stats.RollbacksAvoided != 0 {
		t.Errorf("rejected correction must not count as forward recovery: %+v", res.Stats)
	}
	if !vec.Equal(res.X, base.X, 1e-6) {
		t.Errorf("solution drifted from the fault-free answer")
	}
}

// TestForwardDiagnoseRejectsAliasedPair exercises the same aliased pair at
// the engine level and pins the undo semantics: the verdict is
// forwardRejected, the healthy midpoint element is bit-identical to its
// pre-diagnosis value (the fake correction was applied and reverted), and
// the two genuinely corrupted elements still carry their corruption.
func TestForwardDiagnoseRejectsAliasedPair(t *testing.T) {
	a := sparse.Laplacian2D(91, 91)
	var stats Stats
	opts := Options{}
	opts.normalize()
	e := newEngine(a, nil, checksum.Triple, &opts, &stats)
	v := e.newTracked("v")
	fillTracked(v, func(i int) float64 { return math.Cos(float64(i)) })
	e.recompute(v)
	const mag = 1e6
	v.data[4000] += mag
	v.data[4002] += mag
	before := [3]float64{v.data[4000], v.data[4001], v.data[4002]}
	out, _ := e.forwardDiagnose(v)
	if out != checksum.Rejected {
		t.Fatalf("aliased pair diagnosed as %d, want Rejected (%d)", out, checksum.Rejected)
	}
	if v.data[4001] != before[1] {
		t.Errorf("healthy midpoint element not restored: %g vs %g", v.data[4001], before[1])
	}
	if v.data[4000] != before[0] || v.data[4002] != before[2] {
		t.Errorf("corrupted elements must be left for the rollback to handle")
	}
	if stats.Corrections != 0 {
		t.Errorf("rejected correction counted as a correction")
	}
}

// TestWithinDriftRejectsNonFinite pins the amplified-drift screen, as core
// reaches it through forwardDiagnose with its carried η, against a NaN or
// infinite δ: δ2 and δ3 sit broken but inside the drift window, so the
// non-finite δ1 alone must keep the vector from being re-anchored over an
// overflowed burst.
func TestWithinDriftRejectsNonFinite(t *testing.T) {
	a := sparse.Laplacian2D(8, 8)
	var stats Stats
	opts := Options{}
	opts.normalize()
	e := newEngine(a, nil, checksum.Triple, &opts, &stats)
	v := e.newTracked("v")
	fillTracked(v, func(i int) float64 { return math.Cos(float64(i)) })
	data := append([]float64(nil), v.data...)
	// reset re-anchors v and pushes δ2, δ3 to ten times their verification
	// limits, within DriftFactor of them.
	reset := func() {
		e.recompute(v)
		for k := 1; k < 3; k++ {
			_, absSum := e.sums(v, k)
			limit := math.Max(e.tol.Theta*math.Max(absSum, float64(e.n)), checksum.BoundSafety*v.eta[k])
			v.s[k] -= 10 * limit
		}
	}
	e.recompute(v)
	if out, _ := e.forwardDiagnose(v); out != checksum.Clean {
		t.Fatalf("zero deltas diagnosed as %d, want Clean (%d)", out, checksum.Clean)
	}
	reset()
	if out, _ := e.forwardDiagnose(v); out != checksum.Reanchored {
		t.Fatalf("drift diagnosed as %d, want Reanchored (%d)", out, checksum.Reanchored)
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		reset()
		v.s[0] = d
		if out, _ := e.forwardDiagnose(v); out == checksum.Reanchored || out == checksum.Clean {
			t.Errorf("δ1 from carried checksum %g accepted as drift (outcome %d)", d, out)
		}
		for i := range data {
			if v.data[i] != data[i] {
				t.Fatalf("carried checksum %g changed element %d", d, i)
			}
		}
	}
	if stats.Corrections != 0 {
		t.Errorf("non-finite δ counted as a correction")
	}
}

// TestForwardBurstCRIterateRollsBack is the CR twin of the PCG iterate-burst
// test: a two-element burst in the iterate update has no identity to rebuild
// from and must fall back to rollback, never an in-place "correction".
func TestForwardBurstCRIterateRollsBack(t *testing.T) {
	a, b, _ := forwardCampaignSystem(t)
	base, err := BasicCR(a, b, forwardCampaignOptions(nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: 10, Magnitude: 1e4},
		{Iteration: 5, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: 12, Magnitude: 1e4},
	}, 1)
	res, err := BasicCR(a, b, forwardCampaignOptions(inj))
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if res.Stats.Corrections != 0 {
		t.Errorf("burst of 2 errors was 'corrected' %d times", res.Stats.Corrections)
	}
	if res.Stats.RollbacksAvoided != 0 {
		t.Errorf("unlocalizable iterate burst must not take the forward path: %+v", res.Stats)
	}
	if res.Stats.Rollbacks == 0 {
		t.Errorf("unlocalizable iterate burst must roll back: %+v", res.Stats)
	}
	if !vec.Equal(res.X, base.X, 1e-6) {
		t.Errorf("solution drifted from the fault-free answer")
	}
}

// TestForwardRejectedFakeCorrectionCRRollsBack drives the large-j aliased
// pair through CR's iterate: the confirmation must reject the fake
// correction and the solver must roll back, exactly as in the PCG case.
func TestForwardRejectedFakeCorrectionCRRollsBack(t *testing.T) {
	a, b, _ := aliasedPairSystem(t)
	base, err := BasicCR(a, b, forwardCampaignOptions(nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 2, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: 4000, Magnitude: 1e6},
		{Iteration: 2, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: 4002, Magnitude: 1e6},
	}, 1)
	res, err := BasicCR(a, b, forwardCampaignOptions(inj))
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if res.Stats.RejectedCorrections == 0 {
		t.Errorf("aliased pair must be caught by the confirmation: %+v", res.Stats)
	}
	if res.Stats.Corrections != 0 {
		t.Errorf("rejected correction must not be counted as a correction: %+v", res.Stats)
	}
	if res.Stats.Rollbacks == 0 {
		t.Errorf("rejected correction must fall back to rollback: %+v", res.Stats)
	}
	if !vec.Equal(res.X, base.X, 1e-6) {
		t.Errorf("solution drifted from the fault-free answer")
	}
}

// TestForwardRejectedFakeCorrectionOnResidual routes the aliased pair
// through the MVM so it lands in the residual scaled by a common −α — still
// equal magnitudes, still a fake single-error candidate. This pattern is
// the reason r is never diagnosed in place: the burst inflates pᵀq, the
// collapsed α shrinks the pair until the post-correction inconsistency
// (suppressed by ~1/j³ at large indices) hides below the confirmation
// threshold, and a trusted "correction" would re-anchor checksum-endorsed
// corruption into the recurrence's fixed-point anchor. The forward tier
// instead reconstructs r = b − A·x from the verified iterate, which erases
// the corruption exactly — no diagnosis, no rejection, no rollback — and
// the solve still lands on the fault-free answer.
func TestForwardRejectedFakeCorrectionOnResidual(t *testing.T) {
	a, b, m := aliasedPairSystem(t)
	base, err := BasicPCG(a, m, b, forwardCampaignOptions(nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 3, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 4000, Magnitude: 1e7},
		{Iteration: 3, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 4002, Magnitude: 1e7},
	}, 1)
	res, err := BasicPCG(a, m, b, forwardCampaignOptions(inj))
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if res.Stats.Corrections != 0 {
		t.Errorf("aliased residual pair was 'corrected' %d times", res.Stats.Corrections)
	}
	if res.Stats.RejectedCorrections != 0 {
		t.Errorf("r must be rebuilt, never diagnosed: %+v", res.Stats)
	}
	if res.Stats.Rollbacks != 0 {
		t.Errorf("reconstruction handles the residual burst without rollback: %+v", res.Stats)
	}
	if res.Stats.RollbacksAvoided == 0 {
		t.Errorf("the forward tier must claim the avoided rollback: %+v", res.Stats)
	}
	if !vec.Equal(res.X, base.X, 1e-6) {
		t.Errorf("solution drifted from the fault-free answer")
	}
}
