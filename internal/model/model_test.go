package model

import (
	"math"
	"testing"
	"testing/quick"
)

func stampedePCG() OpCosts { return Stampede().PCG }

func TestExpectedTimeBasics(t *testing.T) {
	c := stampedePCG()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Zero error rate: base time plus checkpoint overhead only.
	e := ExpectedTime(c, 0, 1000, 10, 1)
	base := 1000 * (c.Iter + c.Update + c.Detect)
	want := base + 100*c.Checkpoint
	if math.Abs(e-want) > 1e-9 {
		t.Fatalf("lambda=0: %v, want %v", e, want)
	}
	// Invalid intervals yield +Inf.
	if !math.IsInf(ExpectedTime(c, 1, 1000, 0, 1), 1) {
		t.Fatalf("cd=0 should be infeasible")
	}
	if !math.IsInf(ExpectedTime(c, 1, 1000, 2, 5), 1) {
		t.Fatalf("cd < d should be infeasible")
	}
}

func TestExpectedTimeIncreasesWithLambda(t *testing.T) {
	c := stampedePCG()
	prev := 0.0
	for i, lam := range []float64{0, 0.1, 1, 10} {
		e := ExpectedTime(c, lam, 1000, 12, 1)
		if i > 0 && e <= prev {
			t.Fatalf("E not increasing in lambda: %v then %v", prev, e)
		}
		prev = e
	}
}

func TestValidateRejectsBadCosts(t *testing.T) {
	if err := (OpCosts{Iter: 0}).Validate(); err == nil {
		t.Fatalf("zero iteration time accepted")
	}
	if err := (OpCosts{Iter: 1, Detect: -1}).Validate(); err == nil {
		t.Fatalf("negative cost accepted")
	}
}

// TestTable5Reproduction pins the paper's Table 5 against the Stampede
// profile: λ=1 optimum at (12,1) for PCG, cd collapsing to 1 at λ=10 and
// growing to the cap at λ=0.01.
func TestTable5Reproduction(t *testing.T) {
	m := Stampede()
	cd, d, _ := Optimize(m.PCG, 1.0, 2000, 1000)
	if d != 1 || cd < 8 || cd > 16 {
		t.Errorf("lambda=1 PCG optimum (%d,%d), paper reports (12,1)", cd, d)
	}
	cd, d, _ = Optimize(m.PCG, 10, 2000, 1000)
	if cd != 1 || d != 1 {
		t.Errorf("lambda=10 PCG optimum (%d,%d), paper reports (1,1)", cd, d)
	}
	cd, _, _ = Optimize(m.PCG, 1e-2, 2000, 1000)
	if cd < 500 {
		t.Errorf("lambda=0.01 PCG optimum cd=%d, paper reports 1000", cd)
	}
	// PBiCGSTAB at λ=1: paper reports (10,1); accept the same ballpark.
	cd, d, _ = Optimize(m.PBiCGSTAB, 1.0, 2000, 1000)
	if d != 1 || cd < 4 || cd > 16 {
		t.Errorf("lambda=1 PBiCGSTAB optimum (%d,%d), paper reports (10,1)", cd, d)
	}
}

// Property: the optimal cd is non-increasing as the error rate grows.
func TestOptimalCDMonotoneProperty(t *testing.T) {
	c := stampedePCG()
	prev := math.MaxInt32
	for _, lam := range []float64{1e-3, 1e-2, 1e-1, 1, 3, 10} {
		cd, _, _ := Optimize(c, lam, 2000, 1000)
		if cd > prev {
			t.Fatalf("cd grew with lambda: %d after %d", cd, prev)
		}
		prev = cd
	}
}

// Property: Optimize returns the grid minimum (spot-check against scan).
func TestOptimizeIsGridMinimum(t *testing.T) {
	c := stampedePCG()
	f := func(raw uint8) bool {
		lam := 0.1 + float64(raw%40)/10
		cd, d, e := Optimize(c, lam, 500, 60)
		for dd := 1; dd <= 60; dd++ {
			for cc := dd; cc <= 60; cc += dd {
				if ExpectedTime(c, lam, 500, cc, dd) < e-1e-12 {
					t.Logf("better point (%d,%d) than (%d,%d)", cc, dd, cd, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSurfaceShape(t *testing.T) {
	pts := Surface(stampedePCG(), 1.0, 2000, 20, 2)
	if len(pts) != 20+10 {
		t.Fatalf("surface points: %d", len(pts))
	}
	for _, p := range pts {
		if p.E <= 0 || math.IsNaN(p.E) {
			t.Fatalf("bad surface value at (%d,%d): %v", p.CD, p.D, p.E)
		}
	}
}

func TestTable4Formulas(t *testing.T) {
	const d, cd = 1, 12
	const c0 = 4.8
	o1, o2, o3 := Table4Costs(Scenario1, d, cd, c0)
	if o1.VDP != 4 || math.Abs(o1.VLO-2.0/12) > 1e-15 {
		t.Errorf("S1 O1: %+v", o1)
	}
	if o2.VDP != 11 {
		t.Errorf("S1 O2: %+v", o2)
	}
	if o3.PCO != 1 || o3.VDP != 2 || o3.VLO != 3 {
		t.Errorf("S1 O3: %+v", o3)
	}

	o1, o2, o3 = Table4Costs(Scenario2, d, cd, c0)
	if o1.MVM != 0.5 || o1.PCO != 0.5 || o1.VDP != 7 {
		t.Errorf("S2 O1: %+v", o1)
	}
	wantVLO := 6*(1+c0)/12 + 1.5
	if math.Abs(o1.VLO-wantVLO) > 1e-12 {
		t.Errorf("S2 O1 VLO: %v want %v", o1.VLO, wantVLO)
	}
	if math.Abs(o3.VDP-(5.0/12+2)) > 1e-12 {
		t.Errorf("S2 O3 VDP: %v", o3.VDP)
	}

	o1, o2, o3 = Table4Costs(Scenario3, d, cd, c0)
	if !o1.Infinite {
		t.Errorf("S3 O1 must be infinite")
	}
	if o2.Infinite || o3.Infinite {
		t.Errorf("S3 O2/O3 must be finite")
	}
	if o3.VDP != 7 {
		t.Errorf("S3 O3: %+v", o3)
	}
}

func TestOpCountSeconds(t *testing.T) {
	ops := OpTimes{MVM: 1, PCO: 2, VDP: 0.1, VLO: 0.01}
	o := OpCount{MVM: 2, PCO: 1, VDP: 10, VLO: 100}
	if got := o.Seconds(ops); math.Abs(got-6) > 1e-12 {
		t.Fatalf("Seconds: %v", got)
	}
	if !math.IsInf(OpCount{Infinite: true}.Seconds(ops), 1) {
		t.Fatalf("infinite op count should convert to +Inf")
	}
}

// TestRankingMatchesPaperConclusions pins the §6.2 conclusions with the
// Stampede op times: S1 basic wins; S3 two-level wins with online MV second.
func TestRankingMatchesPaperConclusions(t *testing.T) {
	ops := Stampede().Ops
	r1 := Ranking(Scenario1, 1, 12, 4.8, ops)
	if r1[0] != "basic" {
		t.Errorf("S1 ranking: %v (paper: basic first)", r1)
	}
	r3 := Ranking(Scenario3, 1, 12, 4.8, ops)
	if r3[0] != "two-level" || r3[1] != "online-MV" {
		t.Errorf("S3 ranking: %v (paper: two-level, then online MV, basic non-terminating)", r3)
	}
	r2 := Ranking(Scenario2, 1, 12, 4.8, ops)
	if r2[0] != "two-level" {
		t.Errorf("S2 ranking: %v (paper: two-level first)", r2)
	}
}

func TestErrorFreeCosts(t *testing.T) {
	o1, o2, o3 := ErrorFreeCosts(1, 12)
	if o1.VDP >= o2.VDP {
		t.Errorf("two-level must carry more update VDPs than basic")
	}
	if o3.PCO != 1 {
		t.Errorf("online MV error-free must duplicate the PCO")
	}
}

func TestBiCGSTABScale(t *testing.T) {
	o := OpCount{MVM: 1, PCO: 2, VDP: 3, VLO: 4}
	s := BiCGSTABScale(o)
	if s.MVM != 2 || s.PCO != 4 || s.VDP != 6 || s.VLO != 8 {
		t.Fatalf("scale: %+v", s)
	}
	inf := BiCGSTABScale(OpCount{Infinite: true})
	if !inf.Infinite {
		t.Fatalf("infinite must stay infinite")
	}
}

func TestMachineProfiles(t *testing.T) {
	ms := Machines()
	if len(ms) != 2 {
		t.Fatalf("machines: %d", len(ms))
	}
	for _, m := range ms {
		if err := m.PCG.Validate(); err != nil {
			t.Errorf("%s PCG: %v", m.Name, err)
		}
		if err := m.PBiCGSTAB.Validate(); err != nil {
			t.Errorf("%s PBiCGSTAB: %v", m.Name, err)
		}
		if m.PBiCGSTAB.Iter <= m.PCG.Iter {
			t.Errorf("%s: PBiCGSTAB iterations should cost more than PCG", m.Name)
		}
	}
	// Tianhe-2 is uniformly faster (paper: similar shape, newer machine).
	s, th := Stampede(), Tianhe2()
	if th.PCG.Iter >= s.PCG.Iter {
		t.Errorf("Tianhe-2 per-iteration time should be below Stampede's")
	}
	if th.Name != "Tianhe-2" || s.Name != "Stampede" {
		t.Errorf("profile names wrong")
	}
}

func TestScenarioString(t *testing.T) {
	if Scenario1.String() == "" || Scenario(99).String() != "unknown scenario" {
		t.Fatalf("Scenario.String broken")
	}
}

// TestYoungScalingMatchesOptimize: Young's classic interval √(2t_c/λ)
// doubles when the rate is quartered. The Eq. (5) grid optimum is a
// different model with different constants, but at low rates it must grow
// the same way.
func TestYoungScalingMatchesOptimize(t *testing.T) {
	c := stampedePCG()
	for _, lam := range []float64{0.08, 0.32} {
		// Eq. (5) scales like 1/√λ only deep in the linear regime and
		// faster once λ·cd·τ is O(1); assert growth between ×2 and ×8.
		cd1, _, _ := Optimize(c, lam, 5000, 2000)
		cd2, _, _ := Optimize(c, lam/4, 5000, 2000)
		if ratio := float64(cd2) / float64(cd1); ratio < 1.4 || ratio > 8 {
			t.Errorf("Eq.(5) scaling at lambda=%v: ratio %v, want in [1.4, 8]", lam, ratio)
		}
	}
}
