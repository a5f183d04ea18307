package fault

import (
	"testing"
)

// TestNilInjectorAllocs pins the instrumentation contract: a nil injector
// on the hot path costs no allocation.
func TestNilInjectorAllocs(t *testing.T) {
	var in *Injector
	v := make([]float64, 4000)
	if n := testing.AllocsPerRun(100, func() {
		in.InjectOutput(1, SiteMVM, v)
	}); n != 0 {
		t.Fatalf("nil InjectOutput: %v allocations per call, want 0", n)
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var in *Injector
	v := []float64{1, 2, 3}
	if in.InjectOutput(0, SiteMVM, v) != 0 {
		t.Fatalf("nil injector injected")
	}
	if in.InjectMemory(0, SiteVLO, v) != 0 {
		t.Fatalf("nil injector injected")
	}
	if in.CacheWindow(0, SitePCO, v) != nil {
		t.Fatalf("nil injector opened a window")
	}
	if in.Pending() {
		t.Fatalf("nil injector pending")
	}
	in.Reset() // must not panic
}

func TestArithmeticInjectionOneShot(t *testing.T) {
	in := NewInjector([]Event{
		{Iteration: 3, Site: SiteMVM, Kind: Arithmetic, Index: 1, Magnitude: 10},
	}, 1)
	v := []float64{0, 0, 0}
	if got := in.InjectOutput(2, SiteMVM, v); got != 0 {
		t.Fatalf("fired at wrong iteration")
	}
	if got := in.InjectOutput(3, SiteVLO, v); got != 0 {
		t.Fatalf("fired at wrong site")
	}
	if got := in.InjectOutput(3, SiteMVM, v); got != 1 {
		t.Fatalf("did not fire")
	}
	if v[1] != 10 {
		t.Fatalf("wrong element or magnitude: %v", v)
	}
	// One-shot: re-executing iteration 3 does not re-fire.
	if got := in.InjectOutput(3, SiteMVM, v); got != 0 {
		t.Fatalf("one-shot event re-fired")
	}
	if in.Pending() {
		t.Fatalf("event still pending after firing")
	}
	if len(in.Injected) != 1 {
		t.Fatalf("record count: %d", len(in.Injected))
	}
	if in.Injected[0].String() == "" {
		t.Fatalf("empty record description")
	}
}

func TestRefire(t *testing.T) {
	in := NewInjector([]Event{
		{Iteration: 0, Site: SiteMVM, Kind: Arithmetic, Index: 0, Magnitude: 1},
	}, 1)
	in.Refire = true
	v := []float64{0}
	in.InjectOutput(0, SiteMVM, v)
	in.InjectOutput(0, SiteMVM, v)
	if v[0] != 2 {
		t.Fatalf("refire should strike twice: %v", v)
	}
}

func TestDefaultMagnitudeIsSignificant(t *testing.T) {
	in := NewInjector([]Event{
		{Iteration: 0, Site: SiteMVM, Kind: Arithmetic, Index: 0},
	}, 1)
	v := []float64{2}
	in.InjectOutput(0, SiteMVM, v)
	// Default: 1e4·(1+|v|) added.
	if v[0] < 1e4 {
		t.Fatalf("default magnitude too small: %v", v[0])
	}
}

func TestMultiCount(t *testing.T) {
	in := NewInjector([]Event{
		{Iteration: 0, Site: SiteMVM, Kind: Arithmetic, Index: -1, Count: 3, Magnitude: 5},
	}, 7)
	v := make([]float64, 100)
	if got := in.InjectOutput(0, SiteMVM, v); got != 3 {
		t.Fatalf("count: %d", got)
	}
	if len(in.Injected) != 3 {
		t.Fatalf("records: %d", len(in.Injected))
	}
}

func TestMemoryInjectionPersists(t *testing.T) {
	in := NewInjector([]Event{
		{Iteration: 1, Site: SitePCO, Kind: Memory, Index: 2, Magnitude: -4},
	}, 1)
	v := []float64{1, 1, 1}
	if got := in.InjectMemory(1, SitePCO, v); got != 1 {
		t.Fatalf("memory event missed")
	}
	if v[2] != -3 {
		t.Fatalf("memory corruption wrong: %v", v)
	}
}

func TestCacheWindowRestores(t *testing.T) {
	in := NewInjector([]Event{
		{Iteration: 0, Site: SiteMVM, Kind: CacheRegister, Index: 1, Magnitude: 100},
	}, 1)
	v := []float64{1, 2, 3}
	restore := in.CacheWindow(0, SiteMVM, v)
	if restore == nil {
		t.Fatalf("window did not open")
	}
	if v[1] != 102 {
		t.Fatalf("cached value not corrupted: %v", v)
	}
	restore()
	if v[1] != 2 {
		t.Fatalf("restore failed: %v", v)
	}
	if in.CacheWindow(0, SiteMVM, v) != nil {
		t.Fatalf("one-shot cache event re-opened")
	}
}

func TestReset(t *testing.T) {
	in := NewInjector([]Event{
		{Iteration: 0, Site: SiteMVM, Kind: Arithmetic, Index: 0, Magnitude: 1},
	}, 1)
	v := []float64{0}
	in.InjectOutput(0, SiteMVM, v)
	in.Reset()
	if !in.Pending() {
		t.Fatalf("Reset should re-arm events")
	}
	if len(in.Injected) != 0 {
		t.Fatalf("Reset should clear the log")
	}
	in.InjectOutput(0, SiteMVM, v)
	if v[0] != 2 {
		t.Fatalf("re-armed event did not fire")
	}
}

func TestKindSiteStrings(t *testing.T) {
	if Arithmetic.String() != "arithmetic" || Memory.String() != "memory" ||
		CacheRegister.String() != "cache-register" || Kind(9).String() != "unknown-kind" {
		t.Fatalf("Kind.String broken")
	}
	if SiteMVM.String() != "MVM" || SiteVLO.String() != "VLO" ||
		SitePCO.String() != "PCO" || Site(9).String() != "unknown-site" {
		t.Fatalf("Site.String broken")
	}
}

func TestScenario1(t *testing.T) {
	ev := Scenario1(100, 42)
	if len(ev) != 1 {
		t.Fatalf("scenario 1: %d events", len(ev))
	}
	if ev[0].Iteration < 0 || ev[0].Iteration >= 100 {
		t.Fatalf("iteration out of range: %d", ev[0].Iteration)
	}
	if ev[0].Site != SiteMVM || ev[0].Kind != Arithmetic {
		t.Fatalf("wrong site/kind")
	}
	// Deterministic for a fixed seed.
	ev2 := Scenario1(100, 42)
	if ev2[0].Iteration != ev[0].Iteration {
		t.Fatalf("not deterministic")
	}
}

func TestScenario2CoversEveryInterval(t *testing.T) {
	const iters, cd = 100, 12
	ev := Scenario2(iters, cd, 7)
	want := (iters + cd - 1) / cd
	if len(ev) != want {
		t.Fatalf("scenario 2: %d events, want %d", len(ev), want)
	}
	for k, e := range ev {
		lo := k * cd
		hi := lo + cd
		if hi > iters {
			hi = iters
		}
		if e.Iteration < lo || e.Iteration >= hi {
			t.Fatalf("event %d at %d outside [%d,%d)", k, e.Iteration, lo, hi)
		}
	}
}

func TestScenario3EveryIteration(t *testing.T) {
	ev := Scenario3(10)
	if len(ev) != 10 {
		t.Fatalf("scenario 3: %d events", len(ev))
	}
	for i, e := range ev {
		if e.Iteration != i {
			t.Fatalf("event %d at iteration %d", i, e.Iteration)
		}
	}
}

func TestMultiErrorDistinctIntervals(t *testing.T) {
	const k, cd, iters = 4, 10, 100
	ev := MultiError(k, cd, iters, true, 3)
	if len(ev) != k+1 {
		t.Fatalf("events: %d, want %d (+VLO)", len(ev), k+1)
	}
	intervals := map[int]bool{}
	vlo := 0
	for _, e := range ev {
		if e.Site == SiteVLO {
			vlo++
			continue
		}
		iv := e.Iteration / cd
		if intervals[iv] {
			t.Fatalf("two MVM errors share interval %d", iv)
		}
		intervals[iv] = true
	}
	if vlo != 1 {
		t.Fatalf("VLO events: %d", vlo)
	}
	// Without VLO.
	ev2 := MultiError(2, cd, iters, false, 3)
	if len(ev2) != 2 {
		t.Fatalf("events without VLO: %d", len(ev2))
	}
	// k capped at available intervals.
	ev3 := MultiError(50, cd, 30, false, 3)
	if len(ev3) != 3 {
		t.Fatalf("k should cap at %d intervals, got %d", 3, len(ev3))
	}
}

func TestBitFlipInjection(t *testing.T) {
	in := NewInjector([]Event{
		{Iteration: 0, Site: SiteMVM, Kind: Memory, Index: 0, BitFlip: true, Bit: 52}, // exponent LSB: doubles or halves
	}, 1)
	v := []float64{3.0}
	if got := in.InjectMemory(0, SiteMVM, v); got != 1 {
		t.Fatalf("bit flip did not fire")
	}
	if v[0] != 6.0 && v[0] != 1.5 {
		t.Fatalf("exponent-bit flip of 3.0 gave %v, want 6.0 or 1.5", v[0])
	}
	if in.Injected[0].Added == 0 {
		t.Fatalf("record should carry the additive equivalent")
	}
}

func TestBitFlipRandomBitIsSignificant(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := NewInjector([]Event{
			{Iteration: 0, Site: SiteVLO, Kind: Arithmetic, Index: 0, BitFlip: true, Bit: -1},
		}, seed)
		v := []float64{1.2345}
		in.InjectOutput(0, SiteVLO, v)
		rel := (v[0] - 1.2345) / 1.2345
		if rel < 0 {
			rel = -rel
		}
		if rel < 1e-6 {
			t.Fatalf("seed %d: random bit flip negligibly small (%v)", seed, rel)
		}
	}
}

// Property: every scenario generator emits events strictly inside the run.
func TestScenarioEventsInBoundsProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		iters := 10 + int(seed*13)%400
		cd := 1 + int(seed)%20
		check := func(name string, evs []Event, bound int) {
			for _, e := range evs {
				if e.Iteration < 0 || e.Iteration >= bound {
					t.Fatalf("%s seed %d: iteration %d outside [0,%d)", name, seed, e.Iteration, bound)
				}
			}
		}
		check("scenario1", Scenario1(iters, seed), iters)
		check("scenario2", Scenario2(iters, cd, seed), iters)
		check("scenario3", Scenario3(iters), iters)
		check("multierror", MultiError(4, cd, iters, true, seed), iters)
	}
}
