package trajectory

import (
	"strings"
	"testing"
)

// TestCompareTable drives the comparator over synthetic trajectories:
// improvement, regression just inside and just outside each threshold,
// a metric appearing, and the zero-pinned and exact metrics.
func TestCompareTable(t *testing.T) {
	rules := DefaultRules()
	one := func(name, unit string, v float64) []Bench {
		return []Bench{{Name: name, Value: v, Unit: unit}}
	}
	for _, tc := range []struct {
		name       string
		base, cand []Bench
		status     Status
		failed     bool
	}{
		// allocs/op: ±25% + 16.
		{"allocs/op just inside", one("B", "allocs/op", 100), one("B", "allocs/op", 141), StatusOK, false},
		{"allocs/op just outside", one("B", "allocs/op", 100), one("B", "allocs/op", 142), StatusRegressed, true},
		{"allocs/op improvement", one("B", "allocs/op", 100), one("B", "allocs/op", 60), StatusImproved, false},

		// Zero-pinned: a committed 0 allocs/op is exact, tolerances or not.
		{"pinned zero allocs stays zero", one("B", "allocs/op", 0), one("B", "allocs/op", 0), StatusOK, false},
		{"pinned zero allocs broken by 1", one("B", "allocs/op", 0), one("B", "allocs/op", 1), StatusRegressed, true},
		{"pinned zero B/op broken inside abs tolerance", one("B", "B/op", 0), one("B", "B/op", 64), StatusRegressed, true},

		// Zero-class invariants: baseline value is irrelevant.
		{"sdc-rate must stay zero", one("B", "sdc-rate", 0), one("B", "sdc-rate", 2), StatusRegressed, true},
		{"sdc-rate zero ok", one("B", "sdc-rate", 0), one("B", "sdc-rate", 0), StatusOK, false},

		// Exact class: any drift in either direction fails.
		{"iters drift up", one("B", "iters", 163), one("B", "iters", 164), StatusRegressed, true},
		{"iters drift down", one("B", "iters", 163), one("B", "iters", 162), StatusRegressed, true},
		{"iters identical", one("B", "iters", 163), one("B", "iters", 163), StatusOK, false},

		// Deterministic counters: zero tolerance, improvement allowed.
		{"wasted-iters any increase fails", one("B", "wasted-iters", 130), one("B", "wasted-iters", 131), StatusRegressed, true},
		{"wasted-iters decrease improves", one("B", "wasted-iters", 130), one("B", "wasted-iters", 90), StatusImproved, false},
		{"detect-%% any drop fails", one("B", "detect-%", 100), one("B", "detect-%", 99), StatusRegressed, true},

		// New metric: recorded, never failed.
		{"new benchmark recorded not failed", nil, one("B", "allocs/op", 5), StatusNew, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := Compare(tc.base, tc.cand, rules)
			if len(rep.Deltas) != 1 {
				t.Fatalf("got %d deltas, want 1: %+v", len(rep.Deltas), rep.Deltas)
			}
			if rep.Deltas[0].Status != tc.status {
				t.Errorf("status = %s, want %s (%+v)", rep.Deltas[0].Status, tc.status, rep.Deltas[0])
			}
			if rep.Failed() != tc.failed {
				t.Errorf("Failed() = %v, want %v", rep.Failed(), tc.failed)
			}
		})
	}
}

// TestCompareVanished: a baseline metric disappearing fails the gate with
// a diagnostic naming the metric — a silently dropped benchmark is itself
// a regression.
func TestCompareVanished(t *testing.T) {
	base := []Bench{
		{Name: "BenchmarkKept", Value: 1, Unit: "allocs/op"},
		{Name: "BenchmarkDropped", Value: 2, Unit: "wasted-iters"},
	}
	cand := []Bench{{Name: "BenchmarkKept", Value: 1, Unit: "allocs/op"}}
	rep := Compare(base, cand, DefaultRules())
	if !rep.Failed() {
		t.Fatal("vanished metric did not fail the gate")
	}
	fs := rep.Failures()
	if len(fs) != 1 || fs[0].Status != StatusVanished {
		t.Fatalf("failures = %+v, want one vanished", fs)
	}
	if !strings.Contains(fs[0].Reason, "BenchmarkDropped") || !strings.Contains(fs[0].Reason, "wasted-iters") {
		t.Errorf("diagnostic does not name the metric: %q", fs[0].Reason)
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "VANISHED") || !strings.Contains(sb.String(), "BenchmarkDropped") {
		t.Errorf("report text missing the vanished diagnostic:\n%s", sb.String())
	}
}

// TestCompareSkipsUnitsWithoutARule: a wall-clock or unknown unit is
// compared on neither side — a 10× slower ns/op is not a regression, a
// baseline ns/op or t_r-µs the run no longer carries has not vanished, a
// new one is not reported — while the ruled unit beside it still gates.
func TestCompareSkipsUnitsWithoutARule(t *testing.T) {
	base := []Bench{
		{Name: "B", Value: 1000, Unit: "ns/op"},
		{Name: "B", Value: 100, Unit: "t_r-µs"},
		{Name: "B", Value: 0, Unit: "allocs/op"},
	}
	cand := []Bench{
		{Name: "B", Value: 10000, Unit: "ns/op"},
		{Name: "B", Value: 50, Unit: "jobs/s"},
		{Name: "B", Value: 0, Unit: "allocs/op"},
	}
	rep := Compare(base, cand, DefaultRules())
	if len(rep.Deltas) != 1 || rep.Deltas[0].Unit != "allocs/op" || rep.Deltas[0].Status != StatusOK {
		t.Fatalf("deltas = %+v, want the allocs/op pin alone, ok", rep.Deltas)
	}
	cand[2].Value = 1
	if rep := Compare(base, cand, DefaultRules()); !rep.Failed() {
		t.Fatal("broken allocs/op pin passed beside unruled units")
	}
}

// TestCompareSameNameDifferentUnit: metrics are keyed by (name, unit); the
// units of one benchmark line compare independently.
func TestCompareSameNameDifferentUnit(t *testing.T) {
	base := []Bench{
		{Name: "B", Value: 1000, Unit: "B/op"},
		{Name: "B", Value: 0, Unit: "allocs/op"},
	}
	cand := []Bench{
		{Name: "B", Value: 900, Unit: "B/op"},
		{Name: "B", Value: 3, Unit: "allocs/op"},
	}
	rep := Compare(base, cand, DefaultRules())
	fs := rep.Failures()
	if len(fs) != 1 || fs[0].Unit != "allocs/op" {
		t.Fatalf("failures = %+v, want exactly the allocs/op pin break", fs)
	}
}

// TestCompareDuplicateCandidate: a metric repeated within one run compares
// once (first occurrence wins) instead of double-counting.
func TestCompareDuplicateCandidate(t *testing.T) {
	base := []Bench{{Name: "B", Value: 10, Unit: "wasted-iters"}}
	cand := []Bench{
		{Name: "B", Value: 10, Unit: "wasted-iters"},
		{Name: "B", Value: 99, Unit: "wasted-iters"},
	}
	rep := Compare(base, cand, DefaultRules())
	if len(rep.Deltas) != 1 || rep.Failed() {
		t.Fatalf("duplicate metric mishandled: %+v", rep.Deltas)
	}
}

// TestCompareDeterministic: identical inputs give identical reports, in
// order — the comparator itself obeys the determinism invariant.
func TestCompareDeterministic(t *testing.T) {
	base := []Bench{
		{Name: "A", Value: 1, Unit: "allocs/op"},
		{Name: "C", Value: 3, Unit: "wasted-iters"},
		{Name: "D", Value: 0, Unit: "sdc-rate"},
	}
	cand := []Bench{
		{Name: "A", Value: 2, Unit: "allocs/op"},
		{Name: "B", Value: 9, Unit: "latency-iters"},
		{Name: "D", Value: 0, Unit: "sdc-rate"},
	}
	var first string
	for i := 0; i < 5; i++ {
		var sb strings.Builder
		rep := Compare(base, cand, DefaultRules())
		if err := rep.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("report %d differs:\n%s\nvs\n%s", i, sb.String(), first)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusOK: "ok", StatusImproved: "improved", StatusRegressed: "REGRESSED",
		StatusNew: "new", StatusVanished: "VANISHED",
		Status(99): "unknown-status",
	} {
		if s.String() != want {
			t.Errorf("Status(%d) = %q, want %q", s, s.String(), want)
		}
	}
}
