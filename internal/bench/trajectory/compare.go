package trajectory

import (
	"fmt"
	"io"
	"math"
)

// Class is a unit's regression semantics.
type Class int

const (
	// LowerIsBetter fails when the value rises past the tolerance
	// (B/op, allocs/op, wasted-iters, latency-iters, stored-bytes).
	LowerIsBetter Class = iota
	// HigherIsBetter fails when the value falls past the tolerance
	// (detect-%).
	HigherIsBetter
	// Exact fails on any drift in either direction — reserved for
	// metrics that are pure deterministic functions of the code and the
	// committed seed (iterations saved, repairs): a change means the
	// behaviour changed, which must be an explicit re-baseline.
	Exact
	// Zero fails unless the value is exactly 0 regardless of baseline —
	// the invariant class (SDC rate, SDC suspects, failed jobs).
	Zero
)

// Rule is the regression policy for one unit.
type Rule struct {
	Class Class
	// RelTol is the allowed fractional worsening and AbsTol an absolute
	// slack on top; a candidate regresses only past base ± (base·RelTol
	// + AbsTol). Both zero means any worsening fails.
	RelTol float64
	AbsTol float64
	// PinZero pins a zero baseline: once a benchmark commits 0 for this
	// unit (0 allocs/op on the protected iteration path), any nonzero
	// candidate fails even inside the tolerances.
	PinZero bool
}

// RuleSet maps units to rules. A unit without a rule is neither compared
// nor recorded: wall times (ns/op, MB/s, jobs/s, the bench suite's µs and
// overhead-% metrics) belong to benchmark/, which takes them with a clock
// that resolves them; name a rule to gate a new deterministic unit.
type RuleSet struct {
	ByUnit map[string]Rule
}

// DefaultRules is the repo's standing policy, documented in
// docs/benchmarks.md.
func DefaultRules() RuleSet {
	return RuleSet{
		ByUnit: map[string]Rule{
			// go-bench memory units.
			"B/op": {Class: LowerIsBetter, RelTol: 0.25, AbsTol: 4096, PinZero: true},
			"allocs/op": {Class: LowerIsBetter, RelTol: 0.25, AbsTol: 16,
				PinZero: true},
			// Deterministic custom units: bitwise-reproducible at the
			// committed seed (docs/kernels.md), so zero tolerance.
			"sdc-rate":      {Class: Zero},
			"sdc-suspects":  {Class: Zero},
			"failed-jobs":   {Class: Zero},
			"wasted-iters":  {Class: LowerIsBetter},
			"latency-iters": {Class: LowerIsBetter},
			"detect-%":      {Class: HigherIsBetter},
			"iters":         {Class: Exact},
			"repairs":       {Class: Exact},
			"mismatches":    {Class: Zero},
			// Checkpoint-codec sweep units: deterministic at the committed
			// seed. A codec may store fewer bytes or recover in fewer
			// iterations, never more; an aborted trial fails outright.
			"stored-bytes": {Class: LowerIsBetter},
			"extra-iters":  {Class: LowerIsBetter},
			"aborted":      {Class: Zero},
		},
	}
}

// Status classifies one metric's comparison.
type Status int

const (
	// StatusOK: within tolerance.
	StatusOK Status = iota
	// StatusImproved: moved in the better direction.
	StatusImproved
	// StatusRegressed: past the rule's threshold — fails the gate.
	StatusRegressed
	// StatusNew: present in the run but not the baseline — recorded,
	// never failed (new benchmarks enter the trajectory freely).
	StatusNew
	// StatusVanished: present in the baseline but missing from the run —
	// fails the gate with a named diagnostic (a silently dropped
	// benchmark is itself a regression of the measurement backbone).
	StatusVanished
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusImproved:
		return "improved"
	case StatusRegressed:
		return "REGRESSED"
	case StatusNew:
		return "new"
	case StatusVanished:
		return "VANISHED"
	default:
		return "unknown-status"
	}
}

// Delta is one metric's comparison against the baseline.
type Delta struct {
	Name   string
	Unit   string
	Base   float64
	New    float64
	Status Status
	Reason string
}

// Report is a full comparison: one delta per candidate metric, in run
// order, followed by one per vanished baseline metric, in baseline order.
type Report struct {
	Deltas []Delta
}

// Failures returns the gate-failing deltas (regressed and vanished).
func (r Report) Failures() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Status == StatusRegressed || d.Status == StatusVanished {
			out = append(out, d)
		}
	}
	return out
}

// Failed reports whether the gate fires.
func (r Report) Failed() bool { return len(r.Failures()) > 0 }

// Compare diffs a candidate run against a baseline record's benches,
// metric by metric, skipping on both sides every unit rs has no rule for
// (older records carry wall-clock units; they neither compare nor
// vanish). Deterministic: same inputs, same report.
func Compare(base, cand []Bench, rs RuleSet) Report {
	var rep Report
	type key struct{ name, unit string }
	baseline := make(map[key]Bench, len(base))
	for _, b := range base {
		baseline[key{b.Name, b.Unit}] = b
	}
	seen := make(map[key]bool, len(cand))
	for _, c := range cand {
		rule, ok := rs.ByUnit[c.Unit]
		k := key{c.Name, c.Unit}
		if !ok || seen[k] {
			continue // no rule, or a duplicate metric in the run: first wins
		}
		seen[k] = true
		b, ok := baseline[k]
		if !ok {
			rep.Deltas = append(rep.Deltas, Delta{
				Name: c.Name, Unit: c.Unit, New: c.Value,
				Status: StatusNew, Reason: "not in baseline; recorded",
			})
			continue
		}
		rep.Deltas = append(rep.Deltas, evaluate(b, c, rule))
	}
	for _, b := range base {
		k := key{b.Name, b.Unit}
		if _, ok := rs.ByUnit[b.Unit]; ok && !seen[k] {
			rep.Deltas = append(rep.Deltas, Delta{
				Name: b.Name, Unit: b.Unit, Base: b.Value,
				Status: StatusVanished,
				Reason: fmt.Sprintf("baseline metric %s [%s] missing from this run", b.Name, b.Unit),
			})
		}
	}
	return rep
}

// isZeroBits reports exact floating-point zero (either sign) without a
// float equality comparison.
func isZeroBits(v float64) bool {
	b := math.Float64bits(v)
	return b == 0 || b == 1<<63
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func evaluate(base, cand Bench, rule Rule) Delta {
	d := Delta{Name: cand.Name, Unit: cand.Unit, Base: base.Value, New: cand.Value}
	fail := func(reason string) Delta {
		d.Status = StatusRegressed
		d.Reason = reason
		return d
	}
	switch rule.Class {
	case Zero:
		if !isZeroBits(cand.Value) {
			return fail(fmt.Sprintf("%s must stay 0, got %g", cand.Unit, cand.Value))
		}
		d.Status = StatusOK
		return d
	case Exact:
		if !sameBits(base.Value, cand.Value) {
			return fail(fmt.Sprintf("exact metric drifted: %g -> %g", base.Value, cand.Value))
		}
		d.Status = StatusOK
		return d
	}
	// PinZero overrides tolerances before anything else: a committed 0
	// is a contract, not a sample.
	if rule.PinZero && isZeroBits(base.Value) && !isZeroBits(cand.Value) {
		return fail(fmt.Sprintf("pinned at 0 %s in baseline, got %g", cand.Unit, cand.Value))
	}
	limit := math.Abs(base.Value)*rule.RelTol + rule.AbsTol
	switch rule.Class {
	case LowerIsBetter:
		if cand.Value > base.Value+limit {
			return fail(fmt.Sprintf("%g -> %g exceeds +%g", base.Value, cand.Value, limit))
		}
		if cand.Value < base.Value {
			d.Status = StatusImproved
			return d
		}
	case HigherIsBetter:
		if cand.Value < base.Value-limit {
			return fail(fmt.Sprintf("%g -> %g exceeds -%g", base.Value, cand.Value, limit))
		}
		if cand.Value > base.Value {
			d.Status = StatusImproved
			return d
		}
	}
	d.Status = StatusOK
	return d
}

// WriteText renders the report: failures first (the gate's diagnostics),
// then new metrics, then a one-line summary.
func (r Report) WriteText(w io.Writer) error {
	var counts [StatusVanished + 1]int
	for _, d := range r.Deltas {
		counts[d.Status]++
	}
	werr := func(err error) error {
		if err != nil {
			return fmt.Errorf("trajectory: write report: %w", err)
		}
		return nil
	}
	for _, d := range r.Deltas {
		if d.Status == StatusRegressed || d.Status == StatusVanished {
			if _, err := fmt.Fprintf(w, "%s: %s [%s]: %s\n", d.Status, d.Name, d.Unit, d.Reason); err != nil {
				return werr(err)
			}
		}
	}
	for _, d := range r.Deltas {
		if d.Status == StatusNew {
			if _, err := fmt.Fprintf(w, "%s: %s [%s]: %s\n", d.Status, d.Name, d.Unit, d.Reason); err != nil {
				return werr(err)
			}
		}
	}
	_, err := fmt.Fprintf(w, "compared %d metrics: %d ok, %d improved, %d new, %d regressed, %d vanished\n",
		len(r.Deltas), counts[StatusOK], counts[StatusImproved],
		counts[StatusNew], counts[StatusRegressed], counts[StatusVanished])
	return werr(err)
}
