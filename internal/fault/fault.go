// Package fault implements the soft-error injector driving the paper's
// empirical evaluation (§6.3): errors are modeled as additive contributions
// to elements of matrices and vectors ("we simulate an arithmetic or storage
// error by significantly increasing the value of a random element"), struck
// at scheduled iterations inside scheduled operations.
//
// Three error kinds map to §3's error model:
//
//   - Arithmetic: the output of an operation is perturbed after it executes
//     (an ALU fault during the computation).
//   - Memory: a stored vector is perturbed before the operation consumes it
//     (a DRAM bit flip); the corruption persists.
//   - CacheRegister: the operation consumes a transiently corrupted value
//     while memory retains the correct one (a cache/register bit flip); the
//     corruption is visible only inside a bracketed window. This is the case
//     that defeats the traditional checksum (§2 "Dealing with cache errors").
package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind classifies an injected error per the paper's §3 error model.
type Kind int

const (
	// Arithmetic perturbs an operation's output.
	Arithmetic Kind = iota
	// Memory perturbs a stored vector before an operation reads it.
	Memory
	// CacheRegister perturbs the value an operation consumes while leaving
	// the stored vector intact.
	CacheRegister
)

func (k Kind) String() string {
	switch k {
	case Arithmetic:
		return "arithmetic"
	case Memory:
		return "memory"
	case CacheRegister:
		return "cache-register"
	default:
		return "unknown-kind"
	}
}

// Site identifies the operation class an error strikes.
type Site int

const (
	// SiteMVM strikes the matrix-vector multiplication.
	SiteMVM Site = iota
	// SiteVLO strikes a vector linear operation.
	SiteVLO
	// SitePCO strikes the preconditioner solve.
	SitePCO
	// SiteChecksum strikes the carried checksum state of an operation's
	// output instead of the data — an attack on the ABFT machinery itself.
	// The data stays clean; the carried relationship breaks.
	SiteChecksum
	// SiteCheckpoint strikes the checkpoint buffer at snapshot time. The
	// corruption is dormant until a rollback restores it, which is exactly
	// what makes it adversarial: it lands in the recovery path.
	SiteCheckpoint
)

func (s Site) String() string {
	switch s {
	case SiteMVM:
		return "MVM"
	case SiteVLO:
		return "VLO"
	case SitePCO:
		return "PCO"
	case SiteChecksum:
		return "checksum"
	case SiteCheckpoint:
		return "checkpoint"
	default:
		return "unknown-site"
	}
}

// Event schedules one injection.
type Event struct {
	// Iteration is the zero-based solver iteration at which to strike.
	Iteration int
	// Site selects which operation of that iteration is hit.
	Site Site
	// Kind selects the error model.
	Kind Kind
	// Index is the element to corrupt; -1 picks pseudo-randomly.
	Index int
	// Magnitude is the additive error e; 0 selects a default "significant"
	// perturbation scaled to the victim's value. Ignored when BitFlip is
	// set.
	Magnitude float64
	// BitFlip, when set, flips bits of the victim's IEEE-754
	// representation instead of adding Magnitude — the literal "bit flip"
	// of the paper's §3 error model. Bit selects which of the 64 bits
	// (0 = least significant mantissa bit, 62 = top exponent bit, 63 =
	// sign); -1 picks pseudo-randomly inside the [BitLo, BitHi] window.
	BitFlip bool
	// Bit is the bit index for BitFlip events; -1 means random within the
	// window.
	Bit int
	// Bits is the number of distinct bits to flip per struck element
	// (default 1). Bits > 1 is the multi-bit-upset model: a single word
	// takes several flips at once, so the additive error is not a power of
	// two times the victim's ULP.
	Bits int
	// BitLo, BitHi bound (inclusive) the random bit window used when Bit
	// is -1. Both zero selects the legacy numerically-significant window
	// [44, 61] (high mantissa and exponent bits).
	BitLo, BitHi int
	// Count is the number of distinct elements to corrupt (default 1).
	// Count > 1 produces the multiple-error case the triple-checksum
	// cannot correct.
	Count int
	// Burst makes the Count corrupted elements contiguous (wrapping at the
	// vector end) starting from the base index, modelling a corrupted
	// cache line rather than independent strikes.
	Burst bool
}

// Record describes an injection that actually fired.
type Record struct {
	Iteration int
	Site      Site
	Kind      Kind
	Index     int
	Added     float64
}

func (r Record) String() string {
	return fmt.Sprintf("iter %d %s %s elem %d += %g", r.Iteration, r.Site, r.Kind, r.Index, r.Added)
}

// Injector applies scheduled events to vectors as instrumented solvers
// execute. A nil *Injector is valid and injects nothing, so unprotected
// paths need no special-casing.
type Injector struct {
	events []Event
	rng    *rand.Rand
	// Injected records every fault that fired, for assertions in tests and
	// reports in the benchmark harness.
	Injected []Record
	// fired tracks one-shot consumption of each event per rollback-free
	// pass; events re-fire after a rollback revisits their iteration only
	// if Refire is set.
	fired map[int]bool
	// Refire controls whether an event strikes again when a rollback
	// causes its iteration to re-execute. The paper's experiments measure
	// recovery from a fixed set of strikes, so the default is false.
	Refire bool
}

// NewInjector builds an injector for the given events with a deterministic
// random stream for index selection.
func NewInjector(events []Event, seed int64) *Injector {
	return &Injector{
		events: events,
		rng:    rand.New(rand.NewSource(seed)),
		fired:  make(map[int]bool),
	}
}

// matches collects the indices of un-fired events for (iter, site, kind).
func (in *Injector) matches(iter int, site Site, kind Kind) []int {
	if in == nil {
		return nil
	}
	var out []int
	for idx, e := range in.events {
		if e.Iteration == iter && e.Site == site && e.Kind == kind && (in.Refire || !in.fired[idx]) {
			out = append(out, idx)
		}
	}
	return out
}

// flipMask builds the XOR mask for one struck element: Bits distinct bit
// positions, taken from the explicit Bit when set and otherwise drawn from
// the [BitLo, BitHi] window (default: the numerically significant
// high-mantissa/exponent window [44, 61]).
func (in *Injector) flipMask(e Event) uint64 {
	lo, hi := e.BitLo, e.BitHi
	if lo == 0 && hi == 0 {
		lo, hi = 44, 61
	}
	if lo < 0 {
		lo = 0
	}
	if hi > 63 {
		hi = 63
	}
	if lo > hi {
		lo = hi
	}
	nbits := e.Bits
	if nbits < 1 {
		nbits = 1
	}
	var mask uint64
	if e.Bit >= 0 && e.Bit <= 63 {
		mask = 1 << uint(e.Bit)
		nbits--
	}
	if span := hi - lo + 1; nbits > span {
		nbits = span
	}
	for nbits > 0 {
		b := lo + in.rng.Intn(hi-lo+1)
		if mask&(1<<uint(b)) == 0 {
			mask |= 1 << uint(b)
			nbits--
		}
	}
	return mask
}

// perturb corrupts count elements of v for event e and logs the records.
func (in *Injector) perturb(e Event, iter int, v []float64) {
	count := e.Count
	if count < 1 {
		count = 1
	}
	if count > len(v) {
		count = len(v)
	}
	base := e.Index
	if base < 0 || base >= len(v) {
		base = in.rng.Intn(len(v))
	}
	for c := 0; c < count; c++ {
		idx := base
		if c > 0 {
			if e.Burst {
				idx = (base + c) % len(v)
			} else {
				idx = in.rng.Intn(len(v))
			}
		}
		var added float64
		if e.BitFlip {
			old := v[idx]
			v[idx] = math.Float64frombits(math.Float64bits(old) ^ in.flipMask(e))
			added = v[idx] - old
		} else {
			added = e.Magnitude
			if added == 0 {
				// "Significantly increasing the value": several orders of
				// magnitude above the element scale.
				added = 1e4 * (1 + math.Abs(v[idx]))
			}
			v[idx] += added
		}
		in.Injected = append(in.Injected, Record{
			Iteration: iter, Site: e.Site, Kind: e.Kind, Index: idx, Added: added,
		})
	}
}

// InjectOutput applies pending Arithmetic events for (iter, site) to the
// operation output y and returns the number of corrupted elements.
func (in *Injector) InjectOutput(iter int, site Site, y []float64) int {
	if in == nil {
		return 0
	}
	n := 0
	for _, idx := range in.matches(iter, site, Arithmetic) {
		in.fired[idx] = true
		e := in.events[idx]
		in.perturb(e, iter, y)
		if e.Count > 1 {
			n += e.Count
		} else {
			n++
		}
	}
	return n
}

// InjectMemory applies pending Memory events for (iter, site) to the stored
// vector v (persistently) and returns the number of corrupted elements.
func (in *Injector) InjectMemory(iter int, site Site, v []float64) int {
	if in == nil {
		return 0
	}
	n := 0
	for _, idx := range in.matches(iter, site, Memory) {
		in.fired[idx] = true
		e := in.events[idx]
		in.perturb(e, iter, v)
		if e.Count > 1 {
			n += e.Count
		} else {
			n++
		}
	}
	return n
}

// CacheWindow applies pending CacheRegister events for (iter, site) to v
// and returns a restore function undoing them, modelling a transiently
// corrupted cached value: computations between CacheWindow and restore see
// the corruption; memory (v after restore) does not. The returned function
// is non-nil only when at least one event fired.
func (in *Injector) CacheWindow(iter int, site Site, v []float64) (restore func()) {
	if in == nil {
		return nil
	}
	type undo struct {
		idx int
		old float64
	}
	var undos []undo
	for _, idx := range in.matches(iter, site, CacheRegister) {
		in.fired[idx] = true
		e := in.events[idx]
		before := len(in.Injected)
		in.perturb(e, iter, v)
		for _, rec := range in.Injected[before:] {
			undos = append(undos, undo{rec.Index, v[rec.Index] - rec.Added})
		}
	}
	if len(undos) == 0 {
		return nil
	}
	return func() {
		for _, u := range undos {
			v[u.idx] = u.old
		}
	}
}

// Reset clears the fired state and the injection log so the same injector
// can drive a fresh run.
func (in *Injector) Reset() {
	if in == nil {
		return
	}
	in.fired = make(map[int]bool)
	in.Injected = in.Injected[:0]
}

// Pending reports whether any events have not yet fired.
func (in *Injector) Pending() bool {
	if in == nil {
		return false
	}
	for idx := range in.events {
		if !in.fired[idx] {
			return true
		}
	}
	return false
}
