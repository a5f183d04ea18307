package fault

import (
	"math"
	"testing"
)

// TestModelStringsRoundTrip: every model has its own display name, so a
// name maps back to exactly one model.
func TestModelStringsRoundTrip(t *testing.T) {
	byName := map[string]Model{}
	for _, m := range Models() {
		if prev, dup := byName[m.String()]; dup {
			t.Fatalf("%v and %v share the name %q", prev, m, m.String())
		}
		byName[m.String()] = m
	}
	if Model(99).String() != "unknown-model" || Magnitude(99).String() != "unknown-magnitude" {
		t.Fatalf("unknown enum strings broken")
	}
	if SiteChecksum.String() != "checksum" || SiteCheckpoint.String() != "checkpoint" {
		t.Fatalf("new site strings broken")
	}
}

func TestAttacksRecovery(t *testing.T) {
	for _, m := range Models() {
		want := m == ModelCheckpoint
		if m.AttacksRecovery() != want {
			t.Fatalf("%v.AttacksRecovery() = %v", m, !want)
		}
	}
}

func TestSignFlipPreservesMagnitude(t *testing.T) {
	evs := ModelSign.Events(MagLarge, 5, SiteMVM)
	in := NewInjector(evs, 1)
	v := []float64{0, 0, 7.5, 0}
	evs[0].Index = 2
	in = NewInjector(evs, 1)
	in.InjectOutput(5, SiteMVM, v)
	if v[2] != -7.5 {
		t.Fatalf("sign flip of 7.5 gave %v", v[2])
	}
}

func TestMantissaFlipSmallerThanVictim(t *testing.T) {
	for _, g := range Magnitudes() {
		for seed := int64(0); seed < 10; seed++ {
			evs := ModelMantissa.Events(g, 0, SiteMVM)
			evs[0].Index = 0
			in := NewInjector(evs, seed)
			v := []float64{1.25}
			in.InjectOutput(0, SiteMVM, v)
			if d := math.Abs(v[0] - 1.25); d >= 1.25 || d == 0 {
				t.Fatalf("%v seed %d: mantissa flip error %v not in (0, |victim|)", g, seed, d)
			}
		}
	}
}

func TestMultiBitFlipsSeveralBits(t *testing.T) {
	evs := ModelMultiBit.Events(MagNearTau, 0, SiteMVM)
	evs[0].Index = 0
	in := NewInjector(evs, 3)
	v := []float64{1.0}
	in.InjectOutput(0, SiteMVM, v)
	diff := math.Float64bits(v[0]) ^ math.Float64bits(1.0)
	if n := popcount(diff); n != 3 {
		t.Fatalf("multi-bit upset flipped %d bits, want 3 (mask %b)", n, diff)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestBurstStrikesContiguousElements(t *testing.T) {
	evs := ModelBurst.Events(MagLarge, 0, SiteMVM)
	evs[0].Index = 6
	in := NewInjector(evs, 1)
	v := make([]float64, 8)
	if got := in.InjectOutput(0, SiteMVM, v); got != 4 {
		t.Fatalf("burst fired %d elements, want 4", got)
	}
	// Indices 6, 7, 0, 1: contiguous with wrap.
	for _, idx := range []int{6, 7, 0, 1} {
		if v[idx] == 0 {
			t.Fatalf("burst missed element %d: %v", idx, v)
		}
	}
	for _, idx := range []int{2, 3, 4, 5} {
		if v[idx] != 0 {
			t.Fatalf("burst leaked onto element %d: %v", idx, v)
		}
	}
}

func TestMagnitudeWindows(t *testing.T) {
	// Near-τ flips of a ~1 victim must land within a few orders of magnitude
	// of τ = 1e-10 in relative terms; below-τ flips must stay under it.
	for seed := int64(0); seed < 20; seed++ {
		near := ModelSingle.Events(MagNearTau, 0, SiteMVM)
		near[0].Index = 0
		in := NewInjector(near, seed)
		v := []float64{1.0}
		in.InjectOutput(0, SiteMVM, v)
		rel := math.Abs(v[0] - 1.0)
		if rel < 1e-11 || rel > 1e-3 {
			t.Fatalf("seed %d: near-τ relative error %v outside [1e-11, 1e-3]", seed, rel)
		}

		below := ModelSingle.Events(MagBelowTau, 0, SiteMVM)
		below[0].Index = 0
		in = NewInjector(below, seed)
		w := []float64{1.0}
		in.InjectOutput(0, SiteMVM, w)
		if rel := math.Abs(w[0] - 1.0); rel > 1e-12 {
			t.Fatalf("seed %d: below-τ relative error %v above round-off band", seed, rel)
		}
	}
}

func TestLargeSingleFlipAlwaysDetectableBit(t *testing.T) {
	evs := ModelSingle.Events(MagLarge, 0, SiteMVM)
	if evs[0].Bit != 62 {
		t.Fatalf("large single flip should pin bit 62, got %d", evs[0].Bit)
	}
	for _, victim := range []float64{0, 1e-300, 0.5, 3.0, 1e200} {
		evs[0].Index = 0
		in := NewInjector(evs, 1)
		v := []float64{victim}
		in.InjectOutput(0, SiteMVM, v)
		if rel := math.Abs(v[0] - victim); rel <= math.Abs(victim)*1e-6 && rel < 1 {
			t.Fatalf("bit-62 flip of %v changed it only by %v", victim, rel)
		}
		in.Reset()
	}
}

func TestChecksumAndCheckpointModelSites(t *testing.T) {
	cs := ModelChecksum.Events(MagLarge, 3, SiteMVM)
	if cs[0].Site != SiteChecksum || cs[0].Kind != Arithmetic {
		t.Fatalf("checksum model: site %v kind %v", cs[0].Site, cs[0].Kind)
	}
	cp := ModelCheckpoint.Events(MagLarge, 10, SiteMVM)
	if cp[0].Site != SiteCheckpoint || cp[0].Kind != Memory {
		t.Fatalf("checkpoint model: site %v kind %v", cp[0].Site, cp[0].Kind)
	}
}

func TestFlipMaskWindowClamping(t *testing.T) {
	in := NewInjector(nil, 1)
	// Degenerate window collapses to a single bit; Bits above the span caps.
	mask := in.flipMask(Event{Bit: -1, BitLo: 5, BitHi: 5, Bits: 4})
	if mask != 1<<5 {
		t.Fatalf("collapsed window mask %b", mask)
	}
	// Explicit Bit plus window bits: all distinct.
	mask = in.flipMask(Event{Bit: 63, BitLo: 1, BitHi: 2, Bits: 3})
	if popcount(mask) != 3 || mask&(1<<63) == 0 {
		t.Fatalf("combined mask %b", mask)
	}
}
