package fault

// The adversarial fault-model matrix. The paper's campaigns (§6.3) strike
// single high-exponent flips into solver vectors — the easy case, where the
// injected error is many orders of magnitude above the round-off threshold
// τ and lands in state the checksums watch directly. The matrix below spans
// the regimes that actually stress a detector: multi-bit and burst upsets,
// flips whose magnitude sits at or below τ, sign- and mantissa-only
// corruption, and strikes aimed at the ABFT machinery itself (the carried
// checksum state and the checkpoint buffers the recovery path depends on).
//
// A Model crossed with a Magnitude yields a concrete event schedule via
// Model.Events; the detection-accuracy harness (internal/accuracy) runs the
// full (solver × scheme × model × magnitude) grid.

// Model enumerates the adversarial fault models.
type Model int

const (
	// ModelSingle is one flipped bit per strike, in the bit window the
	// magnitude class selects — the baseline the paper's campaigns use.
	ModelSingle Model = iota
	// ModelMultiBit flips several distinct bits of one element at once (a
	// multi-bit upset), so the additive error is not a clean power-of-two
	// multiple of the victim's ULP.
	ModelMultiBit
	// ModelBurst corrupts a run of contiguous elements, one flip each —
	// a corrupted cache line rather than an isolated cell. Multiple
	// simultaneous errors defeat single-error correction by design.
	ModelBurst
	// ModelSign flips only the sign bit: the magnitude of the victim is
	// preserved exactly, so amplitude-based sanity checks see nothing.
	ModelSign
	// ModelMantissa flips a mantissa bit only, leaving sign and exponent
	// intact: the error is strictly smaller than the victim itself.
	ModelMantissa
	// ModelChecksum strikes the carried checksum state of an MVM output
	// instead of the data — the vector is clean, its protection is not.
	ModelChecksum
	// ModelCheckpoint strikes the checkpoint buffer as the snapshot is
	// taken. The corruption is dormant until a later fault triggers a
	// rollback, which restores poisoned state — an attack on the recovery
	// machinery itself. Schedule its event at a checkpoint iteration
	// (a multiple of cd) or it never fires.
	ModelCheckpoint
)

// Models returns every fault model, in display order.
func Models() []Model {
	return []Model{ModelSingle, ModelMultiBit, ModelBurst, ModelSign,
		ModelMantissa, ModelChecksum, ModelCheckpoint}
}

func (m Model) String() string {
	switch m {
	case ModelSingle:
		return "single-flip"
	case ModelMultiBit:
		return "multi-bit"
	case ModelBurst:
		return "burst"
	case ModelSign:
		return "sign"
	case ModelMantissa:
		return "mantissa"
	case ModelChecksum:
		return "checksum-state"
	case ModelCheckpoint:
		return "checkpoint-buffer"
	default:
		return "unknown-model"
	}
}

// AttacksRecovery reports whether the model corrupts recovery state rather
// than live solver state, in which case a campaign must pair it with a
// trigger fault that forces a rollback — on its own the corruption is never
// read.
func (m Model) AttacksRecovery() bool { return m == ModelCheckpoint }

// Magnitude classifies the numerical size of an injected error relative to
// the detection threshold τ. For bit-flip models the class selects the bit
// window the flip is drawn from.
type Magnitude int

const (
	// MagLarge is the easy regime: the error is orders of magnitude above
	// τ (exponent-field flips). Every sound detector must catch these.
	MagLarge Magnitude = iota
	// MagNearTau sits just above the threshold (mid-mantissa flips,
	// relative error roughly 1e-8..1e-4 of the victim): detectable in
	// principle, but competing with the round-off band.
	MagNearTau
	// MagBelowTau sits inside the round-off band (low mantissa bits,
	// relative error below 1e-12): indistinguishable from floating-point
	// noise by any threshold test, and numerically near-harmless — the
	// regime where misses are expected and mostly benign.
	MagBelowTau
)

// Magnitudes returns every magnitude class, in display order.
func Magnitudes() []Magnitude { return []Magnitude{MagLarge, MagNearTau, MagBelowTau} }

func (g Magnitude) String() string {
	switch g {
	case MagLarge:
		return "large"
	case MagNearTau:
		return "near-tau"
	case MagBelowTau:
		return "below-tau"
	default:
		return "unknown-magnitude"
	}
}

// window returns the random-bit window [lo, hi] for this magnitude class.
// mantissaOnly caps the window below the exponent field.
func (g Magnitude) window(mantissaOnly bool) (lo, hi int) {
	switch g {
	case MagNearTau:
		return 28, 40
	case MagBelowTau:
		return 0, 10
	default:
		if mantissaOnly {
			return 44, 51
		}
		return 52, 62
	}
}

// Events builds the event schedule of one strike of model m at magnitude g,
// landing at the given iteration and site. Checksum- and checkpoint-state
// models override the site with their dedicated injection points
// (SiteChecksum rides the arithmetic hook, SiteCheckpoint the memory hook);
// for every other model the strike perturbs the operation output
// (Arithmetic) at a pseudo-random element.
func (m Model) Events(g Magnitude, iter int, site Site) []Event {
	base := Event{Iteration: iter, Site: site, Kind: Arithmetic, Index: -1, BitFlip: true, Bit: -1}
	base.BitLo, base.BitHi = g.window(false)
	if g == MagLarge {
		// Bit 62 guarantees a detectable change for any victim: |v| < 2
		// explodes, |v| ≥ 2 collapses, 0 becomes 2.
		base.Bit, base.BitLo, base.BitHi = 62, 0, 0
	}
	switch m {
	case ModelSingle:
	case ModelMultiBit:
		base.Bits = 3
		if g == MagLarge {
			base.Bit, base.BitLo, base.BitHi = -1, 44, 62
		}
	case ModelBurst:
		base.Count, base.Burst = 4, true
	case ModelSign:
		// The sign flip's error is 2|v| regardless of magnitude class.
		base.Bit, base.BitLo, base.BitHi = 63, 0, 0
	case ModelMantissa:
		base.Bit = -1
		base.BitLo, base.BitHi = g.window(true)
	case ModelChecksum:
		base.Site = SiteChecksum
	case ModelCheckpoint:
		base.Site, base.Kind = SiteCheckpoint, Memory
	}
	return []Event{base}
}
