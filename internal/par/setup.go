package par

import (
	"math"
	"slices"
	"sync"

	"newsum/internal/checksum"
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// rankSetup is the collective-free set-up of one rank's block: its ILU(0)
// stages with their schedules, and the stage rows encoded under its shifted
// weights. They depend on the block alone, so they are built once per
// operator and shared read-only by every later solve on it; set-up's
// collectives (the failure flag, checksum(A)'s rows, the two-level
// locating rows) still run on every solve.
type rankSetup struct {
	stages []precond.Stage
	encStg []*checksum.Matrix
}

// setupKey names one rank block of the memo's operator: its rows and the
// number of carried weights (Single or Triple).
type setupKey struct{ lo, hi, weights int }

// setupEntry is a set-up, admitted or a candidate (checksum.Held), with
// what it was built from: the bits of the decoupling scalar and the
// block's values.
type setupEntry struct {
	held *checksum.Held[rankSetup]
	d    uint64
	vals []float64
}

// serves reports whether e was built from d and vals, bit for bit (a CSR's
// pattern is immutable, its values and so d are not).
func (e *setupEntry) serves(d uint64, vals []float64) bool {
	return e != nil && e.d == d && vec.SameBits(e.vals, vals)
}

// memo holds the blocks of the last operator a team was built on, one
// entry per block and weight count: an edit of the operator replaces its
// blocks' entries, another operator's first build drops them all. An entry
// is never written; a build replaces it.
var memo struct {
	sync.Mutex
	a       *sparse.CSR
	entries map[setupKey]*setupEntry
}

// rankSetupOf returns the set-up of block [lo, hi) of a under weights and
// d: the memo's when it holds one admitted for a built from this d and
// these values.
func rankSetupOf(a *sparse.CSR, lo, hi int, weights []checksum.Weight, d float64) (rankSetup, error) {
	key := setupKey{lo: lo, hi: hi, weights: len(weights)}
	return memoized(a, key, d, func() (rankSetup, error) { return buildSetup(a, lo, hi, weights, d) })
}

// memoized serves a's block key from the memo when admitted, or builds the
// set-up once and offers it under checksum.Held's rule: a first build is
// held as a candidate, and a later solve's build that agrees with it bit
// for bit admits it, so a fault in the precompute does not outlive its
// solve. Builds run outside the lock; of two that race, the first admitted
// is kept.
func memoized(a *sparse.CSR, key setupKey, d float64, build func() (rankSetup, error)) (rankSetup, error) {
	db, vals := math.Float64bits(d), a.Val[a.RowPtr[key.lo]:a.RowPtr[key.hi]]
	memo.Lock()
	e, same := memo.entries[key], memo.a == a
	memo.Unlock()
	if same && e.serves(db, vals) && e.held.Admitted {
		return e.held.Value, nil
	}
	s, err := build()
	if err != nil {
		return s, err
	}
	memo.Lock()
	defer memo.Unlock()
	if memo.a != a {
		memo.a, memo.entries = a, map[setupKey]*setupEntry{}
	}
	if e = memo.entries[key]; !e.serves(db, vals) {
		e = &setupEntry{d: db, vals: slices.Clone(vals)}
	}
	e = &setupEntry{held: e.held.Offer(s, rankSetup.agrees), d: e.d, vals: e.vals}
	memo.entries[key] = e
	return e.held.Value, nil
}

// buildSetup factors block [lo, hi) of a (block-Jacobi ILU(0) with blocks
// = ranks, cut from a where it lies) and encodes its stages under the
// weights shifted to the block's first row: this rank's slice of the
// global checksum rows.
func buildSetup(a *sparse.CSR, lo, hi int, weights []checksum.Weight, d float64) (rankSetup, error) {
	m, err := precond.ILU0Block(a, lo, hi)
	if err != nil {
		return rankSetup{}, err
	}
	shifted := make([]checksum.Weight, len(weights))
	for k, w := range weights {
		shifted[k] = checksum.ShiftWeight(w, lo)
	}
	return rankSetup{stages: m.Stages(), encStg: checksum.EncodeStages(m.Stages(), shifted, d)}, nil
}

// agrees reports whether two builds agree bit for bit: every stage's
// factor values and every encoded stage row.
func (s rankSetup) agrees(o rankSetup) bool {
	return precond.StagesAgree(s.stages, o.stages) && checksum.RowsAgree(s.encStg, o.encStg)
}
