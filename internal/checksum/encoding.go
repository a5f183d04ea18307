package checksum

import (
	"math"
	"slices"
	"sync"

	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// Encoding bundles the complete offline precompute of a protected solve: the
// new-sum checksum rows cᵀA − d·cᵀ for the full Triple weight set plus the
// plain cᵀA diagnosis rows the lazy two-level scheme evaluates on demand.
// It exists so long-running processes (internal/service) can derive the
// encoding once per operator and amortize it across many solves — the
// paper's offline/online cost split (§4–§5) made explicit as a reusable
// value instead of a side effect of engine construction.
//
// Rows are computed per weight by exactly the same accumulation order as
// EncodeMatrix and EncodeTraditional, so an Encoding built once and reused
// is bit-for-bit identical to one derived freshly inside a solve (asserted
// by TestEncodingBitForBit). Its derived rows are immutable after
// construction; it also memoizes encoded stage rows (StageRows, which
// EqualBits ignores). It is safe for concurrent use by any number of solves.
type Encoding struct {
	// N is the matrix order the encoding was derived for.
	N int
	// D is the decoupling scalar pinned at derivation time.
	D float64
	// mat holds the new-sum rows c_kᵀA − d·c_kᵀ for the Triple weight set;
	// weight-set views slice its rows (Single is a prefix of Triple).
	mat *Matrix
	// diag holds the plain c_kᵀA rows for the Linear and Harmonic weights,
	// the on-demand locating checksums of the lazy two-level scheme.
	diag *Traditional
	// stg holds StageRows' entries, one per carried weight count.
	stg struct {
		sync.Mutex
		held [3]*Held[stageRows]
	}
}

// NewEncoding derives the full offline encoding of a with decoupling scalar
// d; d = 0 selects PracticalD(a). Cost: one pass over the nonzeros — the
// three c_kᵀA rows accumulate side by side, each weight evaluated once per
// matrix row, with ‖A‖∞ for PracticalD taken in the same loop, and the
// Linear and Harmonic rows are copied out as the diagnosis rows before
// − d·c_kᵀ densifies all three — the paper's offline encoding cost, paid
// once per operator. Each row sees EncodeMatrix's and EncodeTraditional's
// additions in their order, so the bits are theirs.
func NewEncoding(a *sparse.CSR, d float64) *Encoding {
	if a.Rows != a.Cols {
		panic("checksum: NewEncoding requires a square matrix")
	}
	n := a.Rows
	rows := make([][]float64, len(Triple))
	for k := range rows {
		rows[k] = make([]float64, n)
	}
	normA := encodeRows(a, rows[0], rows[1], rows[2])
	if d == 0 {
		d = practicalD(normA)
	}
	diag := &Traditional{N: n, Weights: Triple[1:], Rows: make([][]float64, len(Triple)-1)}
	for k, row := range rows[1:] {
		diag.Rows[k] = append([]float64(nil), row...)
	}
	decouple(rows[0], rows[1], rows[2], d)
	return &Encoding{N: n, D: d, mat: &Matrix{N: n, D: d, Weights: Triple, Rows: rows}, diag: diag}
}

// encodeRows adds cᵀA for the Triple weights into ones, linear and
// harmonic, and returns ‖A‖∞ in NormInf's order, so with its bits. The
// Triple weights are written out — 1, i+1 and 1/(i+1), as their At
// functions compute them — rather than called per element; 1·v is v.
func encodeRows(a *sparse.CSR, ones, linear, harmonic []float64) (normA float64) {
	for i := 0; i < a.Rows; i++ {
		c1, c2 := float64(i+1), 1/float64(i+1)
		cols, vals := a.RowView(i)
		var s float64
		for t, j := range cols {
			v := vals[t]
			ones[j] += v
			linear[j] += c1 * v
			harmonic[j] += c2 * v
			s += math.Abs(v)
		}
		if s > normA {
			normA = s
		}
	}
	return normA
}

// decouple subtracts d·c_kᵀ from the Triple weights' cᵀA rows.
func decouple(ones, linear, harmonic []float64, d float64) {
	for j := range ones {
		ones[j] -= d
		linear[j] -= d * float64(j+1)
		harmonic[j] -= d * (1 / float64(j+1))
	}
}

// Rederives reports whether a second derivation of a's encoding — its own
// PracticalD, the same accumulation order — reproduces e word for word, as
// e.EqualBits(NewEncoding(a, 0)) would: D, the three new-sum rows and the
// two diagnosis rows. This is the admission check a caching layer runs
// before trusting e (EqualBits says why). The second derivation runs in
// scratch taken from vec's pool and is compared there, and nothing of it
// is kept: once vec's shelf for a's order holds three arrays, it allocates
// nothing. A non-square a panics, as NewEncoding does.
func (e *Encoding) Rederives(a *sparse.CSR) bool {
	if a.Rows != a.Cols {
		panic("checksum: Rederives requires a square matrix")
	}
	n := a.Rows
	if n != e.N {
		return false
	}
	ones, linear, harmonic := vec.Take(n), vec.Take(n), vec.Take(n)
	d := practicalD(encodeRows(a, ones, linear, harmonic))
	same := math.Float64bits(d) == math.Float64bits(e.D) &&
		vec.SameBits(linear, e.diag.Rows[0]) && vec.SameBits(harmonic, e.diag.Rows[1])
	if same {
		decouple(ones, linear, harmonic, d)
		same = vec.SameBits(ones, e.mat.Rows[0]) && vec.SameBits(linear, e.mat.Rows[1]) && vec.SameBits(harmonic, e.mat.Rows[2])
	}
	vec.Put(ones)
	vec.Put(linear)
	vec.Put(harmonic)
	return same
}

// Matrix returns the new-sum encoded matrix for the requested weight set,
// which must be a prefix of Triple (Single, Double and Triple all are). The
// returned value shares the precomputed rows — no recomputation, no copy.
func (e *Encoding) Matrix(weights []Weight) *Matrix {
	if len(weights) == 0 || len(weights) > len(e.mat.Weights) {
		panic("checksum: Encoding.Matrix needs a non-empty prefix of the Triple weight set")
	}
	for k, w := range weights {
		if w.Name != e.mat.Weights[k].Name {
			panic("checksum: Encoding.Matrix weight set is not a prefix of Triple: " + w.Name)
		}
	}
	return &Matrix{N: e.mat.N, D: e.mat.D, Weights: weights, Rows: e.mat.Rows[:len(weights)]}
}

// Diag returns the plain cᵀA rows for the locating weights (Linear,
// Harmonic) used by the lazy two-level diagnosis.
func (e *Encoding) Diag() *Traditional { return e.diag }

// EqualBits reports whether two encodings are bit-for-bit identical:
// same order, same decoupling scalar, and every precomputed row element
// carrying the exact same IEEE-754 word. This is the admission check a
// caching layer runs before trusting a stored encoding — the offline
// precompute is itself unprotected state, and a soft error struck during
// (or after) derivation would silently poison every solve that reuses it.
func (e *Encoding) EqualBits(o *Encoding) bool {
	if o == nil || e.N != o.N || math.Float64bits(e.D) != math.Float64bits(o.D) {
		return false
	}
	if !slices.EqualFunc(e.mat.Rows, o.mat.Rows, vec.SameBits) {
		return false
	}
	return slices.EqualFunc(e.diag.Rows, o.diag.Rows, vec.SameBits)
}

// stageRows is a preconditioner's encoded stage rows, keyed by its stages.
type stageRows struct {
	stages []precond.Stage
	rows   []*Matrix
}

// EncodeStages returns EncodeMatrix(st.M, weights, d) for every st of stages.
func EncodeStages(stages []precond.Stage, weights []Weight, d float64) []*Matrix {
	rows := make([]*Matrix, len(stages))
	for i, st := range stages {
		rows[i] = EncodeMatrix(st.M, weights, d)
	}
	return rows
}

// StageRows returns EncodeStages(stages, weights, e.D), weights a prefix of
// Triple. Under Held's rule it keeps stages, naming them by their M
// pointers (a stage matrix is never written after construction,
// precond.Stage), and serves the rows once a second call on the same
// stages has admitted them. A miss derives under the Encoding's lock.
// Another preconditioner with the same weight count replaces the entry.
func (e *Encoding) StageRows(stages []precond.Stage, weights []Weight) []*Matrix {
	e.stg.Lock()
	defer e.stg.Unlock()
	slot := &e.stg.held[len(weights)-1]
	h := *slot
	if h != nil && !slices.EqualFunc(h.Value.stages, stages, func(s, t precond.Stage) bool { return s.M == t.M }) {
		h = nil
	}
	if h == nil || !h.Admitted {
		h = h.Offer(stageRows{stages, EncodeStages(stages, weights, e.D)}, func(x, y stageRows) bool { return RowsAgree(x.rows, y.rows) })
		*slot = h
	}
	return h.Value.rows
}

// Held is an entry of a memo of derived values (StageRows, internal/par's
// rank set-ups, internal/service's ILU(0) factors). A fault in the
// precompute must not outlive its solve, so one derivation is never
// trusted: it is held as a candidate, admitted when a later derivation from
// the same inputs agrees bit for bit, and replaced when not. Only an
// admitted Value is served. A Held is never written.
type Held[T any] struct {
	Value    T
	Admitted bool
}

// Offer returns the entry to hold once fresh is derived from h's inputs (h
// nil: none held): h if admitted, h admitted if agree finds fresh its Value
// bit for bit, else fresh as a candidate.
func (h *Held[T]) Offer(fresh T, agree func(x, y T) bool) *Held[T] {
	switch {
	case h == nil:
	case h.Admitted:
		return h
	case agree(h.Value, fresh):
		return &Held[T]{Value: h.Value, Admitted: true}
	}
	return &Held[T]{Value: fresh}
}

// RowsAgree reports whether every row of x is y's bit for bit.
func RowsAgree(x, y []*Matrix) bool {
	return slices.EqualFunc(x, y, func(u, v *Matrix) bool { return slices.EqualFunc(u.Rows, v.Rows, vec.SameBits) })
}
