package sparse

import (
	"math"
	"math/rand"
)

// Laplacian2D returns the 5-point finite-difference Laplacian on an nx×ny
// grid: a sparse, symmetric positive-definite matrix of order nx·ny with
// 4 on the diagonal and -1 couplings to grid neighbours. It is the standard
// well-conditioned SPD test problem for CG-family solvers.
func Laplacian2D(nx, ny int) *CSR {
	if nx < 1 || ny < 1 {
		panic("sparse: Laplacian2D needs positive grid dimensions")
	}
	return grid(nx, ny, 1, 4, -1)
}

// Laplacian3D returns the 7-point finite-difference Laplacian on an
// nx×ny×nz grid (diagonal 6, neighbour couplings -1), SPD of order nx·ny·nz.
func Laplacian3D(nx, ny, nz int) *CSR {
	if nx < 1 || ny < 1 || nz < 1 {
		panic("sparse: Laplacian3D needs positive grid dimensions")
	}
	return grid(nx, ny, nz, 6, -1)
}

// grid returns the 7-point operator on an nx×ny×nz grid — the 5-point one
// when nz is 1 — row (i·ny+j)·nz+k for point (i, j, k): diag on the
// diagonal, west on the coupling to (i−1, j, k) and -1 on the others. Each
// row is written in column order straight into arrays of its final size.
func grid(nx, ny, nz int, diag, west float64) *CSR {
	n := nx * ny * nz
	w := newRowWriter(n, 7*n-2*(nx*ny+ny*nz+nx*nz))
	sy, sx := nz, ny*nz // the row strides of a step in j and in i
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				r := (i*ny+j)*nz + k
				if i > 0 {
					w.add(r-sx, west)
				}
				if j > 0 {
					w.add(r-sy, -1)
				}
				if k > 0 {
					w.add(r-1, -1)
				}
				w.add(r, diag)
				if k < nz-1 {
					w.add(r+1, -1)
				}
				if j < ny-1 {
					w.add(r+sy, -1)
				}
				if i < nx-1 {
					w.add(r+sx, -1)
				}
				w.endRow()
			}
		}
	}
	return w.done()
}

// rowWriter builds a CSR whose rows arrive in order, each one's columns
// ascending and distinct, straight into arrays allocated at their final
// length: what COO.ToCSR would make of the same entries, without the
// bucketing and the sort.
type rowWriter struct {
	a    *CSR
	k, i int // the next entry and the row being written
}

func newRowWriter(n, nnz int) rowWriter {
	return rowWriter{a: &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, nnz), Val: make([]float64, nnz)}}
}

func (w *rowWriter) add(j int, v float64) {
	w.a.ColIdx[w.k], w.a.Val[w.k] = j, v
	w.k++
}

func (w *rowWriter) endRow() {
	w.i++
	w.a.RowPtr[w.i] = w.k
}

func (w *rowWriter) done() *CSR {
	if w.i != w.a.Rows || w.k != len(w.a.Val) {
		panic("sparse: rowWriter filled short of its size")
	}
	return w.a.planRows()
}

// CircuitLike generates a synthetic SPD matrix with the character of the
// paper's G3_circuit input (a circuit-simulation conductance matrix from the
// UFL Sparse Matrix Collection): an irregular nearest-neighbour topology —
// a 2D grid of nodes with a sprinkling of longer-range "wire" connections —
// assembled as a weighted graph Laplacian plus a positive diagonal shift,
// which is symmetric positive definite by construction. The resulting
// density is ≈4.8 nonzeros per row, matching G3_circuit's 7.66M nnz over
// 1.59M rows.
//
// n is the desired order (rounded down to a perfect square); seed makes the
// generation reproducible.
func CircuitLike(n int, seed int64) *CSR {
	if n < 4 {
		panic("sparse: CircuitLike needs n >= 4")
	}
	n = CircuitOrder(n)
	side := int(math.Sqrt(float64(n)))
	rng := rand.New(rand.NewSource(seed))
	wires := int(0.05 * float64(n))
	c := NewCOO(n, n)
	c.Grow(4*side*(side-1) + 2*wires + n) // every lattice link and wire kept, both directions, and the diagonal
	diag := make([]float64, n)
	idx := func(i, j int) int { return i*side + j }

	addEdge := func(u, v int, w float64) {
		c.Add(u, v, -w)
		c.Add(v, u, -w)
		diag[u] += w
		diag[v] += w
	}

	// Grid "traces": conductances on a 2D lattice. Real circuit
	// conductances span orders of magnitude (wire widths, contact
	// resistances), so weights are log-uniform over [1e-2, 1e2] — the
	// spread drives the conditioning. A fraction of broken links mimics
	// irregular layouts.
	logW := func() float64 { return math.Exp(math.Log(1e-2) + rng.Float64()*math.Log(1e4)) }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			u := idx(i, j)
			if j+1 < side && rng.Float64() > 0.06 {
				addEdge(u, idx(i, j+1), logW())
			}
			if i+1 < side && rng.Float64() > 0.06 {
				addEdge(u, idx(i+1, j), logW())
			}
		}
	}
	// Long-range "vias/wires": a sprinkling of random pairs, roughly 0.05
	// per node. Kept sparse so the graph diameter — and hence the
	// conditioning — stays grid-like rather than small-world.
	for w := 0; w < wires; w++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		addEdge(u, v, logW())
	}
	// Grounding: as in real circuit matrices, only a small fraction of
	// nodes tie to the supply rails with real conductances; everything
	// else gets a tiny leakage floor that keeps the matrix strictly
	// positive definite. The weak grounding reproduces G3_circuit's
	// conditioning — PCG at 1e-8 takes hundreds of iterations, not dozens.
	for u := 0; u < n; u++ {
		g := 1e-8
		if rng.Float64() < 0.002 {
			g = 0.5 + rng.Float64()
		}
		c.Add(u, u, diag[u]+g)
	}
	return c.ToCSR()
}

// CircuitOrder returns the order of CircuitLike(n, ·): n rounded down to a
// perfect square.
func CircuitOrder(n int) int {
	side := int(math.Sqrt(float64(n)))
	return side * side
}

// ConvectionDiffusion2D returns the 5-point upwind discretization of
// -Δu + β·∇u on an nx×ny grid. For β ≠ 0 the matrix is unsymmetric, which is
// the regime the paper exercises with PBiCGSTAB (§6). beta controls the
// convection strength; beta = 0 reduces to the symmetric Laplacian.
func ConvectionDiffusion2D(nx, ny int, beta float64) *CSR {
	if nx < 1 || ny < 1 {
		panic("sparse: ConvectionDiffusion2D needs positive grid dimensions")
	}
	// Upwind convection in the +x direction: contributes beta*h to the
	// diagonal and -beta*h to the west neighbour.
	h := 1.0 / float64(nx+1)
	bh := beta * h
	return grid(nx, ny, 1, 4+bh, -1-bh)
}

// DiagDominant returns a random strictly diagonally dominant matrix of
// order n with about nnzPerRow off-diagonal entries per row. Diagonal
// dominance guarantees the Jacobi and Chebyshev iterations converge, so
// these matrices drive the generality experiments (Fig. 1 methods).
func DiagDominant(n, nnzPerRow int, seed int64) *CSR {
	if n < 1 || nnzPerRow < 0 {
		panic("sparse: bad DiagDominant parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO(n, n)
	c.Grow(n * (nnzPerRow + 1)) // fewer where a draw repeats a column
	// seen[j] == i+1: row i already holds column j. One slice serves every
	// row, as no row's mark equals another's.
	seen := make([]int, n)
	for i := 0; i < n; i++ {
		var offSum float64
		seen[i] = i + 1
		for k := 0; k < nnzPerRow; k++ {
			j := rng.Intn(n)
			if seen[j] == i+1 {
				continue
			}
			seen[j] = i + 1
			v := rng.Float64()*2 - 1
			c.Add(i, j, v)
			offSum += math.Abs(v)
		}
		c.Add(i, i, offSum+1+rng.Float64())
	}
	return c.ToCSR()
}

// SPDRandom returns a random sparse SPD matrix of order n built as a
// weighted graph Laplacian over a random regular-ish graph plus a positive
// diagonal shift.
func SPDRandom(n, degree int, seed int64) *CSR {
	if n < 2 || degree < 1 {
		panic("sparse: bad SPDRandom parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO(n, n)
	c.Grow(n * (2*degree + 1)) // fewer where a draw hits the diagonal
	diag := make([]float64, n)
	for u := 0; u < n; u++ {
		for k := 0; k < degree; k++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			w := 0.1 + rng.Float64()
			c.Add(u, v, -w)
			c.Add(v, u, -w)
			diag[u] += w
			diag[v] += w
		}
	}
	for u := 0; u < n; u++ {
		c.Add(u, u, diag[u]+0.5+rng.Float64())
	}
	return c.ToCSR()
}

// Tridiag returns the n×n tridiagonal Toeplitz matrix with the given
// sub-diagonal, diagonal and super-diagonal values. With (-1, 2, -1) this is
// the 1D Laplacian whose eigenvalues are known in closed form, which the
// Chebyshev solver tests use for exact spectral bounds.
func Tridiag(n int, sub, diag, super float64) *CSR {
	if n < 1 {
		panic("sparse: Tridiag needs n >= 1")
	}
	w := newRowWriter(n, 3*n-2)
	for i := 0; i < n; i++ {
		if i > 0 {
			w.add(i-1, sub)
		}
		w.add(i, diag)
		if i < n-1 {
			w.add(i+1, super)
		}
		w.endRow()
	}
	return w.done()
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	w := newRowWriter(n, n)
	for i := 0; i < n; i++ {
		w.add(i, 1)
		w.endRow()
	}
	return w.done()
}
