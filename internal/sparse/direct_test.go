package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
)

// The generators as they were before they wrote CSR directly: every entry
// through a COO builder and ToCSR. They are the oracles the direct writers
// must reproduce, pattern, bits, row plan and capacities.

func laplacian2DByCOO(nx, ny int) *CSR {
	n := nx * ny
	c := NewCOO(n, n)
	idx := func(i, j int) int { return i*ny + j }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			r := idx(i, j)
			c.Add(r, r, 4)
			if i > 0 {
				c.Add(r, idx(i-1, j), -1)
			}
			if i < nx-1 {
				c.Add(r, idx(i+1, j), -1)
			}
			if j > 0 {
				c.Add(r, idx(i, j-1), -1)
			}
			if j < ny-1 {
				c.Add(r, idx(i, j+1), -1)
			}
		}
	}
	return c.ToCSR()
}

func laplacian3DByCOO(nx, ny, nz int) *CSR {
	n := nx * ny * nz
	c := NewCOO(n, n)
	idx := func(i, j, k int) int { return (i*ny+j)*nz + k }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				r := idx(i, j, k)
				c.Add(r, r, 6)
				if i > 0 {
					c.Add(r, idx(i-1, j, k), -1)
				}
				if i < nx-1 {
					c.Add(r, idx(i+1, j, k), -1)
				}
				if j > 0 {
					c.Add(r, idx(i, j-1, k), -1)
				}
				if j < ny-1 {
					c.Add(r, idx(i, j+1, k), -1)
				}
				if k > 0 {
					c.Add(r, idx(i, j, k-1), -1)
				}
				if k < nz-1 {
					c.Add(r, idx(i, j, k+1), -1)
				}
			}
		}
	}
	return c.ToCSR()
}

func convectionDiffusion2DByCOO(nx, ny int, beta float64) *CSR {
	n := nx * ny
	h := 1.0 / float64(nx+1)
	c := NewCOO(n, n)
	idx := func(i, j int) int { return i*ny + j }
	bh := beta * h
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			r := idx(i, j)
			c.Add(r, r, 4+bh)
			if i > 0 {
				c.Add(r, idx(i-1, j), -1-bh)
			}
			if i < nx-1 {
				c.Add(r, idx(i+1, j), -1)
			}
			if j > 0 {
				c.Add(r, idx(i, j-1), -1)
			}
			if j < ny-1 {
				c.Add(r, idx(i, j+1), -1)
			}
		}
	}
	return c.ToCSR()
}

func tridiagByCOO(n int, sub, diag, super float64) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			c.Add(i, i-1, sub)
		}
		c.Add(i, i, diag)
		if i < n-1 {
			c.Add(i, i+1, super)
		}
	}
	return c.ToCSR()
}

func identityByCOO(n int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1)
	}
	return c.ToCSR()
}

// diagDominantByMap is DiagDominant with the map per row it used to keep.
func diagDominantByMap(n, nnzPerRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO(n, n)
	c.Grow(n * (nnzPerRow + 1))
	for i := 0; i < n; i++ {
		var offSum float64
		seen := map[int]bool{i: true}
		for k := 0; k < nnzPerRow; k++ {
			j := rng.Intn(n)
			if seen[j] {
				continue
			}
			seen[j] = true
			v := rng.Float64()*2 - 1
			c.Add(i, j, v)
			offSum += math.Abs(v)
		}
		c.Add(i, i, offSum+1+rng.Float64())
	}
	return c.ToCSR()
}

// TestDirectGeneratorsMatchCOO: every generator that writes CSR straight
// from its rows equals its COO build bit for bit, row plan and exact
// capacities included — on 1×1, 1×n and n×1 grids, sizes either side of a
// row-plan window, and convection of both signs and none.
func TestDirectGeneratorsMatchCOO(t *testing.T) {
	grids := [][2]int{{1, 1}, {1, 9}, {9, 1}, {1, 300}, {300, 1}, {2, 2}, {23, 17}, {11, 12}, {150, 150}}
	for _, g := range grids {
		nx, ny := g[0], g[1]
		requireCutEqual(t, fmt.Sprintf("Laplacian2D(%d,%d)", nx, ny), Laplacian2D(nx, ny), laplacian2DByCOO(nx, ny))
		for _, beta := range []float64{0, 0.5, 20, -3, math.Copysign(0, -1)} {
			requireCutEqual(t, fmt.Sprintf("ConvectionDiffusion2D(%d,%d,%g)", nx, ny, beta),
				ConvectionDiffusion2D(nx, ny, beta), convectionDiffusion2DByCOO(nx, ny, beta))
		}
	}
	for _, g := range [][3]int{{1, 1, 1}, {1, 1, 9}, {1, 9, 1}, {9, 1, 1}, {1, 5, 7}, {5, 1, 7}, {5, 7, 1}, {7, 8, 9}, {20, 20, 20}} {
		requireCutEqual(t, fmt.Sprintf("Laplacian3D%v", g), Laplacian3D(g[0], g[1], g[2]), laplacian3DByCOO(g[0], g[1], g[2]))
	}
	for _, n := range []int{1, 2, 3, 127, 128, 129, 513} {
		requireCutEqual(t, fmt.Sprintf("Tridiag(%d)", n), Tridiag(n, -1, 2, -0.5), tridiagByCOO(n, -1, 2, -0.5))
	}
	for _, n := range []int{0, 1, 2, 128, 300} {
		requireCutEqual(t, fmt.Sprintf("Identity(%d)", n), Identity(n), identityByCOO(n))
	}
}

// TestDiagDominantMatchesMapLoop: the stamp slice makes the draws and the
// matrix the map per row made. Both convert through ToCSR, so Val keeps
// the builder's value array, its slack within ToCSR's eighth; RowPtr and
// ColIdx are exact, as no coordinate repeats.
func TestDiagDominantMatchesMapLoop(t *testing.T) {
	for _, c := range []struct {
		n, deg int
		seed   int64
	}{{1, 0, 1}, {1, 3, 2}, {2, 5, 3}, {7, 7, 4}, {700, 6, 5}, {1000, 64, 6}, {4096, 4, 7}} {
		what := fmt.Sprintf("DiagDominant(%d,%d,%d)", c.n, c.deg, c.seed)
		got := DiagDominant(c.n, c.deg, c.seed)
		requireSamePlan(t, what, got, diagDominantByMap(c.n, c.deg, c.seed))
		if cap(got.RowPtr) != len(got.RowPtr) || cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val)-len(got.Val) > len(got.Val)/8 {
			t.Fatalf("%s: cap/len RowPtr %d/%d ColIdx %d/%d Val %d/%d, want RowPtr and ColIdx exact and Val within an eighth",
				what, cap(got.RowPtr), len(got.RowPtr), cap(got.ColIdx), len(got.ColIdx), cap(got.Val), len(got.Val))
		}
	}
}

// TestCOOGeneratorAllocsDoNotGrowWithN: a generator that assembles through
// COO allocates as many times at n = 16384 as at n = 256 — its builder,
// ToCSR's arrays and the row plan, whose runs, when they outgrow their
// first room, at least double. The collector is off while it measures, as
// in TestDirectGeneratorAllocs.
func TestCOOGeneratorAllocsDoNotGrowWithN(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, g := range []struct {
		name string
		f    func(n int) *CSR
	}{
		{"DiagDominant", func(n int) *CSR { return DiagDominant(n, 4, 1) }},
		{"SPDRandom", func(n int) *CSR { return SPDRandom(n, 4, 1) }},
		{"CircuitLike", func(n int) *CSR { return CircuitLike(n, 1) }},
	} {
		small := testing.AllocsPerRun(5, func() { g.f(256) })
		large := testing.AllocsPerRun(5, func() { g.f(16384) })
		if large != small {
			t.Errorf("%s allocates %v times at n = 256 and %v at n = 16384: something is allocated per row", g.name, small, large)
		}
	}
}

// TestDirectGeneratorAllocs pins what a direct generator allocates: the
// CSR, its three arrays and its row plan, nothing per row or per entry.
// The collector is off while it measures: run alone, the heap starts small
// and a GC cycle begun inside the measurement adds a runtime allocation of
// its own to the count.
func TestDirectGeneratorAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The plan of a matrix without a full window is nil; with one, it is
	// the struct and its three arrays.
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"Laplacian2D(150,150)", 8, func() { Laplacian2D(150, 150) }},
		{"ConvectionDiffusion2D(150,150)", 8, func() { ConvectionDiffusion2D(150, 150, 0.5) }},
		{"Laplacian3D(20,20,20)", 8, func() { Laplacian3D(20, 20, 20) }},
		{"Tridiag(1000)", 8, func() { Tridiag(1000, -1, 2, -1) }},
		{"Identity(1000)", 8, func() { Identity(1000) }},
		{"Identity(10)", 4, func() { Identity(10) }},
	} {
		if got := testing.AllocsPerRun(5, c.f); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}
