package vec

import (
	"fmt"
	"math/rand"
	"testing"
)

// The (Σ, Σ|·|) range fillers — four blocks in lockstep on amd64 with AVX,
// the portable lanes otherwise — held against the per-block portable leaf
// and leaf_test.go's five-line rule, leaf by leaf.

// checkRanges fills every block range [lo, lo+k) of u·v and of Σu through
// DotAbsBlocks and SumAbsBlocks and compares each leaf with dotAbsLanes /
// sumAbsLanes on that block's elements and with specLeaf.
func checkRanges(t *testing.T, u, v []float64) {
	t.Helper()
	n, nb := len(u), Blocks(len(u))
	wantDot, wantSum := make([][4]float64, nb), make([][4]float64, nb) // spec Σ, Σ|·|, portable Σ, Σ|·|
	terms := make([]float64, Block)
	for b := range wantDot {
		lo, hi := blockBounds(n, b)
		for i := lo; i < hi; i++ {
			terms[i-lo] = u[i] * v[i]
		}
		ss, sa := specLeaf(terms[:hi-lo])
		ps, pa := dotAbsLanes(u[lo:hi], v[lo:hi])
		wantDot[b] = [4]float64{ss, sa, ps, pa}
		ss, sa = specLeaf(u[lo:hi])
		ps, pa = sumAbsLanes(u[lo:hi])
		wantSum[b] = [4]float64{ss, sa, ps, pa}
	}
	sum, abs := make([]float64, nb), make([]float64, nb)
	for lo := 0; lo <= nb; lo++ {
		for k := 0; lo+k <= nb; k++ {
			for _, c := range []struct {
				name string
				fill func()
				want [][4]float64
			}{
				{"DotAbsBlocks", func() { DotAbsBlocks(sum[:k], abs[:k], u, v, lo) }, wantDot},
				{"SumAbsBlocks", func() { SumAbsBlocks(sum[:k], abs[:k], u, lo) }, wantSum},
			} {
				Fill(sum, -7)
				Fill(abs, -7)
				c.fill()
				for j := 0; j < k; j++ {
					w := c.want[lo+j]
					if !sameLeaf(sum[j], w[0]) || !sameLeaf(abs[j], w[1]) || !sameLeaf(sum[j], w[2]) || !sameLeaf(abs[j], w[3]) {
						t.Fatalf("n=%d %s [%d,%d) leaf %d: (%x, %x), spec (%x, %x), portable (%x, %x)",
							n, c.name, lo, lo+k, lo+j, sum[j], abs[j], w[0], w[1], w[2], w[3])
					}
				}
				for j := k; j < nb; j++ {
					if sum[j] != -7 || abs[j] != -7 {
						t.Fatalf("n=%d %s [%d,%d): wrote past its %d leaves", n, c.name, lo, lo+k, k)
					}
				}
			}
		}
	}
}

// TestRangeFillersMatchPortableAndSpec: zero to nine full blocks — two
// lockstep quads and every count left over — with and without a ragged
// last block, at every 8-byte offset from a 32-byte boundary, over the
// special values of leafPatterns.
func TestRangeFillersMatchPortableAndSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, p := range leafPatterns {
		t.Run(p.name, func(t *testing.T) {
			for full := 0; full <= 9; full++ {
				for _, tail := range []int{0, 1, 38, 127} {
					off := (full + tail) % 4
					u := offsetVec(rng, full*Block+tail, off, p.fill)
					v := offsetVec(rng, full*Block+tail, (off+1+full%3)%4, leafPatterns[0].fill)
					checkRanges(t, u, v)
					p.fill(rng, v)
					checkRanges(t, u, v)
				}
			}
		})
	}
}

// TestRangeFillersCheckLengths: a short second operand or a range past the
// last block panics in Go instead of reading past a slice in assembly.
func TestRangeFillersCheckLengths(t *testing.T) {
	u, short := make([]float64, 4*Block), make([]float64, 3*Block)
	sum, abs := make([]float64, 4), make([]float64, 4)
	for name, f := range map[string]func(){
		"short v":         func() { DotAbsBlocks(sum, abs, u, short, 0) },
		"short abs":       func() { DotAbsBlocks(sum, make([]float64, 3), u, u, 0) },
		"dot past end":    func() { DotAbsBlocks(sum, abs, u, u, 2) },
		"dot negative lo": func() { DotAbsBlocks(sum[:1], abs[:1], u, u, -1) },
		"sum short abs":   func() { SumAbsBlocks(sum, make([]float64, 3), u, 0) },
		"sum past end":    func() { SumAbsBlocks(sum, abs, u, 2) },
		"sum negative lo": func() { SumAbsBlocks(sum[:1], abs[:1], u, -1) },
		"fill past end":   func() { NewLeaves(1, len(u)).FillBlocks([][]float64{u}, u, 2, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestChecksumReductionsDoNotAllocate: the subtree scratch of the serial
// reductions and of nothing else is on the stack.
func TestChecksumReductionsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	const n = 22500
	u, v := mixedVec(rng, n), mixedVec(rng, n)
	rows := [][]float64{mixedVec(rng, n), mixedVec(rng, n), mixedVec(rng, n)}
	lv := NewLeaves(len(rows), n)
	w := func(i int) float64 { return float64(i + 1) }
	var sink float64
	for name, f := range map[string]func(){
		"SumAbs":         func() { s, a := SumAbs(u); sink += s + a },
		"DotAbs":         func() { s, a := DotAbs(u, v); sink += s + a },
		"WeightedSumAbs": func() { s, a := WeightedSumAbs(u, w); sink += s + a },
		"Sum":            func() { sink += Sum(u) + WeightedSum(u, w) },
		"FillBlocks+Fold": func() {
			for b := 0; b < Blocks(n); b += 64 {
				lv.FillBlocks(rows, v, b, min(b+64, Blocks(n)))
			}
			lv.Fold()
			sink += lv.Sum[0] + lv.Abs[2]
		},
	} {
		if a := testing.AllocsPerRun(20, f); a != 0 {
			t.Errorf("%s allocates: %v per run", name, a)
		}
	}
	_ = sink
}

// The range fillers alone, operands in L2 at the benchmark's two orders
// (CircuitLike(10000), ConvDiff2D(150)): ns per element, which is what
// checksum.update_*_ns_per_elem and verify_ns_per_elem are made of.
func BenchmarkDotAbsBlocks(b *testing.B) {
	for _, n := range []int{10000, 22500} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(97))
			u, v := mixedVec(rng, n), mixedVec(rng, n)
			sum, abs := make([]float64, Blocks(n)), make([]float64, Blocks(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DotAbsBlocks(sum, abs, u, v, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}

func BenchmarkSumAbsBlocks(b *testing.B) {
	for _, n := range []int{10000, 22500} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			u := mixedVec(rand.New(rand.NewSource(101)), n)
			sum, abs := make([]float64, Blocks(n)), make([]float64, Blocks(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SumAbsBlocks(sum, abs, u, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}
