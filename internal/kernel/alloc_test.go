package kernel

import (
	"math/rand"
	"testing"

	"newsum/internal/checksum"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// TestPoolKernelsZeroAllocs pins the pool's allocation contract: once a
// kernel has grown the pool's scratch (AllocsPerRun's warm-up call), every
// further call allocates nothing, serial and on four workers, for each of
// the exported kernels.
func TestPoolKernelsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 10_000 // above minParallel: the pooled path dispatches
	a := sparse.DiagDominant(n, 5, 3)
	u, v, dst := randVec(rng, n), randVec(rng, n), make([]float64, n)
	weights := checksum.Triple
	enc := checksum.EncodeMatrix(a, weights, checksum.PracticalD(a))
	lv := vec.NewLeaves(len(weights), n)
	sx, etaX := checksum.Checksums(u, weights), []float64{1e-18, 2e-18, 3e-18}
	sy, etaY := checksum.Checksums(v, weights), []float64{4e-18, 5e-18, 6e-18}
	w := checksum.Linear.At
	for _, workers := range []int{0, 4} {
		p := poolFor(t, workers)
		kernels := []struct {
			name string
			call func()
		}{
			{"Dot", func() { p.Dot(u, v) }},
			{"DotAbs", func() { p.DotAbs(u, v) }},
			{"SumAbs", func() { p.SumAbs(u) }},
			{"WeightedSumAbs", func() { p.WeightedSumAbs(u, w) }},
			{"Norm2", func() { p.Norm2(u) }},
			{"MulVec", func() { p.MulVec(a, dst, u) }},
			{"MulVecDotAbs", func() { p.MulVecDotAbs(a, dst, u, enc.Rows, lv) }},
			{"Axpy", func() { p.Axpy(dst, 0.5, u) }},
			{"Axpby", func() { p.Axpby(dst, 0.5, u, -0.25, v) }},
			{"Xpby", func() { p.Xpby(dst, u, -0.25, v) }},
			{"Scale", func() { p.Scale(dst, 0.5, u) }},
			{"AxpyVLO", func() { p.AxpyVLO(dst, 0.5, u, sy, etaY, sx, etaX) }},
			{"AxpbyVLO", func() { p.AxpbyVLO(dst, 0.5, u, -0.25, v, sy, etaY, sx, etaX, sx, etaX) }},
			{"XpbyVLO", func() { p.XpbyVLO(dst, u, -0.25, v, sy, etaY, sx, etaX, sx, etaX) }},
		}
		for _, k := range kernels {
			if allocs := testing.AllocsPerRun(20, k.call); allocs != 0 {
				t.Errorf("%s at %d workers: %v allocs per call, want 0", k.name, workers, allocs)
			}
		}
	}
}
