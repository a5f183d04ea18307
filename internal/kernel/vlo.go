package kernel

import (
	"newsum/internal/checksum"
	"newsum/internal/vec"
)

// Element-wise VLO kernels. Outputs are disjoint per element, so any
// partition reproduces the serial result bitwise. The *VLO variants fuse
// the O(#weights) Eq. (3) checksum+η update onto the parallel sweep —
// one call site updates data and carried checksums together, the pairing
// the engine's instrumented operations are built on.

// Axpy computes y := y + alpha·x, bitwise-equal to vec.Axpy.
func (p *Pool) Axpy(y []float64, alpha float64, x []float64) {
	if len(y) != len(x) {
		panic("kernel: length mismatch in Axpy")
	}
	if p == nil || len(y) < minParallel {
		vec.Axpy(y, alpha, x)
		return
	}
	p.op = op{kind: opAxpy, n: len(y), dst: y, alpha: alpha, x: x}
	p.launch()
}

// Axpby computes dst := alpha·x + beta·y, bitwise-equal to vec.Axpby.
func (p *Pool) Axpby(dst []float64, alpha float64, x []float64, beta float64, y []float64) {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic("kernel: length mismatch in Axpby")
	}
	if p == nil || len(dst) < minParallel {
		vec.Axpby(dst, alpha, x, beta, y)
		return
	}
	p.op = op{kind: opAxpby, n: len(dst), dst: dst, alpha: alpha, x: x, beta: beta, y: y}
	p.launch()
}

// Xpby computes dst := x + beta·y, bitwise-equal to vec.Xpby.
func (p *Pool) Xpby(dst, x []float64, beta float64, y []float64) {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic("kernel: length mismatch in Xpby")
	}
	if p == nil || len(dst) < minParallel {
		vec.Xpby(dst, x, beta, y)
		return
	}
	p.op = op{kind: opXpby, n: len(dst), dst: dst, x: x, beta: beta, y: y}
	p.launch()
}

// Scale computes dst := alpha·u, bitwise-equal to vec.Scale.
func (p *Pool) Scale(dst []float64, alpha float64, u []float64) {
	if len(dst) != len(u) {
		panic("kernel: length mismatch in Scale")
	}
	if p == nil || len(dst) < minParallel {
		vec.Scale(dst, alpha, u)
		return
	}
	p.op = op{kind: opScale, n: len(dst), dst: dst, alpha: alpha, x: u}
	p.launch()
}

// AxpyVLO fuses the parallel axpy with the Eq. (3) in-place checksum+η
// update on (sy, etaY).
func (p *Pool) AxpyVLO(y []float64, alpha float64, x []float64, sy, etaY, sx, etaX []float64) {
	p.Axpy(y, alpha, x)
	checksum.UpdateVLOAxpyBound(sy, etaY, alpha, sx, etaX)
}

// AxpbyVLO fuses the parallel axpby with the Eq. (3) checksum+η update.
func (p *Pool) AxpbyVLO(dst []float64, alpha float64, x []float64, beta float64, y []float64,
	sDst, etaDst, sx, etaX, sy, etaY []float64) {
	p.Axpby(dst, alpha, x, beta, y)
	checksum.UpdateVLOAxpbyBound(sDst, etaDst, alpha, sx, etaX, beta, sy, etaY)
}

// XpbyVLO fuses the parallel xpby with the Eq. (3) checksum+η update
// (alpha = 1 case).
func (p *Pool) XpbyVLO(dst, x []float64, beta float64, y []float64,
	sDst, etaDst, sx, etaX, sy, etaY []float64) {
	p.Xpby(dst, x, beta, y)
	checksum.UpdateVLOAxpbyBound(sDst, etaDst, 1, sx, etaX, beta, sy, etaY)
}
