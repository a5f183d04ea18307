package core

import (
	"math"

	"newsum/internal/checksum"
	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// OnlineMVPCG solves A·x = b with PCG protected by the online-MV baseline.
func OnlineMVPCG(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPCG, OnlineMV, a, m, b, opts)
}

// OnlineMVPBiCGSTAB solves A·x = b with PBiCGSTAB protected by the
// online-MV baseline.
func OnlineMVPBiCGSTAB(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPBiCGSTAB, OnlineMV, a, m, b, opts)
}

// omv is the online-MV baseline (§2, §6.2) as a backend of the operation
// vocabulary: the Sloan-style scheme built on the traditional Huang–Abraham
// checksum. Every MVM is verified against the encoded (cᵀA)·x and repaired
// by binary-search localization plus partial recomputation; VLOs and PCOs —
// which the traditional encoding cannot cover — are protected by duplicated
// execution with majority-vote repair (the TMR stand-in of §6.2). The scheme
// has no checkpoints and, critically, cannot detect corruption of an MVM's
// input vector: memory and cache errors in x slip through (Table 3). It
// rides a checksum-less engine for everything it does not override (the
// reductions, the injector, the statistics).
type omv struct {
	*engine
	tA *checksum.Traditional

	expected []float64
	dup1     []float64
	dup2     []float64
	// y0 holds the operand a duplicated VLO overwrites, so that every
	// execution reads its value from before the first one.
	y0 []float64
}

func newOMV(e *engine) *omv {
	return &omv{
		engine:   e,
		tA:       checksum.EncodeTraditional(e.a, checksum.Single),
		expected: make([]float64, 1),
		dup1:     make([]float64, e.n),
		dup2:     make([]float64, e.n),
		y0:       make([]float64, e.n),
	}
}

// voteMemory models the baseline's TMR-replicated vector storage: a memory
// bit flip lands in one replica and is outvoted when the vector is next
// consumed, so it is detected and corrected (Table 3 grants online MV
// memory-flip coverage) at the cost of replica comparison. Cache/register
// corruption inside the MVM window is NOT routed through here — that is the
// coverage hole of the traditional encoding.
func (o *omv) voteMemory(iter int, site fault.Site, v []float64) {
	if o.inj == nil {
		return
	}
	copy(o.dup2, v)
	before := len(o.inj.Injected)
	o.inj.InjectMemory(iter, site, v)
	if len(o.inj.Injected) > before {
		copy(v, o.dup2)
		o.stats.Detections++
		o.stats.Corrections++
	}
	o.stats.Verifications++
}

// MVM computes q := A·p with traditional-checksum verification. The encoded
// checksum (cᵀA)·p is computed inside the cache-fault window, exactly the
// insidious case of §2: if a cached value of p is corrupted, both the
// product and the checksum consume it, the relationship verifies, and the
// error escapes.
func (o *omv) MVM(iter int, dst, src *Vec) {
	q, p := dst.Data, src.Data
	o.voteMemory(iter, fault.SiteMVM, p)
	restore := o.inj.CacheWindow(iter, fault.SiteMVM, p)
	o.a.MulVec(q, p)
	o.tA.ExpectedMVM(o.expected, p)
	if restore != nil {
		restore()
	}
	o.inj.InjectOutput(iter, fault.SiteMVM, q)

	o.stats.ChecksumUpdates++ // the (cᵀA)·p dot
	o.stats.Verifications++
	sum, absSum := sumAbs(q)
	if o.tol.ConsistentBound(sum-o.expected[0], o.n, absSum, 0) {
		return
	}
	o.stats.Detections++
	o.locateRepair(q, p, 0, o.n)
}

func sumAbs(v []float64) (sum, absSum float64) {
	for _, x := range v {
		sum += x
		absSum += math.Abs(x)
	}
	return sum, absSum
}

// locateRepair is Sloan's binary-search localization: recompute the segment
// checksum of [lo, hi) from A and p, recurse into inconsistent halves, and
// recompute the offending rows when segments narrow to single elements.
func (o *omv) locateRepair(q, p []float64, lo, hi int) {
	if hi <= lo {
		return
	}
	segExp := checksum.SegmentChecksum(o.a, checksum.Ones, p, lo, hi)
	o.stats.PartialRecomputeNNZ += o.a.RowPtr[hi] - o.a.RowPtr[lo]
	var segSum, segAbs float64
	for i := lo; i < hi; i++ {
		segSum += q[i]
		segAbs += math.Abs(q[i])
	}
	if o.tol.ConsistentBound(segSum-segExp, hi-lo, segAbs, 0) {
		return
	}
	if hi-lo == 1 {
		// Recompute the single inconsistent element from its row.
		cols, vals := o.a.RowView(lo)
		var s float64
		for k, j := range cols {
			s += vals[k] * p[j]
		}
		q[lo] = s
		o.stats.Corrections++
		return
	}
	mid := lo + (hi-lo)/2
	o.locateRepair(q, p, lo, mid)
	o.locateRepair(q, p, mid, hi)
}

// dupCompare runs op twice (into dst and o.dup1), injects faults into the
// first execution, and majority-votes with a third execution on mismatch —
// the duplicated-execution protection the baseline needs for operations the
// traditional checksum cannot encode.
func (o *omv) dupCompare(iter int, site fault.Site, dst []float64, op func(out []float64)) {
	op(dst)
	o.inj.InjectOutput(iter, site, dst)
	op(o.dup1)
	o.stats.Verifications++
	if vec.Equal(dst, o.dup1, 0) {
		return
	}
	o.stats.Detections++
	op(o.dup2)
	// Majority vote element-wise between the three copies.
	for i := range dst {
		if dst[i] != o.dup1[i] {
			if o.dup1[i] == o.dup2[i] {
				dst[i] = o.dup1[i]
			}
			// else dst stays (dst == dup2 or all differ; keep first).
		}
	}
	o.stats.Corrections++
}

// PCO computes z := M⁻¹·r with duplicated execution. Memory faults on r
// strike before both executions and therefore escape.
func (o *omv) PCO(iter int, dst, src *Vec) error {
	z, r := dst.Data, src.Data
	o.voteMemory(iter, fault.SitePCO, r)
	// A cached corrupted input feeds both duplicated executions — they
	// agree, so the error escapes (the coverage hole in Table 3's
	// cache/register row for this baseline).
	restore := o.inj.CacheWindow(iter, fault.SitePCO, r)
	var applyErr error
	o.dupCompare(iter, fault.SitePCO, z, func(out []float64) {
		if err := applyClean(o.m, out, r); err != nil && applyErr == nil {
			applyErr = err
		}
	})
	if restore != nil {
		restore()
	}
	return applyErr
}

// Axpy computes y := y + alpha·x with duplicated execution.
func (o *omv) Axpy(iter int, y *Vec, alpha float64, x *Vec) {
	o.voteMemory(iter, fault.SiteVLO, x.Data)
	y0 := o.y0
	copy(y0, y.Data)
	o.dupCompare(iter, fault.SiteVLO, y.Data, func(out []float64) {
		vec.Axpby(out, 1, y0, alpha, x.Data)
	})
}

// Xpby computes dst := x + beta·y with duplicated execution; dst may alias y.
func (o *omv) Xpby(iter int, dst, x *Vec, beta float64, y *Vec) {
	y0 := y.Data
	if dst == y {
		y0 = o.y0
		copy(y0, y.Data)
	}
	o.dupCompare(iter, fault.SiteVLO, dst.Data, func(out []float64) {
		vec.Xpby(out, x.Data, beta, y0)
	})
}

// Axpby computes dst := alpha·x + beta·y with duplicated execution.
func (o *omv) Axpby(iter int, dst *Vec, alpha float64, x *Vec, beta float64, y *Vec) {
	o.dupCompare(iter, fault.SiteVLO, dst.Data, func(out []float64) {
		vec.Axpby(out, alpha, x.Data, beta, y.Data)
	})
}
