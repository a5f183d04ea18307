// Package kernel is the shared-memory parallel kernel layer behind the
// repo's hot paths: sparse matrix–vector products, the blocked pairwise
// reductions (dot, sum, weighted checksum sums, norms), the fused VLO +
// Eq. (3) update kernels and the SpMV that takes the Eq. (2) row
// reductions inside its own sweep — what the serial engine in
// internal/core iterates over.
//
// Determinism contract. Every kernel produces a result bitwise-identical
// to its serial counterpart in internal/vec, internal/sparse and
// internal/checksum, for ANY worker count — including a nil *Pool, which
// runs everything serially. The reductions achieve this by construction:
// the reduction tree is the fixed-block pairwise tree of internal/vec,
// a pure function of the vector length and never of the worker count.
// Workers fill disjoint ranges of per-block leaf partials; a single
// combiner (vec.PairwiseSum) then folds the leaves with exactly the
// serial tree; the norm is that dot of u with itself. SpMV and the
// element-wise VLOs write disjoint output elements, so their results are
// trivially order-free; the fused SpMV's row ranges are cut on leaf
// boundaries, so the reduction leaves it fills on the side are disjoint
// too.
// ABFT relies on this: a recomputed checksum is compared against a
// carried one under a round-off threshold, and a reduction whose value
// depended on scheduling would smear that comparison band.
//
// Allocation contract. The steady-state dispatch path allocates nothing:
// each kernel call stores its operands in the pool's op descriptor and
// wakes the helpers with plain int sends, so no closure crosses a
// channel and no per-call heap traffic occurs (ROADMAP item 2,
// "zero-allocation steady state"; pinned per kernel by
// TestPoolKernelsZeroAllocs and per solve by internal/core's
// TestSolveSteadyStateZeroAllocs).
//
// A Pool serves one solve at a time: its scratch buffers and op
// descriptor are reused across calls and are not safe for concurrent
// kernel invocations. internal/service gives each job its own pool (see
// Config.KernelWorkers) so concurrent jobs cannot oversubscribe the
// machine or share scratch.
package kernel

import (
	"sync"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// minParallel is the element count below which kernels take the serial
// path: at small n the pointer-chase through the wake channel costs more
// than the loop. The cutover is invisible in results — both paths produce
// bitwise-identical values by the determinism contract.
const minParallel = 4096

// opKind selects the part function execPart dispatches to. Static
// dispatch over an enum (instead of sending closures to the workers) is
// what keeps the per-call allocation count at zero: an int send and a
// struct-field store never touch the heap.
type opKind uint8

const (
	opNone opKind = iota
	// blocked reductions: workers fill disjoint leaf partials.
	opDot
	opDotAbs
	opSumAbs
	opWeightedSumAbs
	// element-wise VLOs: workers write disjoint ranges.
	opAxpy
	opAxpby
	opXpby
	opScale
	// sparse matrix–vector product over nnz-balanced row ranges.
	opMulVec
	// the same product with the Eq. (2) row-reduction leaves filled inside it.
	opMulVecDotAbs
)

// op is the operand set of the in-flight kernel call. The launching
// goroutine fills it before waking the helpers (the channel send orders
// the writes before the helpers' reads); the fields stay set until the
// next call overwrites them, which is safe because launch does not
// return until every part has finished.
type op struct {
	kind        opKind
	n, nb       int
	alpha, beta float64
	dst, x, y   []float64
	out1, out2  []float64
	w           func(i int) float64
	a           *sparse.CSR
	rows        [][]float64
	lv          *vec.Leaves
}

// Pool is a persistent worker pool. NewPool(w) spawns w−1 helper
// goroutines once; every kernel call partitions its work into w parts,
// hands w−1 parts to the helpers and runs part 0 on the calling
// goroutine, so steady-state solves spawn no goroutines at all.
//
// A nil *Pool is valid and means "serial": every method falls through to
// the single-threaded implementation, which lets callers thread an
// optional pool without branching.
type Pool struct {
	workers int
	wake    chan int
	done    sync.WaitGroup
	exited  sync.WaitGroup
	closed  sync.Once

	// op is the operand descriptor of the call in flight; see launch.
	op op

	// scratch for reduction leaf partials and SpMV row bounds; grown on
	// demand, reused across calls. One solve at a time — see package doc.
	buf1, buf2 []float64
	bounds     []int
}

// NewPool returns a pool with the given total worker count (the caller
// counts as one). workers <= 1 returns nil, the serial pool.
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	p := &Pool{workers: workers, wake: make(chan int, workers)}
	p.exited.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go p.worker()
	}
	return p
}

// worker drains part numbers from the wake channel and executes the
// in-flight op's part. The receive orders the launcher's op-descriptor
// writes before the part's reads; done.Done orders the part's result
// writes before the launcher's done.Wait return.
func (p *Pool) worker() {
	defer p.exited.Done()
	for part := range p.wake {
		p.execPart(part)
		p.done.Done()
	}
}

// Close shuts the helper goroutines down and waits for them to exit.
// Safe on a nil pool and safe to call twice.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closed.Do(func() {
		close(p.wake)
		p.exited.Wait()
	})
}

// launch runs the op currently stored in p.op: parts 1..workers-1 on the
// helper goroutines, part 0 on the caller, returning when every part has
// finished. Kernels validate slice lengths before launching so execPart
// cannot panic on a helper goroutine (which would crash the process
// rather than unwind the caller).
func (p *Pool) launch() {
	p.done.Add(p.workers - 1)
	for part := 1; part < p.workers; part++ {
		p.wake <- part
	}
	p.execPart(0)
	p.done.Wait()
}

// execPart runs one worker's share of the in-flight op. Range splits are
// pure functions of (n or nb, part, workers), so the partition — and with
// it the set of leaves each worker fills — never depends on scheduling.
func (p *Pool) execPart(part int) {
	o := &p.op
	switch o.kind {
	case opDot:
		lo, hi := o.nb*part/p.workers, o.nb*(part+1)/p.workers
		vec.DotBlocks(o.out1[lo:hi], o.x, o.y, lo)
	case opDotAbs:
		lo, hi := o.nb*part/p.workers, o.nb*(part+1)/p.workers
		vec.DotAbsBlocks(o.out1[lo:hi], o.out2[lo:hi], o.x, o.y, lo)
	case opSumAbs:
		lo, hi := o.nb*part/p.workers, o.nb*(part+1)/p.workers
		vec.SumAbsBlocks(o.out1[lo:hi], o.out2[lo:hi], o.x, lo)
	case opWeightedSumAbs:
		lo, hi := o.nb*part/p.workers, o.nb*(part+1)/p.workers
		weightedSumAbsBlocks(o.out1, o.out2, o.x, o.w, lo, hi)
	case opAxpy:
		lo, hi := o.n*part/p.workers, o.n*(part+1)/p.workers
		vec.Axpy(o.dst[lo:hi], o.alpha, o.x[lo:hi])
	case opAxpby:
		lo, hi := o.n*part/p.workers, o.n*(part+1)/p.workers
		vec.Axpby(o.dst[lo:hi], o.alpha, o.x[lo:hi], o.beta, o.y[lo:hi])
	case opXpby:
		lo, hi := o.n*part/p.workers, o.n*(part+1)/p.workers
		vec.Xpby(o.dst[lo:hi], o.x[lo:hi], o.beta, o.y[lo:hi])
	case opScale:
		lo, hi := o.n*part/p.workers, o.n*(part+1)/p.workers
		vec.Scale(o.dst[lo:hi], o.alpha, o.x[lo:hi])
	case opMulVec:
		o.a.MulVecRange(o.dst, o.x, p.bounds[part], p.bounds[part+1])
	case opMulVecDotAbs:
		o.a.MulVecDotAbs(o.dst, o.x, o.rows, o.lv, p.bounds[part], p.bounds[part+1])
	}
}

// weightedSumAbsBlocks stores the leaves of blocks [lo, hi) of Σ w(i)·x_i as
// vec.WeightedSumAbs takes them: the products of four blocks at a time —
// one lockstep group of the leaf filler — through a stack scratch.
func weightedSumAbsBlocks(sum, abs, x []float64, w func(i int) float64, lo, hi int) {
	var t [4 * vec.Block]float64
	for ; lo < hi; lo += 4 {
		k, first := min(4, hi-lo), lo*vec.Block
		xs := x[first:min(first+k*vec.Block, len(x))]
		for i, xi := range xs {
			t[i] = w(first+i) * xi
		}
		vec.SumAbsBlocks(sum[lo:lo+k], abs[lo:lo+k], t[:len(xs)], 0)
	}
}

// grow1 returns a length-n scratch slice, reusing the pool's buffer.
func (p *Pool) grow1(n int) []float64 {
	if cap(p.buf1) < n {
		p.buf1 = make([]float64, n)
	}
	return p.buf1[:n]
}

// grow2 returns two length-n scratch slices.
func (p *Pool) grow2(n int) ([]float64, []float64) {
	if cap(p.buf1) < n {
		p.buf1 = make([]float64, n)
	}
	if cap(p.buf2) < n {
		p.buf2 = make([]float64, n)
	}
	return p.buf1[:n], p.buf2[:n]
}
