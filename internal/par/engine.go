package par

import (
	"errors"
	"fmt"
	"math"

	"newsum/internal/checksum"
	"newsum/internal/core"
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// This file is the distributed counterpart of internal/core/engine.go: the
// per-rank machinery — tracked distributed vectors, instrumented MVM/PCO/VLO
// operations that carry partial checksums, replicated verification — that
// the rank driver (drive.go) and its recurrences are written against the
// way core's are written against *engine.

// Target selects which state a distributed fault corrupts.
type Target int

const (
	// TargetOutput strikes the MVM output data — the baseline model.
	TargetOutput Target = iota
	// TargetChecksum strikes the carried checksum scalar of the MVM output
	// instead of the data: the vector is clean, its protection is not.
	TargetChecksum
	// TargetCheckpoint strikes this rank's checkpoint buffer as the snapshot
	// is taken; the corruption is dormant until a rollback restores it.
	TargetCheckpoint
)

func (t Target) String() string {
	switch t {
	case TargetOutput:
		return "output"
	case TargetChecksum:
		return "checksum"
	case TargetCheckpoint:
		return "checkpoint"
	default:
		return "unknown-target"
	}
}

// Fault schedules one arithmetic error into the MVM output of a specific
// rank at a specific iteration of the distributed solve.
type Fault struct {
	Iteration int
	Rank      int
	// Index is the local index within the rank's block; out-of-range
	// (including -1) means 0.
	Index int
	// Magnitude is the additive error; 0 selects a large default. Ignored
	// when BitFlip is set.
	Magnitude float64
	// MVM selects which MVM within the iteration is struck, 0-based, for
	// solvers that perform more than one per iteration (BiCGStab runs two).
	MVM int
	// BitFlip flips bit Bit of the IEEE-754 word instead of adding
	// Magnitude — the fault model of the paper's §6 campaigns.
	BitFlip bool
	// Bit is the flipped bit position (0 = LSB of the mantissa, 63 = sign).
	// Out-of-range values select 62, the high exponent bit, whose flip
	// always produces a detectable magnitude change.
	Bit int
	// Target selects what is struck: the MVM output data (default), the
	// carried checksum state, or the checkpoint buffer. Checksum strikes
	// share the (Iteration, Rank, MVM) coordinate; checkpoint strikes fire
	// at snapshot time, so Iteration must be a checkpoint iteration (a
	// multiple of cd) and MVM is ignored.
	Target Target
}

// CorrelatedFaults replicates one fault across every rank of an nranks-team
// at the same (iteration, MVM) coordinate — the correlated multi-rank upset
// a shared power or clock disturbance produces, which no single-rank error
// model covers.
func CorrelatedFaults(f Fault, nranks int) []Fault {
	out := make([]Fault, nranks)
	for r := range out {
		out[r] = f
		out[r].Rank = r
	}
	return out
}

// Options configures a distributed ABFT solve.
type Options struct {
	// Tol is the relative residual tolerance (default 1e-8).
	Tol float64
	// MaxIter caps iterations (default 10·n).
	MaxIter int
	// DetectInterval and CheckpointInterval are the paper's d and cd
	// (defaults 1 and 10; cd is rounded up to a multiple of d).
	DetectInterval, CheckpointInterval int
	// Theta is the checksum threshold (default 1e-10).
	Theta float64
	// MaxRollbacks bounds recovery attempts (default 100).
	MaxRollbacks int
	// TwoLevel enables the inner-level triple-checksum protection after
	// every distributed MVM (Algorithm 2): the global δ1 probe costs one
	// extra scalar all-reduce per iteration; on inconsistency the locating
	// deltas are evaluated lazily (three more all-reduces), the owner rank
	// corrects a located single error in place, and multiple errors
	// trigger a coordinated rollback.
	TwoLevel bool
	// ForwardRecovery enables the forward-recovery tier at the outer
	// level: every tracked vector carries all three §5.2 partial
	// checksums, and a boundary detection first attempts a replicated
	// in-place repair (owner-rank single-error correction, checksum
	// re-anchoring, or reconstruction from clean state) before falling
	// back to the coordinated rollback. Every repair verdict derives from
	// all-reduced values, so it is identical on every rank.
	ForwardRecovery bool
	// Topology selects the collective algorithm family (default Tree;
	// Linear keeps the O(P) baseline for comparison).
	Topology Topology
	// Faults schedules arithmetic MVM errors.
	Faults []Fault
}

// ErrRollbackStorm is wrapped by distributed solves that exhaust their
// rollback budget — the abort outcome a serving layer treats as retryable.
var ErrRollbackStorm = errors.New("par: rollback limit exceeded")

func (o *Options) normalize(n int) {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
	}
	if o.DetectInterval < 1 {
		o.DetectInterval = 1
	}
	if o.CheckpointInterval < 1 {
		o.CheckpointInterval = 10 * o.DetectInterval
	}
	if rem := o.CheckpointInterval % o.DetectInterval; rem != 0 {
		o.CheckpointInterval += o.DetectInterval - rem
	}
	if o.Theta <= 0 {
		o.Theta = 1e-10
	}
	if o.MaxRollbacks <= 0 {
		o.MaxRollbacks = 100
	}
}

// Result reports a distributed solve's outcome.
type Result struct {
	X           []float64
	Iterations  int
	Converged   bool
	Residual    float64
	Rollbacks   int
	Checkpoints int
	Detections  int
	Corrections int
	// WastedIterations sums the iterations each rollback discarded
	// (replicated-deterministic, mirroring core.Stats.WastedIterations).
	WastedIterations int
	// ForwardRepairs, RollbacksAvoided, IterationsSaved and
	// RejectedCorrections mirror core.Stats: in-place repairs applied by
	// the forward-recovery tier, detection events resolved without a
	// rollback, iterations those avoided rollbacks would have discarded,
	// and corrections undone by their post-repair confirmation.
	ForwardRepairs      int
	RollbacksAvoided    int
	IterationsSaved     int
	RejectedCorrections int
	// CheckpointBytes sums, over all ranks, the bytes snapshotted (vectors
	// + carried checksums at 8 bytes per element).
	CheckpointBytes int64
	// InjectedFaults counts scheduled faults that actually fired, summed
	// over all ranks.
	InjectedFaults int
	// Comm aggregates the collective instrumentation over all ranks.
	Comm CommStats
	// Trace is the team's fault-tolerance timeline in core's event
	// vocabulary, recorded by rank 0 (every verdict driving an event is
	// replicated-deterministic, so rank 0's log is the team's log). Merged
	// serial and distributed timelines are therefore directly comparable.
	Trace []core.TraceEvent
}

// rankEngine is one rank's view of a protected distributed solve: its row
// block, its slice of the encoded checksum rows, its local preconditioner
// stages, and the instrumented operations the solver loops are built from.
type rankEngine struct {
	c      *Comm
	a      *sparse.CSR
	dm     *DistMatrix
	lo, hi int
	local  int
	n      int
	opts   *Options
	res    *Result

	weights []checksum.Weight
	tol     checksum.Tol
	dScalar float64
	// rowAs[k] is this rank's [lo, hi) slice of checksum(A) = c_kᵀA − d·c_kᵀ
	// for weight k (one row without forward recovery, three with).
	rowAs [][]float64
	// Local block preconditioner stages with their encodings (nil without
	// preconditioning).
	stages []precond.Stage
	encStg []*checksum.Matrix
	// pco scratch, hoisted out of the per-iteration path: each rank engine
	// applies its preconditioner sequentially, so one data buffer, which
	// ping-pongs with the destination, and two checksum buffers serve any
	// stage-chain length with zero steady-state allocations.
	pcoBuf      []float64
	pcoS, pcoS2 []float64
	// Lazy diagnosis state for the two-level inner check: this rank's
	// column slices of c_kᵀA for the locating weights.
	diagWeights []checksum.Weight
	diagRows    [][]float64

	bL *DistVector
	xg []float64 // gathered global vector buffer

	fired []bool
	// curIter/curSeq track the (iteration, MVM-within-iteration) coordinate
	// faults are addressed by; the driver resets both at every iteration.
	curIter, curSeq int
}

// newRankEngine prepares one rank's engine: partition block, local ILU(0)
// block preconditioner (when withPrecond), encoded checksum rows, and the
// rank's slice of the global encoding. Collective calls inside must be
// matched by every rank, so the constructor runs identically everywhere —
// including the setup-failure verdict, which is all-reduced so a rank whose
// factorization fails cannot strand its peers in a collective.
func newRankEngine(c *Comm, a *sparse.CSR, b []float64, part Partition, opts *Options, res *Result, withPrecond bool) (*rankEngine, error) {
	lo, hi := part.Range(c.Rank())
	weights := checksum.Single
	if opts.ForwardRecovery {
		// Forward recovery needs the locating checksums δ2, δ3 on the
		// outer-level vectors themselves, so all three weights are carried.
		weights = checksum.Triple
	}
	e := &rankEngine{
		c: c, a: a, dm: SplitPartition(a, part, c.Rank()),
		lo: lo, hi: hi, local: hi - lo, n: a.Rows,
		opts: opts, res: res,
		weights: weights,
		tol:     checksum.Tol{Theta: opts.Theta},
		dScalar: checksum.PracticalD(a),
		xg:      make([]float64, a.Rows),
		fired:   make([]bool, len(opts.Faults)),
	}
	e.pcoBuf = make([]float64, e.local)
	e.pcoS = make([]float64, len(e.weights))
	e.pcoS2 = make([]float64, len(e.weights))

	var setupErr error
	if withPrecond {
		// Local block preconditioner: ILU(0) of the diagonal block, exactly
		// block-Jacobi with blocks = ranks, factored where it is cut from a.
		mLocal, err := precond.ILU0Block(a, lo, hi)
		if err != nil {
			setupErr = fmt.Errorf("par: rank %d ILU(0): %w", c.Rank(), err)
		} else {
			e.stages = mLocal.Stages()
		}
	}
	flag := 0.0
	if setupErr != nil {
		flag = 1
	}
	if c.AllReduceSum(flag) > 0 {
		if setupErr != nil {
			return nil, setupErr
		}
		return nil, fmt.Errorf("par: peer rank failed preconditioner setup")
	}

	// Shifted weights evaluate the global checksum vector at this rank's
	// global row indices, so locally encoded stage matrices yield exactly
	// this rank's slice of the global checksum rows.
	shifted := make([]checksum.Weight, len(e.weights))
	for k, w := range e.weights {
		shifted[k] = checksum.ShiftWeight(w, lo)
	}
	e.encStg = make([]*checksum.Matrix, len(e.stages))
	for i, st := range e.stages {
		e.encStg[i] = checksum.EncodeMatrix(st.M, shifted, e.dScalar)
	}

	// This rank's slices of checksum(A), one per carried weight: partial
	// c_kᵀA from the owned rows, all-reduced over the team, then sliced
	// and shifted. e.xg is free until the first MVM and serves as the
	// n-length scratch of every weight.
	full := e.xg
	e.rowAs = make([][]float64, len(e.weights))
	for k, w := range e.weights {
		clear(full)
		checksum.PartialMatrixRow(a, w, lo, hi, full)
		c.AllReduceVec(full, full)
		e.rowAs[k] = checksum.LocalRowSlice(full, w, e.dScalar, lo, hi)
	}

	if opts.TwoLevel {
		e.diagWeights = []checksum.Weight{checksum.Linear, checksum.Harmonic}
		e.diagRows = make([][]float64, len(e.diagWeights))
		for k, w := range e.diagWeights {
			clear(full)
			checksum.PartialMatrixRow(a, w, lo, hi, full)
			c.AllReduceVec(full, full)
			e.diagRows[k] = append([]float64(nil), full[lo:hi]...)
		}
	}

	e.bL = NewDistVector(e.local, len(e.weights))
	copy(e.bL.Data, b[lo:hi])
	e.bL.LocalChecksums(e.weights, lo)
	return e, nil
}

func (e *rankEngine) newVec() *DistVector { return NewDistVector(e.local, len(e.weights)) }

// strike applies fault f to v[f.Index] (out of range, -1 included, means
// v[0]) — the flip/additive arithmetic shared by the output, checksum and
// checkpoint targets.
func strike(f Fault, v []float64) {
	idx := f.Index
	if idx < 0 || idx >= len(v) {
		idx = 0
	}
	if f.BitFlip {
		bit := uint(62)
		if f.Bit >= 0 && f.Bit <= 63 {
			bit = uint(f.Bit)
		}
		v[idx] = math.Float64frombits(math.Float64bits(v[idx]) ^ (1 << bit))
		return
	}
	mag := f.Magnitude
	if mag == 0 {
		mag = 1e4
	}
	v[idx] += mag
}

// fires reports whether scheduled fault fi strikes target now — addressed
// to this rank at iteration iter and, but for a checkpoint strike, at the
// current MVM — and marks it fired. Faults are one-shot: a strike consumed
// before a rollback does not re-fire when its iteration re-executes (the
// paper's scenarios schedule a fixed set of errors).
func (e *rankEngine) fires(fi int, target Target, iter int) bool {
	f := &e.opts.Faults[fi]
	if f.Target != target || f.Iteration != iter || f.Rank != e.c.Rank() || (target != TargetCheckpoint && f.MVM != e.curSeq) || e.fired[fi] {
		return false
	}
	e.fired[fi] = true
	e.res.InjectedFaults++
	return true
}

// trace appends one timeline event on rank 0 (see Result.Trace).
func (e *rankEngine) trace(iter int, kind core.EventKind, format string, args ...any) {
	if e.c.Rank() != 0 {
		return
	}
	e.res.Trace = append(e.res.Trace, core.TraceEvent{
		Iteration: iter,
		Kind:      kind,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// detect counts one detection (replicated on every rank) and records it on
// the team timeline.
func (e *rankEngine) detect(iter int, format string, args ...any) {
	e.res.Detections++
	e.trace(iter, core.EvDetection, format, args...)
}

// mvmClean computes the local block of dst = A·src with no instrumentation
// and no checksum update — the recovery and setup paths use it.
func (e *rankEngine) mvmClean(dst, src *DistVector) {
	e.c.AllGather(e.xg, src.Data, e.lo)
	e.dm.MulVec(dst.Data, e.xg)
}

// mvm is the protected distributed MVM: gather, local multiply, scheduled
// fault injection, then the partial Eq. (2) checksum update — this rank's
// slice of checksum(A) against its own block of the (clean) input, plus d
// times the carried partial input checksum. The partials sum to the global
// rule, so an injected error leaves dst.Data inconsistent with dst.S.
func (e *rankEngine) mvm(dst, src *DistVector) {
	e.mvmClean(dst, src)
	for fi, f := range e.opts.Faults {
		if e.fires(fi, TargetOutput, e.curIter) {
			strike(f, dst.Data)
		}
	}
	for k := range e.weights {
		row := e.rowAs[k]
		var dot float64
		for j := 0; j < e.local; j++ {
			dot += row[j] * src.Data[j]
		}
		dst.S[k] = dot + e.dScalar*src.S[k]
	}
	// A checksum strike corrupts the carried partial checksum after the
	// update: the data stays clean, the protection breaks — the false
	// positive the verifier must charge a rollback for.
	for fi, f := range e.opts.Faults {
		if e.fires(fi, TargetChecksum, e.curIter) {
			strike(f, dst.S[:1]) // the first weight's, whatever the index
		}
	}
	e.curSeq++
}

// mvmFresh computes dst = A·src with directly recomputed checksums — the
// recovery path, which must not consume fault strikes.
func (e *rankEngine) mvmFresh(dst, src *DistVector) {
	e.mvmClean(dst, src)
	dst.LocalChecksums(e.weights, e.lo)
}

// residualFresh recomputes r = b − A·x with fresh local checksums.
func (e *rankEngine) residualFresh(r, x *DistVector) {
	e.mvmClean(r, x)
	vec.Sub(r.Data, e.bL.Data, r.Data)
	r.LocalChecksums(e.weights, e.lo)
}

// pco applies the local block preconditioner stage by stage, carrying the
// partial checksum through each solve (Eq. 4) or multiply (Eq. 2). With no
// stages it is the identity.
func (e *rankEngine) pco(dst, src *DistVector) error {
	in, inS := src.Data, src.S
	// The stage chain ping-pongs between the engine's scratch and dst — a
	// stage's input (in, inS) is dead once consumed — starting on the side
	// that makes the last stage write dst. dst must not alias src.
	buf, spare := e.pcoBuf, dst.Data
	if len(e.stages)%2 == 1 {
		buf, spare = spare, buf
	}
	bufS, spareS := e.pcoS, e.pcoS2
	for k, st := range e.stages {
		if err := st.Apply(buf, in); err != nil {
			return err
		}
		switch st.Op {
		case precond.StageSolve:
			e.encStg[k].UpdatePCO(bufS, buf, inS)
		case precond.StageMul:
			e.encStg[k].UpdateMVM(bufS, in, inS)
		}
		in, inS = buf, bufS
		buf, spare = spare, buf
		bufS, spareS = spareS, bufS
	}
	if len(e.stages) == 0 {
		copy(dst.Data, in)
	}
	copy(dst.S, inS)
	return nil
}

// The VLO family updates data and carried checksums together (Eq. 3).

func (e *rankEngine) axpy(y *DistVector, alpha float64, x *DistVector) {
	vec.Axpy(y.Data, alpha, x.Data)
	checksum.UpdateVLOAxpy(y.S, alpha, x.S)
}

func (e *rankEngine) xpby(dst, x *DistVector, beta float64, y *DistVector) {
	vec.Xpby(dst.Data, x.Data, beta, y.Data)
	checksum.UpdateVLOAxpby(dst.S, 1, x.S, beta, y.S)
}

func (e *rankEngine) axpbyInto(dst *DistVector, alpha float64, x *DistVector, beta float64, y *DistVector) {
	vec.Axpby(dst.Data, alpha, x.Data, beta, y.Data)
	checksum.UpdateVLOAxpby(dst.S, alpha, x.S, beta, y.S)
}

func copyDist(dst, src *DistVector) {
	copy(dst.Data, src.Data)
	copy(dst.S, src.S)
}

func (e *rankEngine) dot(a, b *DistVector) float64 { return GlobalDot(e.c, a, b) }

// dotRaw is the global inner product of a plain local block (BiCGStab's
// fixed shadow residual) with a distributed vector.
func (e *rankEngine) dotRaw(a []float64, b *DistVector) float64 {
	return e.c.AllReduceSum(vec.Dot(a, b.Data))
}

func (e *rankEngine) norm2(a *DistVector) float64 { return GlobalNorm2(e.c, a) }

// verify checks the global checksum relationship of v. Every rank returns
// the same verdict because the reductions are replicated-deterministic. A
// passing verdict re-anchors the carried checksums to the verified data, so
// recurrence round-off cannot accumulate into a false positive over a long
// solve; a failing verdict leaves the checksums untouched for diagnosis.
func (e *rankEngine) verify(v *DistVector) bool {
	if !VerifyGlobal(e.c, v, e.weights[0], 0, e.lo, e.n, e.tol) {
		return false
	}
	for k := 1; k < len(e.weights); k++ {
		v.S[k], _ = localSums(e.weights[k], e.lo, v.Data)
	}
	return true
}

// innerCheck is the distributed two-level inner level run after a protected
// MVM out = A·in: global δ1 probe on out, input-purity check on in, lazy
// δ2/δ3 evaluation, in-place correction by the owner rank. Returns false
// when a rollback is required. Every rank returns the same verdict.
func (e *rankEngine) innerCheck(out, in *DistVector) bool {
	gSum, gAbs, gS := e.globalSums(out, 0)
	d1 := gSum - gS
	if e.tol.ConsistentBound(d1, e.n, gAbs, 0) {
		return true
	}
	e.detect(e.curIter, "inner-level: MVM output checksum inconsistency")
	// Input purity: a carried inconsistency in the input mimics a single
	// output error; only a clean input makes the signature trustworthy.
	if !e.verify(in) {
		return false
	}
	deltas := [3]float64{d1}
	absSums := [3]float64{gAbs}
	for k, w := range e.diagWeights {
		var exp float64
		for i, x := range in.Data {
			exp += e.diagRows[k][i] * x
		}
		qs, qa := localSums(w, e.lo, out.Data)
		deltas[k+1] = e.c.AllReduceSum(qs) - e.c.AllReduceSum(exp)
		absSums[k+1] = e.c.AllReduceSum(qa)
	}
	diag := checksum.Diagnose(deltas[:], e.n, absSums[:], e.tol)
	if diag.Kind != checksum.SingleError {
		return false
	}
	if diag.Pos >= e.lo && diag.Pos < e.hi {
		out.Data[diag.Pos-e.lo] -= diag.Magnitude
	}
	e.res.Corrections++
	e.trace(e.curIter, core.EvCorrection, "inner-level: corrected element %d", diag.Pos)
	e.c.Barrier() // correction visible before anyone reads out
	return true
}
