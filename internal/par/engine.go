package par

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"newsum/internal/checkpoint"
	"newsum/internal/checksum"
	"newsum/internal/core"
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// This file is the distributed counterpart of internal/core/engine.go: the
// per-rank machinery every parallel ABFT solver shares. A solver body (see
// pcg.go, bicgstab.go, cr.go) is written against a rankEngine exactly the
// way the serial solvers are written against *engine — tracked distributed
// vectors, instrumented MVM/PCO/VLO operations that carry partial checksums,
// replicated verification, and checkpoint/rollback helpers — so adding a new
// protected solver is one recurrence loop, not a re-derivation of the
// distribution and protection layers.

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
	// CheckpointCodec selects the snapshot codec every rank checkpoints
	// through: full deep copies (default), error-bounded lossy
	// quantization, or differential encoding against the last verified
	// snapshot (see internal/checkpoint).
	CheckpointCodec checkpoint.Codec
	// CheckpointAbsBound and CheckpointRelBound bound the lossy codec's
	// per-element restore error; both zero selects the package default
	// relative bound. Ignored by the full and differential codecs.
	CheckpointAbsBound, CheckpointRelBound float64
	// Faults schedules arithmetic MVM errors.
	Faults []Fault
	// Ctx, when non-nil, lets the caller cancel a running distributed solve.
	// Cancellation is observed through a replicated probe (one scalar
	// all-reduce per iteration) so every rank aborts at the same iteration
	// boundary — a rank noticing ctx.Done() unilaterally would strand its
	// peers inside a collective. nil means run to completion.
	Ctx context.Context
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
	// CheckpointBytes and CheckpointStoredBytes sum, over all ranks, the
	// logical bytes snapshotted (vectors + carried checksums at 8 bytes
	// per element) and the bytes the configured codec actually stored.
	CheckpointBytes, CheckpointStoredBytes int64
	// LossyRestores counts rollbacks that restored quantized state and
	// re-anchored the carried checksums from it (replicated, so rank 0's
	// count is the team's).
	LossyRestores int
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

func validateProblem(a *sparse.CSR, b []float64, nranks int) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("par: matrix must be square")
	}
	if len(b) != a.Rows {
		return fmt.Errorf("par: rhs length %d, want %d", len(b), a.Rows)
	}
	if nranks < 1 || nranks > a.Rows {
		return fmt.Errorf("par: nranks %d out of range", nranks)
	}
	return nil
}

// runTeam spawns one goroutine rank per Comm, runs body on each, and merges
// the per-rank instrumentation (fault counts and comm stats) into rank 0's
// replicated result. The solver counters (iterations, detections, …) are
// identical on every rank because every branch they feed is taken on a
// replicated all-reduced value.
func runTeam(nranks int, topo Topology, body func(c *Comm) (Result, error)) (Result, error) {
	comms := NewTeamTopology(nranks, topo)
	results := make([]Result, nranks)
	errs := make([]error, nranks)
	var wg sync.WaitGroup
	for r := 0; r < nranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = body(comms[rank])
		}(r)
	}
	wg.Wait()
	res := results[0]
	for r := 1; r < nranks; r++ {
		res.InjectedFaults += results[r].InjectedFaults
		res.CheckpointBytes += results[r].CheckpointBytes
		res.CheckpointStoredBytes += results[r].CheckpointStoredBytes
		res.Comm.Merge(results[r].Comm)
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
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

	store          checkpoint.Store
	ckData, ckSums map[string][]float64 // stateMaps' two maps …
	ckNames        string               // … and the names in them, sorted and joined
	fired          []bool
	// curIter/curSeq track the (iteration, MVM-within-iteration) coordinate
	// faults are addressed by; beginIter resets the sequence.
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
		store: checkpoint.Store{
			Codec:    opts.CheckpointCodec,
			AbsBound: opts.CheckpointAbsBound,
			RelBound: opts.CheckpointRelBound,
		},
	}
	e.pcoBuf = make([]float64, e.local)
	e.pcoS = make([]float64, len(e.weights))
	e.pcoS2 = make([]float64, len(e.weights))

	var setupErr error
	if withPrecond {
		// Local block preconditioner: ILU(0) of the diagonal block, exactly
		// block-Jacobi with blocks = ranks. The factorization leaves its
		// input alone, so a team of one factors a itself.
		blk := a
		if c.Size() > 1 {
			blk = a.SubMatrix(lo, hi)
		}
		mLocal, err := precond.ILU0(blk)
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

// beginIter sets the fault coordinate for the iteration about to run.
func (e *rankEngine) beginIter(i int) { e.curIter = i; e.curSeq = 0 }

// canceled is the replicated cancellation probe: each rank contributes its
// local view of Options.Ctx to a scalar all-reduce, so the verdict — and
// therefore the abort point — is identical on every rank and no rank leaves
// a peer blocked in a collective. Without a context it costs nothing.
func (e *rankEngine) canceled() bool {
	if e.opts.Ctx == nil {
		return false
	}
	flag := 0.0
	select {
	case <-e.opts.Ctx.Done():
		flag = 1
	default:
	}
	return e.c.AllReduceSum(flag) > 0
}

// cancelErr builds the per-rank abort error after a positive canceled()
// verdict, wrapping the context's own error so callers can classify it.
func (e *rankEngine) cancelErr(method string) error {
	err := e.opts.Ctx.Err()
	if err == nil {
		// Replicated verdict but this rank's ctx not yet settled locally —
		// the cause is still cancellation.
		err = context.Canceled
	}
	return fmt.Errorf("par: %s solve canceled: %w", method, err)
}

// finish stores the rank's collective instrumentation into the result; the
// solver bodies defer it so every exit path reports comm stats.
func (e *rankEngine) finish() { e.res.Comm = e.c.Stats() }

// strike applies one fault to v[idx] — the flip/additive arithmetic shared
// by the output, checksum and checkpoint targets.
func strike(f Fault, v []float64, idx int) {
	if f.BitFlip {
		bit := uint(62)
		if f.Bit >= 0 && f.Bit <= 63 {
			bit = uint(f.Bit)
		}
		v[idx] = math.Float64frombits(math.Float64bits(v[idx]) ^ (1 << bit))
		return
	}
	mag := f.Magnitude
	//lint:ignore floatcmp Magnitude == 0 is the unset sentinel selecting the default error
	if mag == 0 {
		mag = 1e4
	}
	v[idx] += mag
}

// inject fires any scheduled output fault addressed to this rank at the
// current (iteration, MVM) coordinate. Faults are one-shot: a strike
// consumed before a rollback does not re-fire when its iteration
// re-executes (the paper's scenarios schedule a fixed set of errors).
func (e *rankEngine) inject(dst *DistVector) {
	for fi, f := range e.opts.Faults {
		if f.Target != TargetOutput || f.Iteration != e.curIter || f.Rank != e.c.Rank() || f.MVM != e.curSeq || e.fired[fi] {
			continue
		}
		e.fired[fi] = true
		e.res.InjectedFaults++
		idx := f.Index
		if idx < 0 || idx >= e.local {
			idx = 0
		}
		strike(f, dst.Data, idx)
	}
}

// injectChecksum fires checksum-state faults at the current (iteration, MVM)
// coordinate, corrupting the carried partial checksum scalar after the MVM
// updated it. The output data stays clean; the protection breaks — the
// false-positive the verifier must charge a rollback for.
func (e *rankEngine) injectChecksum(dst *DistVector) {
	for fi, f := range e.opts.Faults {
		if f.Target != TargetChecksum || f.Iteration != e.curIter || f.Rank != e.c.Rank() || f.MVM != e.curSeq || e.fired[fi] {
			continue
		}
		e.fired[fi] = true
		e.res.InjectedFaults++
		strike(f, dst.S, 0)
	}
}

// trace appends one timeline event, recorded by rank 0 only: every verdict
// that drives an event is replicated-deterministic, so rank 0's log is the
// team's log, in core's event vocabulary.
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
	e.inject(dst)
	for k := range e.weights {
		row := e.rowAs[k]
		var dot float64
		for j := 0; j < e.local; j++ {
			dot += row[j] * src.Data[j]
		}
		dst.S[k] = dot + e.dScalar*src.S[k]
	}
	e.injectChecksum(dst)
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
	for k := range y.S {
		y.S[k] += alpha * x.S[k]
	}
}

func (e *rankEngine) xpby(dst, x *DistVector, beta float64, y *DistVector) {
	vec.Xpby(dst.Data, x.Data, beta, y.Data)
	for k := range dst.S {
		dst.S[k] = x.S[k] + beta*y.S[k]
	}
}

func (e *rankEngine) axpbyInto(dst *DistVector, alpha float64, x *DistVector, beta float64, y *DistVector) {
	vec.Axpby(dst.Data, alpha, x.Data, beta, y.Data)
	for k := range dst.S {
		dst.S[k] = alpha*x.S[k] + beta*y.S[k]
	}
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

// scalarSanityBound is the largest magnitude a recurrence scalar can take
// before it is treated as corrupted: beyond ≈√MaxFloat64 any product of two
// such scalars overflows, and an exponent-bit upset scales an iterate
// element by 2^±1024 — landing its dot products far past this bound. The
// guard matters because a huge denominator is then divided away (α = ρ/r̂ᵀv
// collapses toward zero), scaling the corruption below the checksum
// detection threshold before the next verification boundary sees it.
const scalarSanityBound = 1e150

// breakdownSuspect reports whether a replicated recurrence scalar is
// unusable — exactly zero, NaN, Inf, or absurdly large. Under ABFT such a
// value right after a protected MVM is far more likely a propagated fault
// than a genuine Lanczos-type breakdown, so the solver loops treat it as a
// detection and roll back; only an exhausted rollback budget surfaces it as
// an error.
func breakdownSuspect(v float64) bool {
	//lint:ignore floatcmp exact zero is the breakdown condition itself
	return v == 0 || math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > scalarSanityBound
}

// innerCheck is the distributed two-level inner level run after a protected
// MVM out = A·in: global δ1 probe on out, input-purity check on in, lazy
// δ2/δ3 evaluation, in-place correction by the owner rank. Returns false
// when a rollback is required. Every rank returns the same verdict.
func (e *rankEngine) innerCheck(out, in *DistVector) bool {
	sum, absSum := localSums(e.weights[0], e.lo, out.Data)
	gSum := e.c.AllReduceSum(sum)
	gAbs := e.c.AllReduceSum(absSum)
	gS := e.c.AllReduceSum(out.S[0])
	d1 := gSum - gS
	if e.tol.ConsistentAbs(d1, e.n, gAbs) {
		return true
	}
	e.detect(e.curIter, "inner-level: MVM output checksum inconsistency")
	// Input purity: a carried inconsistency in the input mimics a single
	// output error; only a clean input makes the signature trustworthy.
	if !e.verify(in) {
		return false
	}
	deltas := []float64{d1, 0, 0}
	absSums := []float64{gAbs, 0, 0}
	for k, w := range e.diagWeights {
		var exp float64
		for i, x := range in.Data {
			exp += e.diagRows[k][i] * x
		}
		qs, qa := localSums(w, e.lo, out.Data)
		deltas[k+1] = e.c.AllReduceSum(qs) - e.c.AllReduceSum(exp)
		absSums[k+1] = e.c.AllReduceSum(qa)
	}
	diag := checksum.Diagnose(deltas, e.n, absSums, e.tol)
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

// stateMaps returns the vectors' data and checksum slices by name — the two
// maps the store saves from and restores into — built on the first call: a
// solver checkpoints and restores the same vectors every time, and their
// sorted names are joined once for the timeline.
func (e *rankEngine) stateMaps(vecs map[string]*DistVector) (data, sums map[string][]float64) {
	if e.ckData == nil {
		e.ckData, e.ckSums = make(map[string][]float64, len(vecs)), make(map[string][]float64, len(vecs))
		names := make([]string, 0, len(vecs))
		for name, v := range vecs {
			e.ckData[name], e.ckSums[name] = v.Data, v.S
			names = append(names, name)
		}
		sort.Strings(names)
		e.ckNames = strings.Join(names, ", ")
	}
	return e.ckData, e.ckSums
}

// save snapshots the given tracked vectors (data + checksums) and scalars,
// then fires any checkpoint-buffer faults scheduled against this rank at
// this iteration: the snapshot copy is poisoned, the live state is not, so
// the corruption stays dormant until a rollback restores it.
func (e *rankEngine) save(iter int, vecs map[string]*DistVector, scalars map[string]float64) {
	data, sums := e.stateMaps(vecs)
	e.store.Save(iter, data, scalars, sums)
	e.res.Checkpoints++
	e.res.CheckpointBytes = e.store.BytesCopied
	e.res.CheckpointStoredBytes = e.store.BytesStored
	e.trace(iter, core.EvCheckpoint, "snapshot {%s}", e.ckNames)
	for fi, f := range e.opts.Faults {
		if f.Target != TargetCheckpoint || f.Iteration != iter || f.Rank != e.c.Rank() || e.fired[fi] {
			continue
		}
		e.fired[fi] = true
		e.res.InjectedFaults++
		// Strike every snapshotted vector in sorted-name order (Strike's
		// visit order) so the corruption is deterministic regardless of
		// map iteration — it lands in the stored payload, whichever codec
		// encodes it, and stays dormant until a rollback.
		e.store.Strike(func(_ string, buf []float64) {
			idx := f.Index
			if idx < 0 || idx >= len(buf) {
				idx = 0
			}
			strike(f, buf, idx)
		})
	}
}

// restore rolls the tracked vectors and scalars back to the latest
// snapshot, charging one rollback against the budget. The verdict is
// replicated: every rank holds the same snapshot iteration and budget.
func (e *rankEngine) restore(vecs map[string]*DistVector, scalars map[string]float64) (int, bool) {
	e.res.Rollbacks++
	if e.res.Rollbacks > e.opts.MaxRollbacks {
		return 0, false
	}
	data, sums := e.stateMaps(vecs)
	snapIter, err := e.store.Restore(data, scalars, sums)
	if err != nil {
		return 0, false
	}
	if e.store.Lossy() {
		// The restored blocks are quantized: the exact carried checksums
		// that came back with them disagree with the perturbed data by up
		// to n·bound, which the next verification would flag as a fault.
		// Re-anchor each rank's partial checksums from the restored data —
		// a local recomputation, so the verdict stays replicated.
		for _, v := range vecs {
			v.LocalChecksums(e.weights, e.lo)
		}
		e.res.LossyRestores++
	}
	e.res.WastedIterations += e.curIter - snapIter
	e.trace(e.curIter, core.EvRollback, "restored iteration %d", snapIter)
	return snapIter, true
}

// gatherX assembles the full solution vector on every rank.
func (e *rankEngine) gatherX(x *DistVector) []float64 {
	out := e.xg // runTeam reports rank 0's result; the others' is dropped
	if e.c.Rank() == 0 {
		out = make([]float64, e.n)
	}
	e.c.AllGather(out, x.Data, e.lo)
	return out
}
