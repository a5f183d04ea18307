package par

import (
	"cmp"
	"fmt"
	"math"
	"sync"

	"newsum/internal/checkpoint"
	"newsum/internal/checksum"
	"newsum/internal/core"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// This file is the rank engine: one rank's block of a distributed solve as
// a backend of core's driver (core.Backend). Every rank runs core's driver,
// guards and recurrences over its own engine; the engine's reductions and
// verdicts are all-reduced, so every rank takes every branch at the same
// iteration and the solver counters are replicated.

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
// It is core's sentinel: the rank team runs core's driver.
var ErrRollbackStorm = core.ErrRollbackStorm

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
	// X is the solution, gathered whole; nil when the solve aborted (a
	// rollback storm or a hard error) instead of converging or running out
	// of iterations.
	X           []float64
	Iterations  int
	Converged   bool
	Residual    float64
	Rollbacks   int
	Checkpoints int
	// Detections counts failed verifications and suspect recurrence
	// scalars, as core.Stats does.
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

// ABFTPCG runs the basic online ABFT PCG distributed over nranks goroutine
// ranks with a block-Jacobi ILU(0) preconditioner whose blocks coincide
// with the rank partition (the PETSc configuration of §6.3). All checksum
// state and checkpoints are rank-local; verification needs only scalar
// all-reductions, reproducing the paper's locality argument.
func ABFTPCG(a *sparse.CSR, b []float64, nranks int, opts Options) (Result, error) {
	return solve(core.MethodPCG, a, b, nranks, opts)
}

// ABFTBiCGStab runs the online ABFT preconditioned BiCGSTAB distributed over
// nranks goroutine ranks, with the block ILU(0) of ABFTPCG: two protected
// MVMs and two PCOs per iteration, a fixed shadow residual that is never
// checksummed, and an early exit on the intermediate residual s.
func ABFTBiCGStab(a *sparse.CSR, b []float64, nranks int, opts Options) (Result, error) {
	return solve(core.MethodPBiCGSTAB, a, b, nranks, opts)
}

// ABFTCR runs the online ABFT conjugate residual method distributed over
// nranks goroutine ranks, unpreconditioned like its serial core counterpart.
func ABFTCR(a *sparse.CSR, b []float64, nranks int, opts Options) (Result, error) {
	return solve(core.MethodCR, a, b, nranks, opts)
}

// solve runs core's driver on one goroutine rank per block of the
// nnz-balanced partition and merges the per-rank instrumentation into rank
// 0's result.
func solve(method core.Method, a *sparse.CSR, b []float64, nranks int, opts Options) (Result, error) {
	switch {
	case a.Rows != a.Cols:
		return Result{}, fmt.Errorf("par: matrix must be square")
	case len(b) != a.Rows:
		return Result{}, fmt.Errorf("par: rhs length %d, want %d", len(b), a.Rows)
	case nranks < 1 || nranks > a.Rows:
		return Result{}, fmt.Errorf("par: nranks %d out of range", nranks)
	}
	opts.normalize(a.Rows)
	part := NnzPartition(a, nranks)
	comms := NewTeamTopology(nranks, opts.Topology)
	results, errs := make([]Result, nranks), make([]error, nranks)
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = drive(method, comms[rank], a, b, part, opts)
		}(r)
	}
	wg.Wait()
	res := results[0]
	for _, o := range results[1:] {
		res.InjectedFaults += o.InjectedFaults
		res.CheckpointBytes += o.CheckpointBytes
		res.Comm.Merge(o.Comm)
	}
	return res, cmp.Or(errs...)
}

// drive is one rank's solve: core's driver over this rank's engine. CR is
// unpreconditioned; PCG and BiCGStab take the ILU(0) of the rank's block.
func drive(method core.Method, c *Comm, a *sparse.CSR, b []float64, part Partition, opts Options) (Result, error) {
	var cres core.Result
	e, err := newRankEngine(c, a, b, part, &opts, &cres.Stats, method != core.MethodCR)
	if err != nil {
		return Result{}, err
	}
	copts := core.Options{
		Options:            solver.Options{Tol: opts.Tol, MaxIter: opts.MaxIter},
		DetectInterval:     opts.DetectInterval,
		CheckpointInterval: opts.CheckpointInterval,
		Theta:              opts.Theta,
		MaxRollbacks:       opts.MaxRollbacks,
		ForwardRecovery:    opts.ForwardRecovery,
	}
	if c.Rank() == 0 {
		copts.Trace = &core.Trace{Cap: math.MaxInt}
	}
	scheme := core.Basic
	if opts.TwoLevel {
		scheme = core.TwoLevel
	}
	// PCG snapshots p unverified until the benchmark re-pin that brings η
	// to par (ROADMAP item 3(ii)).
	err = core.Drive(method, scheme, e, e.b, &cres, copts, method != core.MethodPCG)
	st := &cres.Stats
	res := Result{
		X: cres.X, Iterations: cres.Iterations, Converged: cres.Converged, Residual: cres.Residual,
		Rollbacks: st.Rollbacks, Checkpoints: st.Checkpoints, Detections: st.Detections, Corrections: st.Corrections,
		WastedIterations: st.WastedIterations, ForwardRepairs: st.ForwardRepairs, RollbacksAvoided: st.RollbacksAvoided,
		IterationsSaved: st.IterationsSaved, RejectedCorrections: st.RejectedCorrections,
		CheckpointBytes: st.CheckpointBytes, InjectedFaults: st.InjectedErrors, Comm: c.Stats(),
	}
	if tr := copts.Trace; tr != nil {
		res.Trace = tr.Events
	}
	return res, err
}

// rankEngine is one rank's view of a protected distributed solve: its row
// block, its slice of the encoded checksum rows, its local preconditioner
// stages, and the instrumented operations core's recurrences run on it.
type rankEngine struct {
	c      *Comm
	a      *sparse.CSR
	dm     *DistMatrix
	lo, hi int
	local  int
	n      int
	faults []Fault
	stats  *core.Stats

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
	// lv is the leaf workspace of the row reductions the fused MVM and PCO
	// kernels take inside their own sweeps, as core's engine takes them.
	lv *vec.Leaves
	// Lazy diagnosis state for the two-level inner check: this rank's
	// column slices of c_kᵀA for the locating weights.
	diagWeights []checksum.Weight
	diagRows    [][]float64

	b  *core.Vec // this rank's block of the right-hand side
	xg []float64 // gathered global vector buffer

	fired    []bool
	injected int
	// iter and seq are the (iteration, MVM within it) coordinate faults are
	// addressed by: seq counts the protected MVMs since iter began.
	iter, seq int
}

// newRankEngine prepares one rank's engine: partition block, local ILU(0)
// block preconditioner (when withPrecond), encoded checksum rows, and the
// rank's slice of the global encoding. Collective calls inside must be
// matched by every rank, so the constructor runs identically everywhere —
// including the setup-failure verdict, which is all-reduced so a rank whose
// factorization fails cannot strand its peers in a collective.
func newRankEngine(c *Comm, a *sparse.CSR, b []float64, part Partition, opts *Options, stats *core.Stats, withPrecond bool) (*rankEngine, error) {
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
		faults: opts.Faults, stats: stats,
		weights: weights,
		tol:     checksum.Tol{Theta: opts.Theta},
		dScalar: checksum.PracticalD(a),
		xg:      make([]float64, a.Rows),
		fired:   make([]bool, len(opts.Faults)),
		iter:    -1,
	}
	e.lv = vec.NewLeaves(len(e.weights), e.local)
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

	// The rank adopts its block of b, as core's engine adopts b: the solve
	// only reads it.
	e.b = &core.Vec{Name: "b", Data: b[lo:hi:hi], S: make([]float64, len(e.weights))}
	e.Reanchor(e.b)
	return e, nil
}

// NewVec allocates a zero block of the rank's length with its partial
// checksum slots, in one array. It carries no round-off bound.
func (e *rankEngine) NewVec(name string) *core.Vec {
	buf := make([]float64, e.local+len(e.weights))
	return &core.Vec{Name: name, Data: buf[:e.local:e.local], S: buf[e.local:]}
}

// Reanchor recomputes v's partial checksums from its block: rank-local, no
// collective.
func (e *rankEngine) Reanchor(v *core.Vec) {
	for k, w := range e.weights {
		v.S[k], _ = localSums(w, e.lo, v.Data)
	}
}

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
	f := &e.faults[fi]
	if f.Target != target || f.Iteration != iter || f.Rank != e.c.Rank() || (target != TargetCheckpoint && f.MVM != e.seq) || e.fired[fi] {
		return false
	}
	e.fired[fi] = true
	e.injected++
	return true
}

// Injected counts the faults that have fired on this rank.
func (e *rankEngine) Injected() int { return e.injected }

// MVM is the protected distributed MVM: gather, local multiply, scheduled
// fault injection, then the partial Eq. (2) checksum update — this rank's
// slice of checksum(A) against its own block of the (clean) input, plus d
// times the carried partial input checksum. The partials sum to the global
// rule, so an injected error leaves dst.Data inconsistent with dst.S. The
// row reductions ride the product's own sweep (sparse.CSR.MulVecDotAbs over
// the rank's rows, leaves numbered from its first row): they read the
// gathered copy of src's block, and an output fault touches dst alone.
func (e *rankEngine) MVM(iter int, dst, src *core.Vec) {
	if iter != e.iter {
		e.iter, e.seq = iter, 0
	}
	e.c.AllGather(e.xg, src.Data, e.lo)
	e.a.MulVecDotAbs(dst.Data, e.xg, e.rowAs, e.lv, e.lo, e.lo, e.hi)
	for fi, f := range e.faults {
		if e.fires(fi, TargetOutput, iter) {
			strike(f, dst.Data)
		}
	}
	e.lv.Fold()
	for k := range e.weights {
		dst.S[k] = e.lv.Sum[k] + e.dScalar*src.S[k]
	}
	// A checksum strike corrupts the carried partial checksum after the
	// update: the data stays clean, the protection breaks — the false
	// positive the verifier must charge a rollback for.
	for fi, f := range e.faults {
		if e.fires(fi, TargetChecksum, iter) {
			strike(f, dst.S[:1]) // the first weight's, whatever the index
		}
	}
	e.seq++
}

// mulClean computes the local block of dst = A·src with no instrumentation
// and no checksum update.
func (e *rankEngine) mulClean(dst, src []float64) {
	e.c.AllGather(e.xg, src, e.lo)
	e.dm.MulVec(dst, e.xg)
}

// MulClean computes dst = A·src with directly recomputed checksums — the
// recovery path, which must not consume fault strikes.
func (e *rankEngine) MulClean(dst, src *core.Vec) {
	e.mulClean(dst.Data, src.Data)
	e.Reanchor(dst)
}

// Residual recomputes r = b − A·x with fresh local checksums. A rollback
// rebuilds r before its iteration runs again, so the fault clock restarts:
// the re-run's first MVM is MVM 0 again.
func (e *rankEngine) Residual(r, b, x *core.Vec) {
	e.mulClean(r.Data, x.Data)
	vec.Sub(r.Data, b.Data, r.Data)
	e.Reanchor(r)
	e.iter = -1
}

// PCO applies the local block preconditioner stage by stage, carrying the
// partial checksum through each solve with Eq. (4) as core's engine does:
// the rank's ILU(0) is two solve stages, and a solve may run in place, so
// every stage writes straight into dst — the fold carries dst.S in place —
// with its row reductions taken inside its own sweep. With no stages it is
// the identity. dst must not alias src. No fault targets it.
func (e *rankEngine) PCO(_ int, dst, src *core.Vec) error {
	in, inS := src.Data, src.S
	for k, st := range e.stages {
		enc := e.encStg[k]
		if err := st.ApplyDotAbs(dst.Data, in, enc.Rows, e.lv); err != nil {
			return err
		}
		e.lv.Fold()
		for j, sum := range e.lv.Sum {
			dst.S[j] = (inS[j] - sum) / enc.D
		}
		in, inS = dst.Data, dst.S
	}
	if len(e.stages) == 0 {
		copy(dst.Data, src.Data)
		copy(dst.S, src.S)
	}
	return nil
}

// PrecondClean applies the block preconditioner with fresh checksums.
func (e *rankEngine) PrecondClean(dst, src *core.Vec) error {
	if err := e.PCO(-1, dst, src); err != nil {
		return err
	}
	e.Reanchor(dst)
	return nil
}

// The VLO family updates data and carried checksums together (Eq. 3).

func (e *rankEngine) Axpy(_ int, y *core.Vec, alpha float64, x *core.Vec) {
	vec.Axpy(y.Data, alpha, x.Data)
	checksum.UpdateVLOAxpy(y.S, alpha, x.S)
}

func (e *rankEngine) Xpby(_ int, dst, x *core.Vec, beta float64, y *core.Vec) {
	vec.Xpby(dst.Data, x.Data, beta, y.Data)
	checksum.UpdateVLOAxpby(dst.S, 1, x.S, beta, y.S)
}

func (e *rankEngine) Axpby(_ int, dst *core.Vec, alpha float64, x *core.Vec, beta float64, y *core.Vec) {
	vec.Axpby(dst.Data, alpha, x.Data, beta, y.Data)
	checksum.UpdateVLOAxpby(dst.S, alpha, x.S, beta, y.S)
}

// Dot is the global inner product of two blocks: one scalar all-reduce.
func (e *rankEngine) Dot(u, v []float64) float64 { return e.c.AllReduceSum(vec.Dot(u, v)) }

// Norm2 is the global Euclidean norm of a block (GlobalNorm2).
func (e *rankEngine) Norm2(u []float64) float64 { return GlobalNorm2(e.c, u) }

// TakeFlag is always false: the rank engine has no eager mode.
func (e *rankEngine) TakeFlag() bool { return false }

// Strike fires the checkpoint strikes scheduled against this rank at iter:
// every snapshotted vector in sorted-name order (Strike's visit order), so
// the corruption is deterministic and lands in the stored payload, dormant
// until a rollback restores it.
func (e *rankEngine) Strike(iter int, store *checkpoint.Store) {
	for fi, f := range e.faults {
		if e.fires(fi, TargetCheckpoint, iter) {
			store.Strike(func(_ string, buf []float64) { strike(f, buf) })
		}
	}
}

// Gather assembles x whole on every rank: into a fresh slice on rank 0,
// whose result is the team's, into the gather scratch elsewhere.
func (e *rankEngine) Gather(x *core.Vec) []float64 {
	g := e.xg
	if e.c.Rank() == 0 {
		g = make([]float64, e.n)
	}
	e.c.AllGather(g, x.Data, e.lo)
	return g
}

// globalSums all-reduces the weight-k checksum probe of v: the global
// weighted sum, its absolute-value companion for the threshold, and the
// global carried checksum.
func (e *rankEngine) globalSums(v *core.Vec, k int) (gSum, gAbs, gS float64) {
	sum, abs := localSums(e.weights[k], e.lo, v.Data)
	return e.c.AllReduceSum(sum), e.c.AllReduceSum(abs), e.c.AllReduceSum(v.S[k])
}

// check tests the global first checksum relation of v with no round-off
// bound (par carries none). Every rank returns the same verdict because the
// reductions are replicated-deterministic. A pass re-anchors the carried
// checksums to the verified data, so recurrence round-off cannot accumulate
// into a false positive over a long solve; a failure leaves them untouched
// for diagnosis.
func (e *rankEngine) check(v *core.Vec) bool {
	sum, abs := localSums(e.weights[0], e.lo, v.Data)
	gSum, gAbs, gS := e.c.AllReduceSum(sum), e.c.AllReduceSum(abs), e.c.AllReduceSum(v.S[0])
	if !e.tol.ConsistentBound(gSum-gS, e.n, gAbs, 0) {
		return false
	}
	v.S[0] = sum
	for k := 1; k < len(e.weights); k++ {
		v.S[k], _ = localSums(e.weights[k], e.lo, v.Data)
	}
	return true
}

// Verify is check, counted.
func (e *rankEngine) Verify(v *core.Vec) bool {
	e.stats.Verifications++
	if e.check(v) {
		return true
	}
	e.stats.Detections++
	return false
}

// InnerCheck is the distributed two-level inner level run after a protected
// MVM out = A·in: global δ1 probe on out, input-purity check on in, lazy
// δ2/δ3 evaluation, in-place correction by the owner rank. Every rank
// returns the same diagnosis.
func (e *rankEngine) InnerCheck(out, in *core.Vec) checksum.TripleDiagnosis {
	e.stats.Verifications++
	gSum, gAbs, gS := e.globalSums(out, 0)
	d1 := gSum - gS
	if e.tol.ConsistentBound(d1, e.n, gAbs, 0) {
		return checksum.TripleDiagnosis{Kind: checksum.NoError}
	}
	e.stats.Detections++
	// Input purity: a carried inconsistency in the input mimics a single
	// output error; only a clean input makes the signature trustworthy.
	if !e.check(in) {
		return checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
	}
	deltas := [3]float64{d1}
	absSums := [3]float64{gAbs}
	for k, w := range e.diagWeights {
		qs, qa := localSums(w, e.lo, out.Data)
		deltas[k+1] = e.c.AllReduceSum(qs) - e.c.AllReduceSum(vec.Dot(e.diagRows[k], in.Data))
		absSums[k+1] = e.c.AllReduceSum(qa)
	}
	diag := checksum.Diagnose(deltas[:], e.n, absSums[:], e.tol)
	if diag.Kind != checksum.SingleError {
		return diag
	}
	// The owner recomputes the located element from the gathered input MVM
	// left in e.xg, verified clean above: exact, where subtracting the
	// estimated magnitude leaves the estimate's round-off behind.
	if pos := diag.Pos; pos >= e.lo && pos < e.hi {
		e.a.MulVecRows(out.Data[pos-e.lo:pos-e.lo+1], e.xg, pos, pos+1)
	}
	e.stats.Corrections++
	e.c.Barrier() // correction visible before anyone reads out
	return diag
}
