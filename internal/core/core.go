// Package core implements the paper's primary contribution: the two online
// ABFT schemes built on the new-sum error-preserving checksum encoding —
// the basic ("lazy") scheme of Algorithm 1 and the two-level ("hybrid")
// scheme of Algorithm 2 — plus the three comparison baselines of §6 (online
// MV, online orthogonality, offline residual).
//
// The separated encoding of Fig. 2(d) means protection never touches the
// numerical operations, and the package is built the same way, as
// recurrence × backend × guard:
//
//   - A recurrence (pcg.go, bicgstab.go, cr.go, stationary.go) is one
//     iterative method — PCG, PBiCGSTAB, CR, Chebyshev, Jacobi — written once
//     against the operation vocabulary of Backend: MVM, PCO, the VLO forms
//     and the two reductions over Vecs.
//   - A Backend implements the vocabulary, with the verification, clean
//     recovery work and checkpoint strike the driver asks of it. There are
//     three: the engine (engine.go) runs the kernels through the fault
//     injector and carries whatever checksum weights it was given — with
//     none it is the unprotected arm; omv (onlinemv.go) is the online-MV
//     baseline's verified MVM and duplicated execution; internal/par's rank
//     engine runs one rank's block of a distributed solve, entering through
//     Drive.
//   - A guard (drive.go, ortho.go) is the detection policy attached at the
//     operation boundaries: none, the new-sum checksums (basic, two-level,
//     forward recovery) or the orthogonality baseline's residual gap. The
//     offline-residual scheme (offline.go) guards the end of the run.
//
// One driver (drive.go) owns the scaffold every method × scheme shares:
// defaults, cancellation, verify every d, checkpoint every cd, forward
// repair before rollback, the rollback budget, the verified convergence
// exit. Solve dispatches any Krylov method × scheme; the exported per-scheme
// entry points, BasicJacobi and BasicChebyshev are wrappers over the same
// driver, and so is every rank of internal/par's team.
// BasicGMRES alone keeps a loop of its own over the engine: its checkpoint
// is the restart cycle, not every cd iterations, and its rollback discards a
// cycle instead of restoring a direction — the driver would need a method
// branch to express that.
//
// Every solve computes the same iterates as its unprotected counterpart in
// internal/solver, bit for bit, detects soft errors injected through a
// fault.Injector, and recovers via immediate correction (inner level),
// forward repair or checkpoint rollback (outer level).
package core

import (
	"context"
	"errors"
	"fmt"

	"newsum/internal/checkpoint"
	"newsum/internal/checksum"
	"newsum/internal/fault"
	"newsum/internal/kernel"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
)

// ErrRollbackStorm is wrapped when a protected solver exceeds its rollback
// budget — the "does not terminate" outcome (Table 4, Scenario 3, basic
// scheme) reported as Inf in the paper's Fig. 6.
var ErrRollbackStorm = errors.New("core: rollback limit exceeded; execution does not terminate")

// Scheme names a fault-tolerance design under comparison (§6).
type Scheme int

const (
	// Unprotected is the plain solver with no fault tolerance.
	Unprotected Scheme = iota
	// Basic is the paper's basic online ABFT (Algorithm 1): checksum
	// updates every operation, lazy verification every d iterations,
	// checkpoint/rollback recovery.
	Basic
	// TwoLevel is the paper's two-level online ABFT (Algorithm 2):
	// triple-checksum correct-or-rollback after every MVM plus the
	// Basic outer level.
	TwoLevel
	// OnlineMV is the Sloan-style baseline: traditional checksum verified
	// after every MVM with binary-search localization, duplicated
	// PCO/VLO execution for the remaining operations.
	OnlineMV
	// Orthogonality is the Chen-style baseline: periodic residual
	// relationship checking with checkpoint/rollback.
	Orthogonality
	// OfflineResidual verifies only at the end and recomputes everything
	// on failure.
	OfflineResidual
)

func (s Scheme) String() string {
	switch s {
	case Unprotected:
		return "unprotected"
	case Basic:
		return "basic online ABFT"
	case TwoLevel:
		return "two-level online ABFT"
	case OnlineMV:
		return "online MV"
	case Orthogonality:
		return "online orthogonality"
	case OfflineResidual:
		return "offline residual"
	default:
		return "unknown scheme"
	}
}

// Method selects the iterative method for the scheme-agnostic entry points.
type Method int

const (
	// MethodPCG is preconditioned conjugate gradient.
	MethodPCG Method = iota
	// MethodPBiCGSTAB is preconditioned BiCGSTAB.
	MethodPBiCGSTAB
	// MethodCR is the (unpreconditioned) conjugate residual method.
	MethodCR
	// The stationary methods have entry points of their own (BasicJacobi,
	// BasicChebyshev — Chebyshev needs spectral bounds Solve has no argument
	// for); here they only name the run in errors and traces.
	methodJacobi
	methodChebyshev
)

func (m Method) String() string {
	switch m {
	case MethodPCG:
		return "PCG"
	case MethodPBiCGSTAB:
		return "PBiCGSTAB"
	case MethodCR:
		return "CR"
	case methodJacobi:
		return "Jacobi"
	case methodChebyshev:
		return "Chebyshev"
	default:
		return "unknown method"
	}
}

// recurrence builds the Krylov recurrence Solve runs for m.
func (m Method) recurrence(be Backend) recurrence {
	switch m {
	case MethodPCG:
		return newPCG(be)
	case MethodPBiCGSTAB:
		return newBiCGSTAB(be)
	default:
		return newCR(be)
	}
}

// Stats accounts for the fault-tolerance work a protected solve performed.
type Stats struct {
	// ChecksumUpdates counts checksum update computations (one per
	// vector-generating operation per weight set).
	ChecksumUpdates int
	// Verifications counts checksum relationship verifications (each an
	// O(n) weighted sum).
	Verifications int
	// Detections counts verifications that flagged an inconsistency.
	Detections int
	// Corrections counts inner-level single-error corrections (two-level
	// scheme) or localized recomputations (online MV).
	Corrections int
	// Checkpoints counts snapshots taken.
	Checkpoints int
	// Rollbacks counts checkpoint restorations.
	Rollbacks int
	// RecoveryMVMs counts full matrix-vector products performed solely
	// for recovery or for baseline detection (orthogonality checks,
	// binary-search recomputation is accounted in PartialRecomputeNNZ).
	RecoveryMVMs int
	// PartialRecomputeNNZ counts nonzeros touched by online MV's
	// binary-search localization and repair.
	PartialRecomputeNNZ int
	// InjectedErrors is the number of fault records that fired during the
	// run.
	InjectedErrors int
	// WastedIterations counts iterations discarded by rollbacks.
	WastedIterations int
	// ForwardRepairs counts outer-level in-place repairs applied under
	// Options.ForwardRecovery: §5.2 single-error corrections, checksum
	// re-anchorings when only the carried checksum state was corrupted,
	// and reconstructions of a vector from still-clean state (one per
	// repaired vector).
	ForwardRepairs int
	// RollbacksAvoided counts detection events fully resolved by forward
	// repair — each one a checkpoint restoration that did not happen.
	RollbacksAvoided int
	// IterationsSaved accumulates, for every avoided rollback, the
	// iterations the checkpoint restoration would have discarded (current
	// iteration minus the latest snapshot's iteration).
	IterationsSaved int
	// RejectedCorrections counts forward corrections whose post-repair
	// confirmation failed — fake-correction candidates that were undone
	// and routed to rollback instead.
	RejectedCorrections int
	// CheckpointBytes is the logical state volume captured across all
	// checkpoints of the solve — vector and checksum-slot float64s — the
	// §5.1 copy-overhead accounting, independent of codec.
	CheckpointBytes int64
	// CheckpointStoredBytes is the volume actually held in memory after
	// the snapshot codec's encoding; equals CheckpointBytes for the Full
	// codec and shrinks under Lossy/Diff (ROADMAP item 4).
	CheckpointStoredBytes int64
	// LossyRestores counts rollbacks that restored quantized state; each
	// one re-anchored the restored vectors' checksums from the perturbed
	// data so verification doesn't false-alarm on quantization error.
	LossyRestores int
}

// Result is the outcome of a protected solve.
type Result struct {
	solver.Result
	Stats Stats
}

// Options configures a protected solve. The zero value selects the paper's
// defaults: θ = 1e-10, d = 1, cd = 10, PracticalD decoupling scalar.
type Options struct {
	solver.Options

	// DetectInterval is the paper's d: outer-level verification happens
	// every d iterations. 0 means 1.
	DetectInterval int
	// CheckpointInterval is the paper's cd: checkpoints are taken every
	// cd iterations. It is rounded up to a multiple of DetectInterval so
	// snapshots are always taken on verified state. 0 means
	// 10·DetectInterval.
	CheckpointInterval int
	// Theta is the checksum verification threshold θ; 0 means 1e-10.
	Theta float64
	// MaxRollbacks bounds recovery attempts; exceeding it aborts with
	// ErrRollbackStorm. 0 means 1000.
	MaxRollbacks int
	// EagerDetection verifies every vector-generating operation's output
	// immediately instead of waiting for the DetectInterval boundary — the
	// paper's "eager" mode (§1, §4: errors can be detected "eagerly or
	// lazily"). Detection latency drops to a single operation at the cost
	// of roughly one extra O(n) weighted sum per operation. Rollback
	// recovery is unchanged.
	EagerDetection bool
	// EagerTriple makes the two-level scheme carry all three checksums
	// through every operation, as in the paper's Table 4 cost model
	// ((2/d+9) VDP per iteration). The default is the lazy variant: only
	// the c1 checksum is carried (basic-scheme cost) and the locating
	// checksums δ2, δ3 are evaluated directly from the encoded matrix rows
	// when — and only when — the δ1 probe detects an error. The two are
	// semantically equivalent (exp_k = row_k·p + d·c_kᵀp = c_kᵀA·p); the
	// lazy variant moves 6 O(n) dots from every iteration to the rare
	// error path. The eager mode remains for the Table 4 ablation.
	EagerTriple bool
	// CheckpointCodec selects how outer-level snapshots are held in memory
	// (ROADMAP item 4, after Tao et al., arXiv:1804.11268):
	// checkpoint.Full deep copies (the default — restores are bitwise),
	// checkpoint.Lossy error-bounded quantization, or checkpoint.Diff
	// bitwise XOR deltas against the previous checkpoint. After a rollback
	// from a Lossy store the solver re-anchors every restored vector's
	// checksums from the (perturbed) data, so online verification never
	// false-alarms on quantization error; the price is a mildly degraded
	// restart iterate, characterized in internal/accuracy.
	CheckpointCodec checkpoint.Codec
	// CheckpointAbsBound and CheckpointRelBound set the Lossy codec's
	// elementwise error bound max(abs, rel·maxAbs) per 256-element block;
	// both zero selects checkpoint.DefaultRelBound. Ignored by the exact
	// codecs.
	CheckpointAbsBound float64
	CheckpointRelBound float64
	// ForwardRecovery enables the forward-recovery tier (ROADMAP item 5,
	// after Fasi–Langou–Robert–Uçar, arXiv:1511.04478): the outer-level
	// vectors carry all three §5.2 checksums, and a detection first
	// attempts an in-place repair — single-error correction of the located
	// element, re-anchoring when only the carried checksum state is
	// corrupted, or reconstruction of r = b − A·x from clean state — then
	// re-projects the dependent search direction, rolling back only when
	// localization fails or a correction is rejected by its post-repair
	// confirmation. The extra steady-state cost is two more checksum
	// updates per vector operation (the Linear and Harmonic weights).
	ForwardRecovery bool
	// Injector supplies scheduled soft errors; nil runs fault-free.
	Injector *fault.Injector
	// Trace, when non-nil, receives the run's fault-tolerance timeline
	// (detections, corrections, rollbacks, checkpoints). Cold-path only.
	Trace *Trace
	// Encoding, when non-nil, supplies a precomputed checksum encoding of A
	// (see checksum.NewEncoding) instead of re-deriving cᵀA − d·cᵀ inside the
	// solve — the paper's offline cost amortized across repeated solves
	// against the same operator. The encoding pins the decoupling scalar d;
	// without one, d is checksum.PracticalD(A). It must have been derived
	// from the same matrix A that is being solved; the caller (e.g. the
	// internal/service encoding cache) is responsible for that identity.
	Encoding *checksum.Encoding
	// Pool, when non-nil, runs the solve's hot loops — SpMV, the blocked
	// pairwise reductions and the fused VLO/checksum updates — on a
	// shared-memory worker pool. Results are bitwise-identical to the
	// serial solve at any worker count (the kernel determinism contract),
	// so enabling a pool never changes iterates, detections or rollbacks.
	// The pool's scratch is reused across calls: one concurrent solve per
	// pool. nil runs serially.
	Pool *kernel.Pool
	// Ctx, when non-nil, is polled at every iteration boundary: a canceled
	// or expired context aborts the solve with an error wrapping ctx.Err().
	// This is the only way a caller can stop a diverging or fault-storming
	// solve mid-flight — long-running services need it for per-job deadlines
	// and graceful drain. nil means run to completion.
	Ctx context.Context
}

// ctxErr reports a pending cancellation of the solve's context, nil when no
// context was attached or it is still live. Solver loops poll it once per
// iteration — a non-blocking select, so the fault-free hot path pays one
// channel poll per iteration.
func (o *Options) ctxErr(method string) error {
	if o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		return fmt.Errorf("core: %s solve canceled: %w", method, o.Ctx.Err())
	default:
		return nil
	}
}

func (o *Options) normalize() {
	if o.DetectInterval < 1 {
		o.DetectInterval = 1
	}
	if o.CheckpointInterval < 1 {
		o.CheckpointInterval = 10 * o.DetectInterval
	}
	// Checkpoints must land on verified state, so cd is rounded up to a
	// multiple of d — except under eager detection, where every operation
	// is verified and any checkpoint cadence is safe.
	if !o.EagerDetection {
		if rem := o.CheckpointInterval % o.DetectInterval; rem != 0 {
			o.CheckpointInterval += o.DetectInterval - rem
		}
	}
	if o.Theta <= 0 {
		o.Theta = 1e-10
	}
	if o.MaxRollbacks <= 0 {
		o.MaxRollbacks = 1000
	}
}

// newStore builds a checkpoint store configured with the solve's snapshot
// codec and error bounds.
func (o *Options) newStore() checkpoint.Store {
	return checkpoint.Store{
		Codec:    o.CheckpointCodec,
		AbsBound: o.CheckpointAbsBound,
		RelBound: o.CheckpointRelBound,
	}
}

// stopping resolves the stopping criteria: Tol 0 means 1e-8, MaxIter 0
// means 10·n.
func (o *Options) stopping(n int) (tol float64, maxIter int) {
	tol, maxIter = o.Tol, o.MaxIter
	if tol <= 0 {
		tol = 1e-8
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	return tol, maxIter
}

// setup is the state every single-right-hand-side solver in this package
// starts from: the engine, the zero iterate (checksums consistent), the
// wrapped right-hand side and the resolved stopping criteria.
type setup struct {
	e       *engine
	x, b    *Vec
	normB   float64
	tol     float64
	maxIter int
}

// begin is the shared prologue: it validates the system, fills in the option
// defaults and builds the engine over weights.
func begin(a *sparse.CSR, m precond.Preconditioner, b []float64, weights []checksum.Weight, opts *Options, stats *Stats) (setup, error) {
	if err := validateSystem(a, b); err != nil {
		return setup{}, err
	}
	opts.normalize()
	return newEngine(a, m, weights, opts, stats).open(b, opts), nil
}

// open starts one solve on the engine: the zero iterate, the wrapped
// right-hand side and the stopping criteria.
func (e *engine) open(b []float64, opts *Options) setup {
	s := setup{e: e, x: e.NewVec("x"), b: e.wrap("b", b), normB: rhsNorm(e, b)}
	s.tol, s.maxIter = opts.stopping(e.n)
	return s
}

func validateSystem(a *sparse.CSR, b []float64) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("core: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return fmt.Errorf("core: rhs length %d, want %d", len(b), a.Rows)
	}
	return nil
}

func notConverged(method string, r Result, relres float64) (Result, error) {
	return r, fmt.Errorf("%w: %s after %d iterations (relres %.3e)",
		solver.ErrNotConverged, method, r.Iterations, relres)
}

func rollbackStormErr(method string, s Scheme) error {
	return fmt.Errorf("%w: %s under %s", ErrRollbackStorm, method, s)
}

func breakdownErr(method string, s Scheme, iter int, what string) error {
	return fmt.Errorf("core: %s (%s) breakdown at iteration %d: %s", method, s, iter, what)
}
