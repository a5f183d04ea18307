// Package service implements a long-running concurrent solve service over
// the repo's protected solvers: jobs arrive as JSON requests (over the
// stdlib net/http API in http.go or programmatically via Submit), are
// admitted against a bounded queue, scheduled onto a worker pool, and
// dispatched to internal/core with the full protection stack active. The
// service layer adds what a single solve cannot provide: an LRU cache of
// checksum encodings (the paper's offline cᵀA − d·cᵀ precompute amortized
// across repeated solves against the same operator), per-job deadlines,
// bounded retry when a solve aborts in a rollback storm, and live counters
// for detections, corrections and retries.
package service

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// MatrixSpec names the operator of a solve job. Generator kinds rebuild the
// evaluation matrices of §6 deterministically from a few parameters, so the
// spec doubles as the cache key for the matrix and its checksum encoding;
// kind "inline" ships the operator itself as COO triplets.
type MatrixSpec struct {
	// Kind selects the operator family: "laplace2d" (N×N grid Laplacian,
	// n = N² unknowns), "circuit" (CircuitLike, n = N rounded down to a
	// perfect square, N >= 4), "convection" (ConvectionDiffusion2D on an
	// N×N grid with coefficient Beta), "spd" (SPDRandom), "diagdom"
	// (DiagDominant), or "inline".
	Kind string `json:"kind"`
	// N is the generator size parameter (grid side for laplace2d and
	// convection, dimension otherwise).
	N int `json:"n,omitempty"`
	// Seed feeds the random generators (circuit, spd, diagdom).
	Seed int64 `json:"seed,omitempty"`
	// Degree is nonzeros per row for spd and diagdom (default 4, at most
	// maxDegree).
	Degree int `json:"degree,omitempty"`
	// Beta is the convection coefficient for kind "convection".
	Beta float64 `json:"beta,omitempty"`
	// Size, Rows, Cols, Vals carry an inline operator as COO triplets.
	Size int       `json:"size,omitempty"`
	Rows []int     `json:"rows,omitempty"`
	Cols []int     `json:"cols,omitempty"`
	Vals []float64 `json:"vals,omitempty"`
}

// maxDegree bounds MatrixSpec.Degree: the generators append degree entries
// per row, so an unbounded degree is an unbounded allocation.
const maxDegree = 64

func (m *MatrixSpec) degree() int {
	if m.Degree <= 0 {
		return 4
	}
	return m.Degree
}

// validate checks the spec against the service's admission limits before
// any O(n) work happens.
func (m *MatrixSpec) validate(maxRows int) error {
	if m.Degree > maxDegree {
		return fmt.Errorf("%w: matrix degree %d exceeds %d", ErrBadRequest, m.Degree, maxDegree)
	}
	switch m.Kind {
	case "laplace2d", "convection":
		if m.N < 2 {
			return fmt.Errorf("%w: matrix kind %q needs grid side n >= 2", ErrBadRequest, m.Kind)
		}
		// By division: a grid side near √MaxInt would wrap m.N*m.N.
		if m.N > maxRows/m.N {
			return fmt.Errorf("%w: matrix size %d² exceeds the service limit %d", ErrBadRequest, m.N, maxRows)
		}
	case "circuit", "spd", "diagdom":
		least := 2
		if m.Kind == "circuit" {
			least = 4 // CircuitLike's smallest grid of nodes is 2×2
		}
		if m.N < least {
			return fmt.Errorf("%w: matrix kind %q needs dimension n >= %d", ErrBadRequest, m.Kind, least)
		}
		if m.N > maxRows {
			return fmt.Errorf("%w: matrix size %d exceeds the service limit %d", ErrBadRequest, m.N, maxRows)
		}
	case "inline":
		if m.Size < 1 || m.Size > maxRows {
			return fmt.Errorf("%w: inline matrix size %d out of range [1, %d]", ErrBadRequest, m.Size, maxRows)
		}
		if len(m.Rows) != len(m.Cols) || len(m.Rows) != len(m.Vals) {
			return fmt.Errorf("%w: inline triplet arrays have mismatched lengths %d/%d/%d",
				ErrBadRequest, len(m.Rows), len(m.Cols), len(m.Vals))
		}
		for k := range m.Rows {
			if m.Rows[k] < 0 || m.Rows[k] >= m.Size || m.Cols[k] < 0 || m.Cols[k] >= m.Size {
				return fmt.Errorf("%w: inline triplet %d at (%d,%d) outside %dx%d",
					ErrBadRequest, k, m.Rows[k], m.Cols[k], m.Size, m.Size)
			}
		}
	default:
		return fmt.Errorf("%w: unknown matrix kind %q", ErrBadRequest, m.Kind)
	}
	return nil
}

// build constructs the CSR operator the spec names.
func (m *MatrixSpec) build() (*sparse.CSR, error) {
	switch m.Kind {
	case "laplace2d":
		return sparse.Laplacian2D(m.N, m.N), nil
	case "convection":
		return sparse.ConvectionDiffusion2D(m.N, m.N, m.Beta), nil
	case "circuit":
		return sparse.CircuitLike(m.N, m.Seed), nil
	case "spd":
		return sparse.SPDRandom(m.N, m.degree(), m.Seed), nil
	case "diagdom":
		return sparse.DiagDominant(m.N, m.degree(), m.Seed), nil
	case "inline":
		coo := sparse.NewCOO(m.Size, m.Size)
		coo.Grow(len(m.Rows))
		for k := range m.Rows {
			coo.Add(m.Rows[k], m.Cols[k], m.Vals[k])
		}
		return coo.ToCSR(), nil
	default:
		return nil, fmt.Errorf("%w: unknown matrix kind %q", ErrBadRequest, m.Kind)
	}
}

// fingerprint hashes the spec (FNV-1a over the structure and the exact
// value bits) into the cache key. Collisions are survivable: the cache
// stores the canonical spec alongside the entry and equalSpec arbitrates
// on lookup.
func (m *MatrixSpec) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		_, _ = h.Write(buf[:]) //lint:ignore errdrop hash.Hash.Write never fails
	}
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:]) //lint:ignore errdrop hash.Hash.Write never fails
	}
	_, _ = h.Write([]byte(m.Kind)) //lint:ignore errdrop hash.Hash.Write never fails
	wi(int64(m.N))
	wi(m.Seed)
	wi(int64(m.degree()))
	wf(m.Beta)
	wi(int64(m.Size))
	for k := range m.Rows {
		wi(int64(m.Rows[k]))
		wi(int64(m.Cols[k]))
		wf(m.Vals[k])
	}
	return h.Sum64()
}

// Fingerprint exposes the spec hash to routing tiers: the newsum-router
// consistent-hashes jobs by it so each operator's encoding cache stays hot
// on exactly one backend. Routing collisions are harmless (two operators
// sharing a backend), unlike cache collisions, which equalSpec guards.
func (m *MatrixSpec) Fingerprint() uint64 { return m.fingerprint() }

// equalSpec reports whether two specs name the same operator, with inline
// values compared bit-for-bit.
func equalSpec(a, b *MatrixSpec) bool {
	if a.Kind != b.Kind || a.N != b.N || a.Seed != b.Seed || a.degree() != b.degree() ||
		math.Float64bits(a.Beta) != math.Float64bits(b.Beta) || a.Size != b.Size ||
		len(a.Rows) != len(b.Rows) || len(a.Cols) != len(b.Cols) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for k := range a.Rows {
		if a.Rows[k] != b.Rows[k] || a.Cols[k] != b.Cols[k] ||
			math.Float64bits(a.Vals[k]) != math.Float64bits(b.Vals[k]) {
			return false
		}
	}
	return true
}

// FaultSpec schedules one soft error into a job's solve, in the paper's §3
// bit-flip model. Explicit faults fire on the first attempt only — they
// model a fixed strike set, and a retry of the same strikes would storm
// identically — while chaos faults (Request.ChaosFaults) are re-drawn from
// a fresh stream on every attempt.
type FaultSpec struct {
	// Iteration is the zero-based solver iteration struck.
	Iteration int `json:"iteration"`
	// Index is the element corrupted; -1 picks pseudo-randomly.
	Index int `json:"index"`
	// Bit is the flipped IEEE-754 bit; 0 selects the default 62 (top
	// exponent bit, always a detectable magnitude change).
	Bit int `json:"bit,omitempty"`
	// Site selects the struck operation: "mvm" (default), "pco", or "vlo".
	Site string `json:"site,omitempty"`
}

func (f *FaultSpec) bit() int {
	if f.Bit <= 0 || f.Bit > 63 {
		return 62
	}
	return f.Bit
}

func (f *FaultSpec) site() (fault.Site, error) {
	switch f.Site {
	case "", "mvm":
		return fault.SiteMVM, nil
	case "pco":
		return fault.SitePCO, nil
	case "vlo":
		return fault.SiteVLO, nil
	default:
		return 0, fmt.Errorf("%w: unknown fault site %q", ErrBadRequest, f.Site)
	}
}

// event maps the spec onto the injector's vocabulary.
func (f *FaultSpec) event() (fault.Event, error) {
	site, err := f.site()
	if err != nil {
		return fault.Event{}, err
	}
	return fault.Event{
		Iteration: f.Iteration,
		Site:      site,
		Kind:      fault.Arithmetic,
		Index:     f.Index,
		BitFlip:   true,
		Bit:       f.bit(),
	}, nil
}

// maxTimeoutMillis bounds Request.TimeoutMillis at 24 h. Past ≈ 9.2e12 ms
// the conversion to a time.Duration wraps negative, and the job would be
// cancelled before it started.
const maxTimeoutMillis = 24 * 60 * 60 * 1000

// maxIterPerRow bounds Request.MaxIter at 100·n, ten times the default. A
// service without a default deadline runs an unreachable tol until the cap,
// so an unbounded cap would hold a worker indefinitely.
const maxIterPerRow = 100

// Request is one solve job.
type Request struct {
	// Solver is "pcg" (default), "bicgstab", or "cr".
	Solver string `json:"solver,omitempty"`
	// Scheme is "basic" (default, Algorithm 1) or "twolevel" (Algorithm 2).
	Scheme string `json:"scheme,omitempty"`
	// Matrix names the operator.
	Matrix MatrixSpec `json:"matrix"`
	// RHS is the right-hand side; nil means b[i] = 1 + (i mod 7).
	RHS []float64 `json:"rhs,omitempty"`
	// Precond is "none" (default) or "ilu0"; pcg/bicgstab only.
	Precond string `json:"precond,omitempty"`
	// Tol, MaxIter, DetectInterval are the usual solve controls (defaults
	// 1e-8, 10·n, 1; MaxIter at most maxIterPerRow·n). Retries tighten the
	// detect interval automatically.
	Tol            float64 `json:"tol,omitempty"`
	MaxIter        int     `json:"max_iter,omitempty"`
	DetectInterval int     `json:"detect_interval,omitempty"`
	// MaxRollbacks bounds per-attempt recovery before the solve aborts
	// retryably (default: engine default).
	MaxRollbacks int `json:"max_rollbacks,omitempty"`
	// Forward enables the forward-recovery tier: a detection first attempts
	// an in-place triple-checksum repair before falling back to checkpoint
	// rollback. Supported for pcg and cr.
	Forward bool `json:"forward,omitempty"`
	// TimeoutMillis caps the job's wall time, queue wait included; 0 uses
	// the service default. At most maxTimeoutMillis.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
	// Faults schedules explicit strikes; they fire on attempt 0 only.
	Faults []FaultSpec `json:"faults,omitempty"`
	// ChaosFaults draws this many pseudo-random detectable bit flips per
	// attempt, reseeded each attempt from Seed.
	ChaosFaults int `json:"chaos_faults,omitempty"`
	// Seed feeds fault index selection and chaos scheduling.
	Seed int64 `json:"seed,omitempty"`
	// ReturnSolution includes X in the response.
	ReturnSolution bool `json:"return_solution,omitempty"`
	// Trace includes the fault-tolerance timeline of the final attempt.
	Trace bool `json:"trace,omitempty"`
}

func (r *Request) solver() string {
	if r.Solver == "" {
		return "pcg"
	}
	return r.Solver
}

func (r *Request) scheme() string {
	if r.Scheme == "" {
		return "basic"
	}
	return r.Scheme
}

func (r *Request) tol() float64 {
	if r.Tol <= 0 {
		return 1e-8
	}
	return r.Tol
}

// validate vets the whole request against the service limits; every
// failure wraps ErrBadRequest so the HTTP layer maps it to a 400.
func (r *Request) validate(maxRows int) error {
	switch r.solver() {
	case "pcg", "bicgstab", "cr":
	default:
		return fmt.Errorf("%w: unknown solver %q", ErrBadRequest, r.Solver)
	}
	switch r.scheme() {
	case "basic":
	case "twolevel":
		if r.solver() == "cr" {
			return fmt.Errorf("%w: cr supports the basic scheme only", ErrBadRequest)
		}
	default:
		return fmt.Errorf("%w: unknown scheme %q", ErrBadRequest, r.Scheme)
	}
	switch r.Precond {
	case "", "none", "ilu0":
	default:
		return fmt.Errorf("%w: unknown preconditioner %q", ErrBadRequest, r.Precond)
	}
	if r.Precond == "ilu0" && r.solver() == "cr" {
		return fmt.Errorf("%w: ilu0 preconditioning applies to pcg/bicgstab only", ErrBadRequest)
	}
	if r.Forward && r.solver() == "bicgstab" {
		return fmt.Errorf("%w: forward recovery applies to pcg and cr only", ErrBadRequest)
	}
	if r.ChaosFaults < 0 || r.ChaosFaults > 64 {
		return fmt.Errorf("%w: chaos_faults %d out of range [0, 64]", ErrBadRequest, r.ChaosFaults)
	}
	if r.TimeoutMillis < 0 || r.TimeoutMillis > maxTimeoutMillis {
		return fmt.Errorf("%w: timeout_ms %d out of range [0, %d]", ErrBadRequest, r.TimeoutMillis, maxTimeoutMillis)
	}
	for i := range r.Faults {
		if _, err := r.Faults[i].site(); err != nil {
			return err
		}
	}
	if err := r.Matrix.validate(maxRows); err != nil {
		return err
	}
	n, err := r.Matrix.rows()
	if err != nil {
		return err
	}
	if r.MaxIter < 0 || r.MaxIter > maxIterPerRow*n {
		return fmt.Errorf("%w: max_iter %d out of range [0, %d]", ErrBadRequest, r.MaxIter, maxIterPerRow*n)
	}
	if r.RHS != nil && len(r.RHS) != n {
		return fmt.Errorf("%w: rhs length %d, want %d", ErrBadRequest, len(r.RHS), n)
	}
	return nil
}

// rows computes the operator dimension without building it.
func (m *MatrixSpec) rows() (int, error) {
	switch m.Kind {
	case "laplace2d", "convection":
		return m.N * m.N, nil
	case "circuit":
		return sparse.CircuitOrder(m.N), nil
	case "spd", "diagdom":
		return m.N, nil
	case "inline":
		return m.Size, nil
	default:
		return 0, fmt.Errorf("%w: unknown matrix kind %q", ErrBadRequest, m.Kind)
	}
}

// rhs returns the request's right-hand side, defaulting to the mildly
// structured vector the repo's tests use. It is taken from vec's pool: the
// job puts it back once its last attempt is checked.
func (r *Request) rhs(n int) []float64 {
	b := vec.Take(n)
	if r.RHS != nil {
		copy(b, r.RHS)
		return b
	}
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	return b
}

// Response reports one completed job.
type Response struct {
	JobID  string `json:"job_id"`
	Solver string `json:"solver"`
	Scheme string `json:"scheme"`
	N      int    `json:"n"`
	NNZ    int    `json:"nnz"`

	Converged  bool    `json:"converged"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	// VerifiedResidual is ‖b − Ax‖₂/‖b‖₂ recomputed by the service from
	// the returned solution — the end-to-end SDC guard, independent of
	// everything the solve itself tracked.
	VerifiedResidual float64 `json:"verified_residual"`

	// Attempts counts solve attempts (1 = no retry); Retried reports the
	// per-retry abort reasons in order.
	Attempts int      `json:"attempts"`
	Retried  []string `json:"retried,omitempty"`
	CacheHit bool     `json:"cache_hit"`

	// Fault-tolerance counters, summed across attempts.
	Detections     int `json:"detections"`
	Corrections    int `json:"corrections"`
	Rollbacks      int `json:"rollbacks"`
	InjectedFaults int `json:"injected_faults"`
	// Forward-recovery counters (Request.Forward), summed across attempts:
	// in-place repairs applied, rollbacks those repairs avoided, iterations
	// the avoided rollbacks would have discarded, and corrections undone by
	// their post-repair confirmation.
	ForwardRepairs      int `json:"forward_repairs,omitempty"`
	RollbacksAvoided    int `json:"rollbacks_avoided,omitempty"`
	IterationsSaved     int `json:"iterations_saved,omitempty"`
	RejectedCorrections int `json:"rejected_corrections,omitempty"`

	QueueMillis float64 `json:"queue_ms"`
	SolveMillis float64 `json:"solve_ms"`

	X     []float64    `json:"x,omitempty"`
	Trace []TraceEvent `json:"trace,omitempty"`
}

// TraceEvent is the JSON shape of a core.TraceEvent.
type TraceEvent struct {
	Iteration int    `json:"iteration"`
	Kind      string `json:"kind"`
	Detail    string `json:"detail"`
}

func traceJSON(events []core.TraceEvent) []TraceEvent {
	if len(events) == 0 {
		return nil
	}
	out := make([]TraceEvent, len(events))
	for i, e := range events {
		out[i] = TraceEvent{Iteration: e.Iteration, Kind: e.Kind.String(), Detail: e.Detail}
	}
	return out
}
