package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"runtime"

	"newsum/internal/checkpoint"
	"newsum/internal/checksum"
	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/kernel"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
)

var (
	// ErrBadRequest wraps every request-validation failure (HTTP 400).
	ErrBadRequest = errors.New("service: bad request")
	// ErrOverloaded is returned when the admission queue is full — the
	// backpressure signal the HTTP layer maps to 429.
	ErrOverloaded = errors.New("service: queue full")
	// ErrClosed is returned by Submit after Close has begun draining.
	ErrClosed = errors.New("service: closed")
	// errSDC marks a solve whose recomputed residual contradicts its
	// claimed convergence — a suspected silent corruption, retried like a
	// rollback storm.
	errSDC = errors.New("service: silent data corruption suspected")
)

// sdcTolFactor is the slack between the recurrence residual a solve
// converged on and the server-side recomputed true residual before the
// result is treated as silently corrupted. The two legitimately drift
// apart by roughly κ(A)·ε — on the ill-conditioned circuit operator that
// is ~1e2–1e3 above the tolerance — while corruption that slipped every
// checksum shows up orders of magnitude higher still (a surviving
// exponent-bit flip moves the residual to O(1) or beyond). 1e5 sits
// between the two regimes: at the default tol 1e-8 the guard fires on any
// true residual above 1e-3.
const sdcTolFactor = 1e5

// chaosHorizon bounds the iteration window chaos faults are drawn from, so
// a strike lands while the solve is still running rather than being
// scheduled past convergence and never firing.
const chaosHorizon = 40

// Config sizes the service. The zero value selects the defaults noted on
// each field.
type Config struct {
	// Workers is the solve concurrency (default 4).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (default 64).
	// A full queue rejects with ErrOverloaded.
	QueueDepth int
	// CacheSize is the encoding-cache capacity in entries (default 16);
	// negative disables the cache entirely.
	CacheSize int
	// MaxRetries bounds automatic re-solves after a retryable abort —
	// rollback storm or suspected SDC (default 2; negative means 0).
	MaxRetries int
	// DefaultTimeout caps each job's wall time, queue wait included, when
	// the request names none. 0 means no deadline.
	DefaultTimeout time.Duration
	// MaxMatrixRows is the admission bound on operator size (default 262144).
	MaxMatrixRows int
	// KernelWorkers is the per-job shared-memory kernel budget: each
	// service worker owns one kernel.Pool of this size,
	// so Workers concurrent jobs use at most Workers×KernelWorkers threads
	// for hot loops. 0 derives max(1, GOMAXPROCS/Workers) — the whole
	// machine split evenly across concurrent jobs, never oversubscribed.
	// Negative forces serial kernels. Results are bitwise-independent of
	// this setting (the kernel determinism contract).
	KernelWorkers int
	// BatchWindow enables coalescing of concurrent batchable requests that
	// share an operator spec and solve parameters into one block multi-RHS
	// protected solve: the first such job opens a batch, later arrivals
	// join it until the window elapses or MaxBatch columns are gathered.
	// 0 (the default) disables batching entirely.
	BatchWindow time.Duration
	// MaxBatch caps the columns of one block solve (default 8, max 32).
	MaxBatch int
	// CheckpointCodec names the snapshot codec every protected solve
	// checkpoints through: "" or "full" (deep copies), "lossy"
	// (error-bounded quantization) or "diff"/"incremental" (differential
	// encoding against the last snapshot); see internal/checkpoint.
	// Unknown names select full copies.
	CheckpointCodec string
	// CheckpointAbsBound and CheckpointRelBound bound the lossy codec's
	// per-element restore error; both zero selects the package default
	// relative bound. Ignored by the other codecs.
	CheckpointAbsBound, CheckpointRelBound float64
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 16
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxMatrixRows <= 0 {
		c.MaxMatrixRows = 262144
	}
	if c.KernelWorkers == 0 {
		c.KernelWorkers = runtime.GOMAXPROCS(0) / c.Workers
	}
	if c.KernelWorkers < 1 {
		c.KernelWorkers = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	} else if c.MaxBatch > 32 {
		c.MaxBatch = 32
	}
	return c
}

// JobEvent is one entry of a job's streamed progress timeline.
type JobEvent struct {
	JobID string `json:"job_id"`
	Seq   int    `json:"seq"`
	// Event is "start", "cache", "attempt", "retry", or "result".
	Event   string `json:"event"`
	Attempt int    `json:"attempt"`
	Detail  string `json:"detail,omitempty"`
}

// job is one queued solve.
type job struct {
	id       string
	req      Request
	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time
	events   chan<- JobEvent
	eventSeq int
	resp     *Response
	err      error
	done     chan struct{}
	// batch is non-nil on a batch leader: the job that carries an open
	// batch through the admission queue. The worker that dequeues it runs
	// the whole batch (leader included) as one block solve.
	batch *batch
}

// Service is the concurrent solve service: a bounded worker pool over a
// bounded admission queue, dispatching to the protected solvers of
// internal/core with an encoding cache, per-job deadlines, and bounded retry.
type Service struct {
	cfg   Config
	codec checkpoint.Codec
	stats stats

	cacheMu sync.Mutex
	cache   *encCache // nil when disabled

	batcher *batcher // nil when batching is disabled

	queue chan *job
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	seq    int64
}

// New starts a service with cfg.Workers solve workers. The caller owns the
// lifecycle: Close drains the queue and joins every worker.
func New(cfg Config) *Service {
	cfg = cfg.normalized()
	// Unknown codec names degrade to full copies: a serving config typo
	// must not take the whole service down, and full is always correct.
	codec, err := checkpoint.ParseCodec(cfg.CheckpointCodec)
	if err != nil {
		codec = checkpoint.Full
	}
	s := &Service{
		cfg:   cfg,
		codec: codec,
		queue: make(chan *job, cfg.QueueDepth),
	}
	if cfg.CacheSize > 0 {
		s.cache = newEncCache(cfg.CacheSize)
	}
	if cfg.BatchWindow > 0 {
		s.batcher = newBatcher(s, cfg.BatchWindow, cfg.MaxBatch)
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		//lint:ignore goroutineguard long-lived pool worker; joined in Close via s.wg.Wait after the queue is closed
		go s.worker()
	}
	return s
}

// Close stops admission, drains every queued job, and joins the workers.
// Idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	if s.batcher != nil {
		s.batcher.sealAll()
	}
	s.wg.Wait()
}

// Submit runs one job to completion (waiting through queue, solve, and any
// retries) and returns its response. The response is non-nil even when err
// is not, carrying whatever attempt counters accumulated before the
// failure. Admission failures return ErrOverloaded or ErrClosed
// immediately; validation failures wrap ErrBadRequest.
func (s *Service) Submit(ctx context.Context, req Request) (*Response, error) {
	return s.SubmitObserved(ctx, req, nil)
}

// SubmitObserved is Submit with a progress-event channel the worker sends
// JobEvents to. Events are sent non-blocking (a slow consumer drops events,
// counted in the stats) and the channel is closed when the job finishes —
// including on admission failure, so a consumer ranging over it always
// terminates.
func (s *Service) SubmitObserved(ctx context.Context, req Request, events chan<- JobEvent) (*Response, error) {
	fail := func(err error) (*Response, error) {
		if events != nil {
			close(events)
		}
		return nil, err
	}
	if err := req.validate(s.cfg.MaxMatrixRows); err != nil {
		return fail(err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, cancel := ctx, context.CancelFunc(nil)
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, timeout)
	}
	j := &job{
		req:      req,
		ctx:      jctx,
		cancel:   cancel,
		enqueued: time.Now(),
		events:   events,
		done:     make(chan struct{}),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return fail(ErrClosed)
	}
	s.seq++
	j.id = fmt.Sprintf("job-%d", s.seq)
	if s.batcher != nil && j.req.batchable() {
		// Batched admission: join an open batch for this spec or open a
		// new one (whose leader takes a queue slot like any job). Either
		// way the job completes through the batch, or through the
		// single-RHS fallback path the batch demotes it to.
		err := s.batcher.submit(j)
		s.mu.Unlock()
		if err != nil {
			if cancel != nil {
				cancel()
			}
			s.stats.add(func(st *stats) { st.rejected++ })
			return fail(err)
		}
		s.stats.add(func(st *stats) { st.accepted++ })
		<-j.done
		return j.resp, j.err
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		s.stats.add(func(st *stats) { st.rejected++ })
		return fail(ErrOverloaded)
	}
	s.stats.add(func(st *stats) { st.accepted++ })

	<-j.done
	return j.resp, j.err
}

// Stats snapshots the service counters.
func (s *Service) Stats() Snapshot {
	snap := s.stats.snapshot()
	if s.cache != nil {
		s.cacheMu.Lock()
		snap.CacheEntries = s.cache.len()
		s.cacheMu.Unlock()
	}
	snap.Workers = s.cfg.Workers
	snap.QueueDepth = s.cfg.QueueDepth
	snap.QueueLen = len(s.queue)
	snap.KernelWorkers = s.cfg.KernelWorkers
	snap.InFlight = snap.Accepted - snap.Completed - snap.Failed - snap.Canceled
	return snap
}

// worker drains the queue until Close closes it. Each worker owns one
// persistent kernel pool for its jobs' hot loops: pools are per-worker
// because their scratch buffers serve one solve at a time, and sizing
// them at Config.KernelWorkers keeps Workers concurrent jobs from
// oversubscribing the machine.
func (s *Service) worker() {
	defer s.wg.Done()
	pool := kernel.NewPool(s.cfg.KernelWorkers)
	defer pool.Close()
	for j := range s.queue {
		if j.batch != nil {
			s.runBatch(j.batch, pool)
			continue
		}
		s.run(j, pool)
	}
}

// emit sends a progress event without blocking; events a slow consumer
// cannot take are dropped and counted. Only the owning worker calls emit,
// so eventSeq needs no lock.
func (s *Service) emit(j *job, event string, attempt int, detail string) {
	if j.events == nil {
		return
	}
	j.eventSeq++
	select {
	case j.events <- JobEvent{JobID: j.id, Seq: j.eventSeq, Event: event, Attempt: attempt, Detail: detail}:
	default:
		s.stats.add(func(st *stats) { st.eventsDropped++ })
	}
}

// resolve produces the operator and (when available) its cached checksum
// encoding. A nil encoding is always valid — the solve derives its own — so cache-disabled and admission-failure paths degrade gracefully.
func (s *Service) resolve(req *Request) (*sparse.CSR, *checksum.Encoding, bool, error) {
	key := req.Matrix.fingerprint()
	if s.cache != nil {
		s.cacheMu.Lock()
		e, hit, collision := s.cache.get(key, &req.Matrix)
		s.cacheMu.Unlock()
		if hit {
			s.stats.add(func(st *stats) { st.cacheHits++ })
			return e.a, e.enc, true, nil
		}
		if collision {
			s.stats.add(func(st *stats) { st.cacheCollisions++ })
		}
	}
	a, err := req.Matrix.build()
	if err != nil {
		return nil, nil, false, err
	}
	s.stats.add(func(st *stats) { st.cacheMisses++ })
	if s.cache == nil {
		return a, nil, false, nil
	}
	enc, err := deriveChecked(key, a)
	if err != nil {
		s.stats.add(func(st *stats) { st.admissionFailures++ })
		return a, nil, false, nil
	}
	s.cacheMu.Lock()
	// A racing worker may have admitted the same operator meanwhile; keep
	// the incumbent so concurrent hits stay on one shared encoding.
	if e, hit, _ := s.cache.get(key, &req.Matrix); hit {
		s.cacheMu.Unlock()
		return e.a, e.enc, false, nil
	}
	s.cache.put(key, &req.Matrix, a, enc)
	s.cacheMu.Unlock()
	return a, enc, false, nil
}

// run executes one job end to end: resolve, attempt loop with retry, SDC
// verification, stats, events.
func (s *Service) run(j *job, pool *kernel.Pool) {
	defer close(j.done)
	if j.cancel != nil {
		defer j.cancel()
	}
	if j.events != nil {
		defer close(j.events)
	}
	start := time.Now()
	req := &j.req
	resp := &Response{
		JobID:       j.id,
		Solver:      req.solver(),
		Scheme:      req.scheme(),
		QueueMillis: float64(start.Sub(j.enqueued).Microseconds()) / 1000,
	}
	j.resp = resp
	finish := func(err error, outcome string) {
		resp.SolveMillis = float64(time.Since(start).Microseconds()) / 1000
		j.err = err
		s.stats.recordSolve(resp, resp.SolveMillis)
		s.stats.add(func(st *stats) {
			switch outcome {
			case "completed":
				st.completed++
			case "forward-recovered":
				// A completion whose faults were absorbed by the forward-
				// recovery tier instead of rollbacks — completed, sub-counted.
				st.completed++
				st.forwardRecovered++
			case "canceled":
				st.canceled++
			default:
				st.failed++
			}
		})
		detail := outcome
		if err != nil {
			detail = fmt.Sprintf("%s: %v", outcome, err)
		}
		s.emit(j, "result", resp.Attempts, detail)
	}

	if err := j.ctx.Err(); err != nil {
		finish(fmt.Errorf("service: %s expired before dispatch: %w", j.id, err), "canceled")
		return
	}
	s.emit(j, "start", 0, "")

	a, enc, hit, err := s.resolve(req)
	if err != nil {
		finish(err, "failed")
		return
	}
	resp.CacheHit = hit
	resp.N = a.Rows
	resp.NNZ = a.NNZ()
	if hit {
		s.emit(j, "cache", 0, "hit")
	} else {
		s.emit(j, "cache", 0, "miss")
	}

	// Preconditioner setup happens once, shared across attempts.
	var m precond.Preconditioner = precond.Identity(a.Rows)
	if req.Precond == "ilu0" {
		m, err = precond.ILU0(a)
		if err != nil {
			finish(fmt.Errorf("%w: ilu0 setup: %v", ErrBadRequest, err), "failed")
			return
		}
	}
	b := req.rhs(a.Rows)

	var solveErr error
	for attempt := 0; ; attempt++ {
		d := detectIntervalFor(req, attempt)
		s.emit(j, "attempt", attempt, fmt.Sprintf("d=%d", d))
		res, trace, err := s.dispatch(j.ctx, req, a, enc, m, b, attempt, d, pool)
		st := &res.Stats
		resp.Attempts = attempt + 1
		resp.Detections += st.Detections
		resp.Corrections += st.Corrections
		resp.Rollbacks += st.Rollbacks
		resp.InjectedFaults += st.InjectedErrors
		resp.ForwardRepairs += st.ForwardRepairs
		resp.RollbacksAvoided += st.RollbacksAvoided
		resp.IterationsSaved += st.IterationsSaved
		resp.RejectedCorrections += st.RejectedCorrections
		resp.Iterations = res.Iterations
		resp.Converged = res.Converged
		resp.Residual = res.Residual
		if req.Trace {
			resp.Trace = traceJSON(trace)
		}

		if err == nil {
			// End-to-end SDC guard: recompute the true residual from the
			// returned solution. A fault that slipped every checksum would
			// surface here as a converged claim the operator contradicts.
			vr := core.TrueResidual(a, b, res.X)
			resp.VerifiedResidual = vr
			s.stats.add(func(st *stats) { st.verifiedResiduals++ })
			if vr <= sdcTolFactor*req.tol() {
				if req.ReturnSolution {
					resp.X = res.X
				}
				solveErr = nil
				break
			}
			s.stats.add(func(st *stats) { st.sdcSuspects++ })
			err = fmt.Errorf("%w: %s verified residual %.3e exceeds %.0f×tol %.3e",
				errSDC, j.id, vr, sdcTolFactor, req.tol())
		}

		hadFaults := req.ChaosFaults > 0 || (attempt == 0 && len(req.Faults) > 0)
		reason, retryable := classifyRetry(err, hadFaults)
		if !retryable || attempt >= s.cfg.MaxRetries {
			solveErr = err
			break
		}
		resp.Retried = append(resp.Retried, reason)
		s.emit(j, "retry", attempt, reason)
	}

	switch {
	case solveErr == nil && resp.RollbacksAvoided > 0:
		finish(nil, "forward-recovered")
	case solveErr == nil:
		finish(nil, "completed")
	case errors.Is(solveErr, context.Canceled) || errors.Is(solveErr, context.DeadlineExceeded):
		finish(solveErr, "canceled")
	default:
		finish(solveErr, "failed")
	}
}

// classifyRetry maps an attempt failure to a retry reason. Rollback storms
// (the solver's retryable abort) and SDC suspicion always retry. When the
// attempt ran with fault injection active, any other failure —
// non-convergence, breakdown — is also retried, because a sub-threshold
// strike can degrade the Krylov recurrence without ever tripping a
// checksum (the inconsistency sits below θ) and a reseeded attempt is
// likely clean. Without injection those same failures are terminal: a
// clean re-run of a deterministic solve cannot change a numerical outcome.
// Cancellation is always terminal — the deadline covers retries too.
func classifyRetry(err error, hadFaults bool) (string, bool) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "", false
	case errors.Is(err, errSDC):
		return "sdc-suspect", true
	case errors.Is(err, core.ErrRollbackStorm):
		return "rollback-storm", true
	case hadFaults:
		return "fault-degraded", true
	default:
		return "", false
	}
}

// detectIntervalFor halves the verification interval on every retry
// (floored at 1): an attempt that stormed under sparse checking re-runs
// with tighter detection, trading overhead for recovery latency exactly as
// the paper's d parameter trades them.
func detectIntervalFor(req *Request, attempt int) int {
	d := req.DetectInterval
	if d < 1 {
		d = 1
	}
	d >>= attempt
	if d < 1 {
		d = 1
	}
	return d
}

// chaosSeed decorrelates the fault stream of each attempt while keeping
// every attempt individually deterministic.
func chaosSeed(seed int64, attempt int) int64 {
	return seed + int64(attempt)*1009 + 1
}

// chaosIteration draws a strike iteration inside the early window where
// the solve is certainly still running.
func chaosIteration(rng *rand.Rand, maxIter int) int {
	h := chaosHorizon
	if maxIter > 0 && maxIter < h {
		h = maxIter
	}
	if h < 1 {
		h = 1
	}
	return 1 + rng.Intn(h)
}

// attemptFaults assembles the attempt's injector events: explicit strikes on
// attempt 0 only (a fixed strike set re-applied to a retry would storm
// identically), chaos strikes re-drawn every attempt.
func attemptFaults(req *Request, attempt int) []fault.Event {
	var evs []fault.Event
	if attempt == 0 {
		for i := range req.Faults {
			e, err := req.Faults[i].event()
			if err != nil {
				continue // unreachable: sites were validated at admission
			}
			evs = append(evs, e)
		}
	}
	if req.ChaosFaults > 0 {
		rng := rand.New(rand.NewSource(chaosSeed(req.Seed, attempt)))
		for k := 0; k < req.ChaosFaults; k++ {
			evs = append(evs, fault.Event{
				Iteration: chaosIteration(rng, req.MaxIter),
				Site:      fault.SiteMVM,
				Kind:      fault.Arithmetic,
				Index:     -1,
				BitFlip:   true,
				Bit:       -1, // random within the detectable [44, 61] window
			})
		}
	}
	return evs
}

// The request vocabulary of core.Solve; Request.validate has already
// restricted a request to these names (and cr to the basic scheme).
var (
	methods = map[string]core.Method{"pcg": core.MethodPCG, "bicgstab": core.MethodPBiCGSTAB, "cr": core.MethodCR}
	schemes = map[string]core.Scheme{"basic": core.Basic, "twolevel": core.TwoLevel}
)

// dispatch runs one attempt of the solve the request names, returning its
// trace events when the request asks for them.
func (s *Service) dispatch(ctx context.Context, req *Request, a *sparse.CSR, enc *checksum.Encoding,
	m precond.Preconditioner, b []float64, attempt, d int, pool *kernel.Pool) (core.Result, []core.TraceEvent, error) {
	var inj *fault.Injector
	if evs := attemptFaults(req, attempt); len(evs) > 0 {
		inj = fault.NewInjector(evs, chaosSeed(req.Seed, attempt))
	}
	var tr *core.Trace
	if req.Trace {
		tr = &core.Trace{}
	}
	opts := core.Options{
		Options:         solver.Options{Tol: req.Tol, MaxIter: req.MaxIter},
		DetectInterval:  d,
		MaxRollbacks:    req.MaxRollbacks,
		ForwardRecovery: req.Forward,
		Injector:        inj,
		Trace:           tr,
		Encoding:        enc,
		Pool:            pool,
		Ctx:             ctx,

		CheckpointCodec:    s.codec,
		CheckpointAbsBound: s.cfg.CheckpointAbsBound,
		CheckpointRelBound: s.cfg.CheckpointRelBound,
	}
	res, err := core.Solve(methods[req.solver()], schemes[req.scheme()], a, m, b, opts)
	if tr == nil {
		return res, nil, err
	}
	return res, tr.Events, err
}
