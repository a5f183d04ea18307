package main

// layers.go is the benchmark's only door into the repository: every
// newsum/internal function the benchmark calls is called from this file,
// behind the benchmark's own types. A signature change in a layer is then a
// one-file, benchmark-only change.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"

	"newsum/internal/checkpoint"
	"newsum/internal/checksum"
	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/kernel"
	"newsum/internal/par"
	"newsum/internal/precond"
	"newsum/internal/router"
	"newsum/internal/service"
	"newsum/internal/solver"
	"newsum/internal/sparse"
)

type (
	// CSR is the repository's sparse matrix; the benchmark reads its
	// RowPtr/ColIdx/Val fields directly for its own residual check.
	CSR = sparse.CSR
	// Precond is a preconditioner M with Apply(z, r).
	Precond = precond.Preconditioner
	// Encoding is the offline checksum encoding of an operator.
	Encoding = checksum.Encoding
	// Request, Response and MatrixSpec are the service's wire types.
	Request    = service.Request
	Response   = service.Response
	MatrixSpec = service.MatrixSpec
)

// ---- sparse / precond / checksum set-up -----------------------------------

func genCircuit(n int, seed int64) *CSR     { return sparse.CircuitLike(n, seed) }
func genConvDiff(nx int, beta float64) *CSR { return sparse.ConvectionDiffusion2D(nx, nx, beta) }
func genLaplace2D(nx int) *CSR              { return sparse.Laplacian2D(nx, nx) }

// buildSpec rebuilds the operator a service job names, with the generators
// the service itself dispatches to, so the benchmark can check a returned
// solution against its own copy of A.
func buildSpec(m MatrixSpec) (*CSR, error) {
	switch m.Kind {
	case "laplace2d":
		return sparse.Laplacian2D(m.N, m.N), nil
	case "convection":
		return sparse.ConvectionDiffusion2D(m.N, m.N, m.Beta), nil
	case "circuit":
		return sparse.CircuitLike(m.N, m.Seed), nil
	case "spd":
		deg := m.Degree
		if deg == 0 {
			deg = 4
		}
		return sparse.SPDRandom(m.N, deg, m.Seed), nil
	}
	return nil, fmt.Errorf("benchmark: no generator for matrix kind %q", m.Kind)
}

// buildPrecond builds the named preconditioner: "bjacobi16" (block-Jacobi
// with 16 ILU(0) blocks, the paper's PETSc default), "ilu0", or "none".
func buildPrecond(name string, a *CSR) (Precond, error) {
	switch name {
	case "bjacobi16":
		return precond.BlockJacobiILU0(a, 16)
	case "ilu0":
		return precond.ILU0(a)
	case "none":
		return precond.Identity(a.Rows), nil
	}
	return nil, fmt.Errorf("benchmark: unknown preconditioner %q", name)
}

func newEncoding(a *CSR) *Encoding { return checksum.NewEncoding(a, 0) }

// deriveChecked derives the encoding of a as the service does on a cache
// miss: twice, admitting it only when both derivations agree bit for bit.
func deriveChecked(a *CSR) error {
	if !checksum.NewEncoding(a, 0).EqualBits(checksum.NewEncoding(a, 0)) {
		return errors.New("benchmark: two encodings of one operator differ")
	}
	return nil
}

// ---- core / solver: one solve ----------------------------------------------

// Protection schemes of a solve arm.
const (
	schemeUnprotected = "unprotected"
	schemeBasic       = "basic"
	schemeTwoLevel    = "twolevel"
)

// solveCounts are the exact counts of one solve. With the same inputs they
// repeat on every run; the benchmark fails a run in which they do not.
type solveCounts struct {
	Iterations      int
	ChecksumUpdates int
	Verifications   int
	Detections      int
	Corrections     int
	Checkpoints     int
	Rollbacks       int
	WastedIters     int
	ForwardRepairs  int
	Injected        int
	CheckpointBytes int64
	// Communication of the par engine, summed over its ranks.
	Reductions, Gathers int
	Msgs, Words         int64
}

type solveOut struct {
	x         []float64
	converged bool
	counts    solveCounts
}

// solveSpec names one solve arm on a problem.
type solveSpec struct {
	scheme  string
	forward bool
	// faultIters > 0 schedules the paper's Scenario 2 (one MVM strike per
	// checkpoint interval) over that many iterations from faultSeed.
	faultIters int
	faultSeed  int64
	// detect and checkpoint override d and cd; 0 keeps the defaults 1 and 10.
	detect, checkpoint int
}

// checkpointInterval is the default cd of core.Options and par.Options.
const checkpointInterval = 10

// prepareSolve returns a function that runs the arm once. Everything that
// can be built ahead (options, fault schedule) is built here, outside any
// timed region; the injector is stateful, so each run gets a fresh one.
func prepareSolve(p *problem, s solveSpec) (func() (solveOut, error), error) {
	var fn func(*sparse.CSR, precond.Preconditioner, []float64, core.Options) (core.Result, error)
	switch p.method + "/" + s.scheme {
	case "pcg/" + schemeUnprotected:
		fn = core.UnprotectedPCG
	case "pcg/" + schemeBasic:
		fn = core.BasicPCG
	case "pcg/" + schemeTwoLevel:
		fn = core.TwoLevelPCG
	case "bicgstab/" + schemeUnprotected:
		fn = core.UnprotectedPBiCGSTAB
	case "bicgstab/" + schemeBasic:
		fn = core.BasicPBiCGSTAB
	case "bicgstab/" + schemeTwoLevel:
		fn = core.TwoLevelPBiCGSTAB
	default:
		return nil, fmt.Errorf("benchmark: no solver for %s/%s", p.method, s.scheme)
	}
	opts := core.Options{
		Options:            solver.Options{Tol: p.tol},
		DetectInterval:     s.detect,
		CheckpointInterval: s.checkpoint,
		ForwardRecovery:    s.forward,
		Encoding:           p.enc,
	}
	var events []fault.Event
	if s.faultIters > 0 {
		events = fault.Scenario2(s.faultIters, checkpointInterval, s.faultSeed)
	}
	return func() (solveOut, error) {
		o := opts
		if events != nil {
			o.Injector = fault.NewInjector(events, s.faultSeed)
		}
		res, err := fn(p.a, p.m, p.b, o)
		if err != nil {
			return solveOut{}, err
		}
		st := res.Stats
		return solveOut{x: res.X, converged: res.Converged, counts: solveCounts{
			Iterations:      res.Iterations,
			ChecksumUpdates: st.ChecksumUpdates,
			Verifications:   st.Verifications,
			Detections:      st.Detections,
			Corrections:     st.Corrections,
			Checkpoints:     st.Checkpoints,
			Rollbacks:       st.Rollbacks,
			WastedIters:     st.WastedIterations,
			ForwardRepairs:  st.ForwardRepairs,
			Injected:        st.InjectedErrors,
			CheckpointBytes: st.CheckpointBytes,
		}}, nil
	}, nil
}

// plainSolve runs internal/solver's unprotected recurrence, the second copy
// of the loop core.Unprotected* also implements.
func plainSolve(p *problem) (solveOut, error) {
	o := solver.Options{Tol: p.tol}
	var res solver.Result
	var err error
	if p.method == "bicgstab" {
		res, err = solver.PBiCGSTAB(p.a, p.m, p.b, o)
	} else {
		res, err = solver.PCG(p.a, p.m, p.b, o)
	}
	if err != nil {
		return solveOut{}, err
	}
	return solveOut{x: res.X, converged: res.Converged, counts: solveCounts{Iterations: res.Iterations}}, nil
}

// serviceResidual is the residual check the service runs on every job.
func serviceResidual(a *CSR, b, x []float64) float64 { return core.TrueResidual(a, b, x) }

// ---- par: one distributed solve ---------------------------------------------

// parSolve runs the goroutine-rank PCG with default options (basic scheme,
// block-Jacobi/ILU(0) with one block per rank) on the tree topology or, for
// comparison, the linear one.
func parSolve(p *problem, ranks int, linear bool) (solveOut, error) {
	o := par.Options{Tol: p.tol}
	if linear {
		o.Topology = par.Linear
	}
	res, err := par.ABFTPCG(p.a, p.b, ranks, o)
	if err != nil {
		return solveOut{}, err
	}
	return solveOut{x: res.X, converged: res.Converged, counts: solveCounts{
		Iterations: res.Iterations, Rollbacks: res.Rollbacks,
		Reductions: res.Comm.Reductions, Gathers: res.Comm.Gathers, Msgs: res.Comm.MsgsSent, Words: res.Comm.WordsMoved}}, nil
}

// ---- kernel / checksum / precond / checkpoint: the rungs of one iteration ----

// rung is one constituent operation of a protected iteration, replayed on
// the workload's own operator and full-size vectors.
type rung struct {
	name string
	// metric is the per-layer metric the rung reports: its time per unit in
	// nanoseconds, or per call in seconds; empty for a rung that only feeds
	// a derived metric.
	metric  string
	seconds bool
	// units is the work one call does, in the unit the metric divides by
	// (nonzeros, elements, rows, calls).
	units float64
	// bytes is the computed traffic of one call: array sizes, not misses.
	bytes int64
	fn    func()
}

// vloBatch is how many O(1) checksum operations one call of an O(1) rung
// runs, so that the call is long enough to time.
const vloBatch = 1024

// ladderRungs builds the replayed operations. pool is the nproc-worker
// kernel pool of the pool-speed-up rung; every other kernel runs serially
// on the nil pool, as the solve arms do. after returns the codecs' stored
// ratios, which are exact counts, and the first error a rung swallowed.
func ladderRungs(p *problem, pool *kernelPool) (rungs []rung, after func() (map[string]float64, error), err error) {
	a, n := p.a, p.a.Rows
	nnz := len(a.Val)
	x, y, z := p.scratch(0), p.scratch(1), p.scratch(2)
	var serial *kernel.Pool

	encA := p.enc.Matrix(checksum.Single)
	stages := p.m.Stages()
	encStage := encA
	if len(stages) > 0 {
		encStage = checksum.EncodeMatrix(stages[0].M, checksum.Single, p.enc.D)
	}
	s1, e1 := []float64{1}, []float64{0}
	s2, e2 := []float64{1}, []float64{0}
	s3, e3 := []float64{1}, []float64{0}
	tol := checksum.DefaultTol()
	expect := checksum.Checksums(x, checksum.Single)

	// One corrupted element, as the inner level of the two-level scheme
	// sees it after an MVM strike.
	struck := append([]float64(nil), x...)
	struck[n/3] += 1e6
	deltas := checksum.Deltas(struck, checksum.Triple, checksum.Checksums(x, checksum.Triple))
	absSums := make([]float64, len(checksum.Triple))
	for k, w := range checksum.Triple {
		_, absSums[k] = w.ApplyAbs(struck)
	}
	if d := checksum.Diagnose(deltas, n, absSums, tol); d.Kind != checksum.SingleError || d.Pos != n/3 {
		return nil, nil, fmt.Errorf("benchmark: diagnose rung located %v at %d, want a single error at %d", d.Kind, d.Pos, n/3)
	}

	spmvBytes := int64(16*nnz + 8*(n+1) + 16*n)
	// Two states to checkpoint in turn, as far apart as two checkpoints of
	// a converging solve: x has moved a little everywhere, p is another
	// direction altogether. The differential codec stores what changed.
	// No other rung touches these vectors, so the stored ratios are exact.
	cx, cx2 := p.scratch(3), p.scratch(3)
	for i := range cx2 {
		cx2[i] *= 1 + 1e-6
	}
	states := [2]map[string][]float64{{"x": cx, "p": p.scratch(4)}, {"x": cx2, "p": p.scratch(5)}}
	vecs := states[0]
	scal := map[string]float64{"rho": 1}
	sums := map[string][]float64{"x": s1, "p": s2}
	var full, diff, lossy checkpoint.Store
	diff.Codec, lossy.Codec = checkpoint.Diff, checkpoint.Lossy
	full.Save(0, vecs, scal, sums)
	iter := 0
	save := func(st *checkpoint.Store) func() {
		return func() {
			iter++
			st.Save(iter, states[iter%2], scal, sums)
		}
	}
	// storedRatio is the exact share of a snapshot's bytes the codec keeps
	// for the second of the two states, after the first.
	storedRatio := func(codec checkpoint.Codec) float64 {
		st := checkpoint.Store{Codec: codec}
		st.Save(1, states[0], scal, sums)
		stored, copied := st.BytesStored, st.BytesCopied
		st.Save(2, states[1], scal, sums)
		return float64(st.BytesStored-stored) / float64(st.BytesCopied-copied)
	}
	var applyErr, restoreErr error
	perNNZ, perElem, perRow := float64(nnz), float64(n), float64(n)
	rungs = []rung{
		{"kernel.spmv", "kernel.spmv_ns_per_nnz", false, perNNZ, spmvBytes, func() { serial.MulVec(a, y, x) }},
		{"kernel.spmv_pool", "", false, perNNZ, spmvBytes, func() { pool.p.MulVec(a, y, x) }},
		{"sparse.mulvec", "sparse.mulvec_ns_per_nnz", false, perNNZ, spmvBytes, func() { a.MulVec(y, x) }},
		{"kernel.dot", "kernel.dot_ns_per_elem", false, perElem, int64(16 * n), func() { sink += serial.Dot(x, y) }},
		{"kernel.norm2", "kernel.norm2_ns_per_elem", false, perElem, int64(8 * n), func() { sink += serial.Norm2(x) }},
		{"kernel.axpy", "kernel.axpy_ns_per_elem", false, perElem, int64(24 * n), func() { serial.Axpy(z, 1e-9, x) }},
		{"kernel.xpby", "kernel.xpby_ns_per_elem", false, perElem, int64(24 * n), func() { serial.Xpby(z, x, 1e-9, y) }},
		{"kernel.axpy_vlo", "kernel.axpy_vlo_ns_per_elem", false, perElem, int64(24 * n), func() { serial.AxpyVLO(z, 1e-9, x, s3, e3, s1, e1) }},
		{"kernel.xpby_vlo", "kernel.xpby_vlo_ns_per_elem", false, perElem, int64(24 * n), func() { serial.XpbyVLO(z, x, 1e-9, y, s3, e3, s1, e1, s2, e2) }},
		{"checksum.update_mvm", "checksum.update_mvm_ns_per_elem", false, perElem, int64(16 * n), func() { encA.UpdateMVMBound(s2, e2, x, s1, e1) }},
		{"checksum.update_pco", "checksum.update_pco_ns_per_elem", false, perElem, int64(16 * n), func() { encStage.UpdatePCOBound(s2, e2, x, s1, e1) }},
		{"checksum.update_vlo", "checksum.update_vlo_ns", false, vloBatch, 0, func() {
			for i := 0; i < vloBatch; i++ {
				checksum.UpdateVLOAxpyBound(s3, e3, 1e-9, s1, e1)
			}
		}},
		{"checksum.verify", "checksum.verify_ns_per_elem", false, perElem, int64(8 * n), func() {
			if !checksum.VerifyVector(x, checksum.Single, expect, tol) {
				sink++
			}
		}},
		{"checksum.diagnose", "checksum.diagnose_ns", false, vloBatch, 0, func() {
			for i := 0; i < vloBatch; i++ {
				sink += float64(checksum.Diagnose(deltas, n, absSums, tol).Pos)
			}
		}},
		{"checksum.encode", "checksum.encode_s", true, 1, int64(4 * 16 * nnz), func() { sink += checksum.NewEncoding(a, 0).D }},
		{"precond.setup", "precond.setup_s", true, 1, int64(16 * nnz), func() {
			if _, err := buildPrecond(p.precond, a); err != nil {
				applyErr = err
			}
		}},
		{"precond.apply", "precond.apply_ns_per_row", false, perRow, int64(16*precondNNZ(p.m) + 16*n), func() {
			if err := p.m.Apply(y, x); err != nil {
				applyErr = err
			}
		}},
		{"checkpoint.save_full", "checkpoint.save_full_ns_per_elem", false, 2 * perElem, int64(32 * n), func() { full.Save(1, vecs, scal, sums) }},
		{"checkpoint.restore_full", "checkpoint.restore_full_ns_per_elem", false, 2 * perElem, int64(32 * n), func() {
			if _, err := full.Restore(vecs, scal, sums); err != nil {
				restoreErr = err
			}
		}},
		{"checkpoint.save_diff", "checkpoint.save_diff_ns_per_elem", false, 2 * perElem, int64(32 * n), save(&diff)},
		{"checkpoint.save_lossy", "checkpoint.save_lossy_ns_per_elem", false, 2 * perElem, int64(32 * n), save(&lossy)},
	}
	after = func() (map[string]float64, error) {
		if applyErr != nil {
			return nil, fmt.Errorf("benchmark: preconditioner rung: %w", applyErr)
		}
		if restoreErr != nil {
			return nil, fmt.Errorf("benchmark: checkpoint restore rung: %w", restoreErr)
		}
		return map[string]float64{
			"checkpoint.stored_ratio_diff":  storedRatio(checkpoint.Diff),
			"checkpoint.stored_ratio_lossy": storedRatio(checkpoint.Lossy),
		}, nil
	}
	return rungs, after, nil
}

// sink keeps the compiler from discarding a rung's result.
var sink float64

func precondNNZ(m Precond) int {
	nnz := 0
	for _, st := range m.Stages() {
		nnz += len(st.M.Val)
	}
	return nnz
}

// kernelPool is the shared-memory worker pool of internal/kernel.
type kernelPool struct{ p *kernel.Pool }

func newKernelPool(workers int) *kernelPool { return &kernelPool{kernel.NewPool(workers)} }
func (k *kernelPool) close()                { k.p.Close() }

// ---- service / router --------------------------------------------------------

// endpoint is an HTTP solve tier on a loopback port: one service, or a
// router over in-process backends. It serves POST /solve either way.
type endpoint struct {
	url      string
	srv      *http.Server
	served   chan struct{}
	svc      *service.Service
	rt       *router.Router
	backends []*router.LocalBackend
}

// serviceConfig is the one service configuration the benchmark uses: serial
// kernels, so that workers never oversubscribe the cores, and a retry budget
// that chaos jobs do not exhaust. About one attempt in eleven under a chaos
// fault ends as an SDC suspect and is retried with a fresh draw; with the
// default budget of 2 one chaos job in a thousand fails all three attempts,
// which is one failed job in most runs.
func serviceConfig(workers int) service.Config {
	return service.Config{Workers: workers, QueueDepth: 64, CacheSize: 16, KernelWorkers: -1, MaxRetries: 8}
}

func serve(e *endpoint, h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("benchmark: loopback listener: %w", err)
	}
	e.url = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: h}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) //lint:ignore errdrop Serve returns ErrServerClosed after close(); nothing else can be done with it here
	}()
	return nil
}

// startService starts one service with the given worker count behind HTTP.
func startService(workers int) (*endpoint, error) {
	e := &endpoint{svc: service.New(serviceConfig(workers))}
	if err := serve(e, e.svc.Handler()); err != nil {
		e.svc.Close()
		return nil, err
	}
	return e, nil
}

// startRouter starts a router over n in-process backends of one worker each.
func startRouter(n int) (*endpoint, error) {
	e := &endpoint{}
	slots := make([]router.Backend, n)
	for i := range slots {
		lb := &router.LocalBackend{Cfg: serviceConfig(1)}
		e.backends = append(e.backends, lb)
		slots[i] = lb
	}
	rt, err := router.New(router.Config{Backends: slots})
	if err != nil {
		return nil, fmt.Errorf("benchmark: router: %w", err)
	}
	e.rt = rt
	if err := serve(e, rt.Handler()); err != nil {
		_ = rt.Close() //lint:ignore errdrop the listener error is the one reported
		return nil, err
	}
	return e, nil
}

// close stops the tier and waits for its accept loop and workers.
func (e *endpoint) close() error {
	err := e.srv.Close()
	<-e.served
	if e.svc != nil {
		e.svc.Close()
	}
	if e.rt != nil {
		if cerr := e.rt.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// tierStats are the counters of a tier, summed over its services.
type tierStats struct {
	failed, rejected, retries          int64
	detections, rollbacks, sdcSuspects int64
	cacheHits, cacheMisses             int64
	// router-only
	redispatches, routedAround, noBackend int64
	slotJobs                              []int64
}

// minus returns what the tier counted since the earlier snapshot o.
func (t tierStats) minus(o tierStats) tierStats {
	d := tierStats{
		failed: t.failed - o.failed, rejected: t.rejected - o.rejected,
		retries: t.retries - o.retries, detections: t.detections - o.detections, rollbacks: t.rollbacks - o.rollbacks,
		sdcSuspects: t.sdcSuspects - o.sdcSuspects, cacheHits: t.cacheHits - o.cacheHits, cacheMisses: t.cacheMisses - o.cacheMisses,
		redispatches: t.redispatches - o.redispatches, routedAround: t.routedAround - o.routedAround, noBackend: t.noBackend - o.noBackend,
	}
	for i, n := range t.slotJobs {
		d.slotJobs = append(d.slotJobs, n-o.slotJobs[i])
	}
	return d
}

func (e *endpoint) stats() tierStats {
	var t tierStats
	add := func(s service.Snapshot) {
		t.failed += s.Failed
		t.rejected += s.Rejected
		t.retries += s.Retries
		t.detections += s.Detections
		t.rollbacks += s.Rollbacks
		t.sdcSuspects += s.SDCSuspects
		t.cacheHits += s.CacheHits
		t.cacheMisses += s.CacheMisses
	}
	if e.svc != nil {
		add(e.svc.Stats())
	}
	for _, lb := range e.backends {
		if svc := lb.Service(); svc != nil {
			add(svc.Stats())
		}
	}
	if e.rt != nil {
		rs := e.rt.Stats()
		t.redispatches, t.routedAround, t.noBackend = rs.Redispatches, rs.RoutedAround, rs.NoBackend
		for _, s := range rs.Slots {
			t.slotJobs = append(t.slotJobs, s.Dispatched)
		}
	}
	return t
}

// freshService starts an in-process service whose encoding cache is empty,
// for the cache-miss rung, and returns its Submit and its Close.
func freshService() (submit func(context.Context, Request) (*Response, error), stop func()) {
	svc := service.New(serviceConfig(1))
	return svc.Submit, svc.Close
}
