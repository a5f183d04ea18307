package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"newsum/internal/checksum"
	"newsum/internal/sparse"
)

// laplaceSpec is the small shared operator most tests solve against: a
// 12×12 grid Laplacian (144 unknowns), converging in a few dozen PCG
// iterations — inside the chaos-fault window, so injected strikes land.
func laplaceSpec() MatrixSpec { return MatrixSpec{Kind: "laplace2d", N: 12} }

// TestAcceptance64Concurrent is the PR's acceptance criterion: at least 64
// concurrent solve jobs with fault injection active, mixed across
// solvers, schemes and recovery tiers — zero silent corruption (every returned solution is
// re-verified against the operator), aborted solves retried to
// convergence, and cache hits visible in the stats.
func TestAcceptance64Concurrent(t *testing.T) {
	s := New(Config{Workers: 8, QueueDepth: 128, CacheSize: 8, MaxRetries: 2})
	defer s.Close()

	// All SPD: the job mix below includes CG-family solvers.
	specs := []MatrixSpec{
		laplaceSpec(),
		{Kind: "spd", N: 300, Degree: 4, Seed: 7},
		{Kind: "laplace2d", N: 16},
		{Kind: "circuit", N: 300, Seed: 11},
	}
	const jobs = 64
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	resps := make([]*Response, jobs)
	for i := 0; i < jobs; i++ {
		req := Request{
			Matrix:      specs[i%len(specs)],
			ChaosFaults: 2,
			Seed:        int64(1000 + i),
		}
		switch i % 8 {
		case 0:
			req.Solver, req.Scheme = "pcg", "basic"
		case 1:
			req.Solver, req.Scheme = "pcg", "twolevel"
		case 2:
			req.Solver, req.Scheme = "bicgstab", "basic"
		case 3:
			req.Solver, req.Scheme = "cr", "basic"
		case 4:
			// Forward recovery under the same chaos load.
			req.Solver, req.Forward = "pcg", true
		case 5:
			req.Solver, req.Scheme = "bicgstab", "twolevel"
		case 6:
			// A job engineered to abort its first attempt: two strikes
			// against a rollback budget of one, retried clean.
			req.Solver = "pcg"
			req.ChaosFaults = 0
			req.MaxRollbacks = 1
			req.Faults = []FaultSpec{{Iteration: 2, Index: -1}, {Iteration: 12, Index: -1}}
		case 7:
			req.Solver = "pcg"
			req.Precond = "ilu0"
		}
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			resps[i], errs[i] = s.Submit(context.Background(), req)
		}(i, req)
	}
	wg.Wait()

	retried := 0
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d failed: %v", i, errs[i])
		}
		r := resps[i]
		if !r.Converged {
			t.Fatalf("job %d did not converge", i)
		}
		// Zero SDC: the solution every job returned satisfies the operator.
		if r.VerifiedResidual > sdcTolFactor*1e-8 {
			t.Fatalf("job %d: verified residual %.3e contradicts convergence — silent corruption", i, r.VerifiedResidual)
		}
		retried += len(r.Retried)
	}
	if retried == 0 {
		t.Fatal("no job retried: the engineered rollback-storm jobs did not abort their first attempt")
	}

	snap := s.Stats()
	if snap.Completed != jobs {
		t.Fatalf("completed = %d, want %d", snap.Completed, jobs)
	}
	if snap.CacheHits == 0 {
		t.Fatal("no cache hits across 64 jobs over 4 operators")
	}
	if snap.InjectedFaults == 0 {
		t.Fatal("fault injection was configured but nothing fired")
	}
	if snap.Detections == 0 {
		t.Fatal("faults fired but nothing was detected")
	}
	if snap.Retries == 0 {
		t.Fatal("retry counter disagrees with the per-job Retried records")
	}
	if snap.VerifiedResiduals < jobs {
		t.Fatalf("only %d of %d results were residual-verified", snap.VerifiedResiduals, jobs)
	}
	if snap.LatencySamples == 0 || snap.LatencyP99Millis < snap.LatencyP50Millis {
		t.Fatalf("latency quantiles inconsistent: p50 %.3f p99 %.3f over %d samples",
			snap.LatencyP50Millis, snap.LatencyP99Millis, snap.LatencySamples)
	}
}

// TestZeroSuspectsAndFailures holds the two counters that must read zero
// under any load — results whose recomputed residual contradicts their
// claimed convergence, and jobs that exhausted their retry budget — on four
// shapes of traffic through serial-kernel workers: one chaos-faulted job
// under each scheme, a warm cache hit, and concurrent chaos jobs on four
// workers.
func TestZeroSuspectsAndFailures(t *testing.T) {
	const seed = 20160531
	chaos := func(scheme string, seed int64) Request {
		return Request{Matrix: laplaceSpec(), Scheme: scheme, ChaosFaults: 1, Seed: seed}
	}
	for _, tc := range []struct {
		name       string
		workers    int
		concurrent bool
		reqs       []Request
	}{
		{"solve/pcg-basic", 1, false, []Request{chaos("", seed)}},
		{"solve/pcg-twolevel", 1, false, []Request{chaos("twolevel", seed)}},
		{"cache-hit", 1, false, []Request{{Matrix: laplaceSpec()}, {Matrix: laplaceSpec()}}},
		{"concurrent", 4, true, []Request{chaos("", seed+1), chaos("", seed+2), chaos("", seed+3), chaos("", seed+4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: tc.workers, QueueDepth: 128, CacheSize: 8, MaxRetries: 2, KernelWorkers: -1})
			defer s.Close()
			resps := make([]*Response, len(tc.reqs))
			errs := make([]error, len(tc.reqs))
			var wg sync.WaitGroup
			for i, req := range tc.reqs {
				if !tc.concurrent {
					resps[i], errs[i] = s.Submit(context.Background(), req)
					continue
				}
				wg.Add(1)
				go func(i int, req Request) {
					defer wg.Done()
					resps[i], errs[i] = s.Submit(context.Background(), req)
				}(i, req)
			}
			wg.Wait()
			for i := range tc.reqs {
				if errs[i] != nil {
					t.Fatalf("job %d: %v", i, errs[i])
				}
				if !resps[i].Converged {
					t.Fatalf("job %d did not converge", i)
				}
			}
			if tc.name == "cache-hit" && !resps[1].CacheHit {
				t.Errorf("warm submission missed the encoding cache")
			}
			snap := s.Stats()
			if snap.SDCSuspects != 0 || snap.Failed != 0 {
				t.Errorf("sdc suspects = %d, failed jobs = %d, want 0 and 0", snap.SDCSuspects, snap.Failed)
			}
		})
	}
}

// TestRetryOnAbort pins the retry state machine deterministically: two
// explicit strikes against a rollback budget of one storm the first
// attempt; the retry drops the (one-shot) explicit strike set and
// converges clean.
func TestRetryOnAbort(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxRetries: 2})
	defer s.Close()

	resp, err := s.Submit(context.Background(), Request{
		Matrix:       laplaceSpec(),
		MaxRollbacks: 1,
		Faults:       []FaultSpec{{Iteration: 2, Index: -1}, {Iteration: 12, Index: -1}},
	})
	if err != nil {
		t.Fatalf("job failed despite retry budget: %v", err)
	}
	if resp.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (storm, then clean retry)", resp.Attempts)
	}
	if len(resp.Retried) != 1 || resp.Retried[0] != "rollback-storm" {
		t.Fatalf("retried = %v, want [rollback-storm]", resp.Retried)
	}
	if !resp.Converged {
		t.Fatal("retry did not converge")
	}
	if resp.Detections < 2 {
		t.Fatalf("detections = %d, want >= 2 (both strikes caught)", resp.Detections)
	}
}

// TestRetryBudgetExhausted: with no retries allowed, the same job surfaces
// its rollback storm to the caller.
func TestRetryBudgetExhausted(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxRetries: -1})
	defer s.Close()

	resp, err := s.Submit(context.Background(), Request{
		Matrix:       laplaceSpec(),
		MaxRollbacks: 1,
		Faults:       []FaultSpec{{Iteration: 2, Index: -1}, {Iteration: 12, Index: -1}},
	})
	if err == nil {
		t.Fatal("expected the rollback storm to surface with MaxRetries = 0")
	}
	if resp == nil || resp.Attempts != 1 {
		t.Fatalf("resp = %+v, want a single recorded attempt", resp)
	}
}

// TestAdmissionControl verifies the backpressure contract: a single busy
// worker plus a depth-1 queue must reject a burst of further submissions
// with ErrOverloaded.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheSize: -1})
	defer s.Close()

	// A slow occupant: ~10k unknowns, unpreconditioned, tight tolerance.
	slow := Request{Matrix: MatrixSpec{Kind: "laplace2d", N: 100}, Tol: 1e-10}
	const burst = 12
	var wg sync.WaitGroup
	errsCh := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), slow)
			errsCh <- err
		}()
	}
	wg.Wait()
	close(errsCh)

	rejected := 0
	for err := range errsCh {
		if errors.Is(err, ErrOverloaded) {
			rejected++
		} else if err != nil {
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if rejected == 0 {
		t.Fatal("a 12-job burst against workers=1 queue=1 saw no ErrOverloaded")
	}
	if snap := s.Stats(); snap.Rejected != int64(rejected) {
		t.Fatalf("stats rejected = %d, want %d", snap.Rejected, rejected)
	}
}

// TestDeadlineExpiry covers both expiry paths: a deadline lapsing mid-solve
// and one lapsing while the job is still queued.
func TestDeadlineExpiry(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheSize: -1})
	defer s.Close()

	t.Run("mid-solve", func(t *testing.T) {
		_, err := s.Submit(context.Background(), Request{
			Matrix:        MatrixSpec{Kind: "laplace2d", N: 100},
			Tol:           1e-12,
			TimeoutMillis: 1,
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expected DeadlineExceeded, got %v", err)
		}
	})

	t.Run("in-queue", func(t *testing.T) {
		// Occupy the only worker, then enqueue a job whose deadline lapses
		// before it is ever dispatched.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.Submit(context.Background(), Request{ //lint:ignore errdrop the occupant's outcome is irrelevant to the queued job under test
				Matrix: MatrixSpec{Kind: "laplace2d", N: 100},
				Tol:    1e-10,
			})
		}()
		time.Sleep(10 * time.Millisecond) // let the occupant reach the worker
		_, err := s.Submit(context.Background(), Request{
			Matrix:        laplaceSpec(),
			TimeoutMillis: 1,
		})
		wg.Wait()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expected queue-expiry DeadlineExceeded, got %v", err)
		}
		if snap := s.Stats(); snap.Canceled == 0 {
			t.Fatal("expired jobs were not counted as canceled")
		}
	})
}

// TestCacheReuseAndEviction drives the LRU policy end to end through the
// public API: hit on re-submission, eviction at capacity, re-admission
// after eviction.
func TestCacheReuseAndEviction(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 2})
	defer s.Close()

	submit := func(spec MatrixSpec) *Response {
		t.Helper()
		resp, err := s.Submit(context.Background(), Request{Matrix: spec})
		if err != nil {
			t.Fatalf("submit %v: %v", spec.Kind, err)
		}
		return resp
	}

	a := laplaceSpec()
	b := MatrixSpec{Kind: "spd", N: 300, Degree: 4, Seed: 5}
	c := MatrixSpec{Kind: "circuit", N: 200, Seed: 9}

	if r := submit(a); r.CacheHit {
		t.Fatal("first solve of operator a reported a cache hit")
	}
	if r := submit(a); !r.CacheHit {
		t.Fatal("second solve of operator a missed the cache")
	}
	submit(b) // cache: {b, a}
	submit(c) // evicts a (LRU): cache {c, b}
	if r := submit(a); r.CacheHit {
		t.Fatal("operator a survived eviction at capacity 2")
	}
	snap := s.Stats()
	if snap.CacheEntries != 2 {
		t.Fatalf("cache entries = %d, want 2", snap.CacheEntries)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 4 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/4", snap.CacheHits, snap.CacheMisses)
	}
}

// TestAdmissionRefusesAStruckDerivation: a soft error striking the
// encoding's derivation — one bit of a new-sum row, before the admission
// check runs — keeps the operator out of the cache. The job still converges
// on its own per-solve derivation, admission_failures counts every refusal,
// and once the strikes stop the operator is admitted and then hit.
func TestAdmissionRefusesAStruckDerivation(t *testing.T) {
	defer func(f func(*sparse.CSR, float64) *checksum.Encoding) { newEncoding = f }(newEncoding)
	newEncoding = func(a *sparse.CSR, d float64) *checksum.Encoding {
		e := checksum.NewEncoding(a, d)
		row := e.Matrix(checksum.Triple).Rows[2]
		row[7] = math.Float64frombits(math.Float64bits(row[7]) ^ 1)
		return e
	}
	s := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	defer s.Close()
	submit := func(wantHit bool, wantFailures int64, wantEntries int) {
		t.Helper()
		resp, err := s.Submit(context.Background(), Request{Matrix: laplaceSpec()})
		if err != nil {
			t.Fatal(err)
		}
		snap := s.Stats()
		if !resp.Converged || resp.CacheHit != wantHit || snap.AdmissionFailures != wantFailures || snap.CacheEntries != wantEntries {
			t.Fatalf("converged %v, cache hit %v, admission failures %d, cache entries %d; want true, %v, %d, %d",
				resp.Converged, resp.CacheHit, snap.AdmissionFailures, snap.CacheEntries, wantHit, wantFailures, wantEntries)
		}
	}
	submit(false, 1, 0)
	submit(false, 2, 0)
	newEncoding = checksum.NewEncoding
	submit(false, 2, 1)
	submit(true, 2, 1)
}

// TestDrainOnClose: Close must run every already-admitted job to
// completion before returning, and admission must fail afterwards.
func TestDrainOnClose(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})

	const jobs = 6
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), Request{Matrix: laplaceSpec(), Seed: int64(i)})
		}(i)
	}
	// Give the submissions a moment to enqueue, then drain.
	time.Sleep(5 * time.Millisecond)
	s.Close()
	wg.Wait()

	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("job %d: drain corrupted the outcome: %v", i, err)
		}
	}
	if _, err := s.Submit(context.Background(), Request{Matrix: laplaceSpec()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close submit returned %v, want ErrClosed", err)
	}
	snap := s.Stats()
	if snap.InFlight != 0 {
		t.Fatalf("in-flight = %d after Close, want 0", snap.InFlight)
	}
}

// TestValidation sweeps the request-vetting table; every rejection must
// wrap ErrBadRequest (the HTTP 400 contract) and reject before any solve
// work happens.
func TestValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, MaxMatrixRows: 10000})
	defer s.Close()

	cases := []struct {
		name string
		req  Request
	}{
		{"unknown solver", Request{Solver: "sor", Matrix: laplaceSpec()}},
		{"unknown scheme", Request{Scheme: "triple", Matrix: laplaceSpec()}},
		{"twolevel cr", Request{Solver: "cr", Scheme: "twolevel", Matrix: laplaceSpec()}},
		{"unknown precond", Request{Precond: "amg", Matrix: laplaceSpec()}},
		{"precond on cr", Request{Solver: "cr", Precond: "ilu0", Matrix: laplaceSpec()}},
		{"unknown matrix kind", Request{Matrix: MatrixSpec{Kind: "hilbert", N: 10}}},
		{"matrix too large", Request{Matrix: MatrixSpec{Kind: "laplace2d", N: 200}}},
		{"matrix too small", Request{Matrix: MatrixSpec{Kind: "spd", N: 1}}},
		// CircuitLike panics below n = 4, in a worker nothing recovers.
		{"circuit n=2", Request{Matrix: MatrixSpec{Kind: "circuit", N: 2}}},
		{"circuit n=3", Request{Matrix: MatrixSpec{Kind: "circuit", N: 3}}},
		// A circuit operator has ⌊√n⌋² rows, not n.
		{"circuit rhs of n", Request{Matrix: MatrixSpec{Kind: "circuit", N: 300}, RHS: make([]float64, 300)}},
		{"rhs length mismatch", Request{Matrix: laplaceSpec(), RHS: []float64{1, 2, 3}}},
		{"bad fault site", Request{Matrix: laplaceSpec(), Faults: []FaultSpec{{Site: "gemm"}}}},
		{"too many chaos faults", Request{Matrix: laplaceSpec(), ChaosFaults: 1000}},
		{"negative timeout_ms", Request{Matrix: laplaceSpec(), TimeoutMillis: -1}},
		{"timeout_ms past 24 h", Request{Matrix: laplaceSpec(), TimeoutMillis: 86_400_001}},
		// 1e13 ms wraps a time.Duration to −2 346 317 h: a deadline already past.
		{"timeout_ms wraps negative", Request{Matrix: laplaceSpec(), TimeoutMillis: 1e13}},
		{"negative max_iter", Request{Matrix: laplaceSpec(), MaxIter: -1}},
		// laplaceSpec has 144 rows; past 100·n an unreachable tol holds a
		// worker for as long as the cap allows.
		{"max_iter past 100n", Request{Matrix: laplaceSpec(), MaxIter: 100*144 + 1}},
		{"max_iter near MaxInt", Request{Matrix: laplaceSpec(), MaxIter: math.MaxInt}},
		{"degree past the bound", Request{Matrix: MatrixSpec{Kind: "spd", N: 4, Degree: maxDegree + 1}}},
		{"degree 2^61", Request{Matrix: MatrixSpec{Kind: "spd", N: 4, Degree: 1 << 61}}},
		{"diagdom degree past the bound", Request{Matrix: MatrixSpec{Kind: "diagdom", N: 4, Degree: maxDegree + 1}}},
		{"inline triplet mismatch", Request{Matrix: MatrixSpec{Kind: "inline", Size: 2,
			Rows: []int{0}, Cols: []int{0, 1}, Vals: []float64{1}}}},
		{"inline index out of range", Request{Matrix: MatrixSpec{Kind: "inline", Size: 2,
			Rows: []int{5}, Cols: []int{0}, Vals: []float64{1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Submit(context.Background(), tc.req)
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("got %v, want ErrBadRequest", err)
			}
		})
	}
}

// TestTimeoutAndIterationBounds: the largest timeout_ms (24 h) and max_iter
// (100·n) a request may name are admitted and solved.
func TestTimeoutAndIterationBounds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	resp, err := s.Submit(context.Background(), Request{Matrix: laplaceSpec(), TimeoutMillis: 86_400_000, MaxIter: 100 * 144})
	if err != nil || !resp.Converged {
		t.Fatalf("request at both bounds: converged %v, err %v", resp != nil && resp.Converged, err)
	}
}

// TestCircuitRHSLength: a circuit job of n = 300 solves the 17² = 289-row
// operator CircuitLike builds, so a 289-entry rhs is admitted and the
// solution has 289 entries, and n = 4 — the smallest admitted — solves.
func TestCircuitRHSLength(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	rhs := make([]float64, 289)
	for i := range rhs {
		rhs[i] = 1 + float64(i%5)
	}
	for _, req := range []Request{
		{Matrix: MatrixSpec{Kind: "circuit", N: 300, Seed: 11}, RHS: rhs, ReturnSolution: true},
		{Matrix: MatrixSpec{Kind: "circuit", N: 4, Seed: 11}, ReturnSolution: true},
	} {
		resp, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("circuit n=%d: %v", req.Matrix.N, err)
		}
		if want := sparse.CircuitOrder(req.Matrix.N); !resp.Converged || resp.N != want || len(resp.X) != want {
			t.Fatalf("circuit n=%d: converged %v, n %d, len(x) %d, want %d", req.Matrix.N, resp.Converged, resp.N, len(resp.X), want)
		}
	}
}

// TestMatrixDegreeBound: a generator degree of maxDegree is admitted and
// solved; past it the request is refused before anything is built — a
// degree of 2⁶¹ once made SPDRandom append entries until the process was
// killed.
func TestMatrixDegreeBound(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	for _, req := range []Request{
		{Matrix: MatrixSpec{Kind: "spd", N: 200, Degree: maxDegree, Seed: 3}},
		{Solver: "bicgstab", Matrix: MatrixSpec{Kind: "diagdom", N: 200, Degree: maxDegree, Seed: 3}},
	} {
		resp, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("%s degree %d: %v", req.Matrix.Kind, maxDegree, err)
		}
		if !resp.Converged {
			t.Fatalf("%s degree %d: not converged", req.Matrix.Kind, maxDegree)
		}
	}
	for _, degree := range []int{maxDegree + 1, 1 << 61} {
		start := time.Now()
		_, err := s.Submit(context.Background(), Request{Matrix: MatrixSpec{Kind: "spd", N: 4, Degree: degree}})
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("degree %d: got %v, want ErrBadRequest", degree, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("degree %d: refused after %v", degree, d)
		}
	}
}

// TestInlineMatrixAndTrace solves an inline operator with an explicit
// fault and checks the returned solution and timeline.
func TestInlineMatrixAndTrace(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()

	// A 3x3 SPD tridiagonal shipped as COO triplets.
	req := Request{
		Matrix: MatrixSpec{
			Kind: "inline", Size: 3,
			Rows: []int{0, 0, 1, 1, 1, 2, 2},
			Cols: []int{0, 1, 0, 1, 2, 1, 2},
			Vals: []float64{2, -1, -1, 2, -1, -1, 2},
		},
		RHS:            []float64{1, 0, 1},
		ReturnSolution: true,
		Trace:          true,
	}
	resp, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("inline solve: %v", err)
	}
	if !resp.Converged || len(resp.X) != 3 {
		t.Fatalf("converged=%v len(x)=%d", resp.Converged, len(resp.X))
	}
	// The exact solution of this system is x = (1, 1, 1).
	for i, want := range []float64{1, 1, 1} {
		if diff := resp.X[i] - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, resp.X[i], want)
		}
	}
}

// TestObservedEvents checks the streamed timeline of a retried job:
// monotonically increasing sequence numbers and the start → attempt →
// retry → attempt → result shape.
func TestObservedEvents(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxRetries: 1})
	defer s.Close()

	events := make(chan JobEvent, 64)
	collected := make([]JobEvent, 0, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range events {
			collected = append(collected, ev)
		}
	}()
	_, err := s.SubmitObserved(context.Background(), Request{
		Matrix:       laplaceSpec(),
		MaxRollbacks: 1,
		Faults:       []FaultSpec{{Iteration: 2, Index: -1}, {Iteration: 12, Index: -1}},
	}, events)
	wg.Wait()
	if err != nil {
		t.Fatalf("observed submit: %v", err)
	}

	kinds := make([]string, 0, len(collected))
	for i, ev := range collected {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		kinds = append(kinds, ev.Event)
	}
	want := []string{"start", "cache", "attempt", "retry", "attempt", "result"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event timeline %v, want %v", kinds, want)
	}
}

// TestObservedEventsClosedOnRejection: a consumer ranging over the event
// channel of a rejected submission must not hang.
func TestObservedEventsClosedOnRejection(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	events := make(chan JobEvent, 4)
	_, err := s.SubmitObserved(context.Background(), Request{Solver: "sor", Matrix: laplaceSpec()}, events)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("got %v, want ErrBadRequest", err)
	}
	if _, open := <-events; open {
		t.Fatal("event channel left open after an admission failure")
	}
}

// TestQuantile pins the nearest-rank quantile helper the /stats latency
// figures rest on.
func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.5); q > 0 || q < 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(sorted, 0); q > 1 || q < 1 {
		t.Fatalf("q0 = %v, want 1", q)
	}
	if q := quantile(sorted, 1); q > 10 || q < 10 {
		t.Fatalf("q1 = %v, want 10", q)
	}
	if q := quantile(sorted, 0.5); q < 5 || q > 6 {
		t.Fatalf("median = %v, want within [5, 6]", q)
	}
}
