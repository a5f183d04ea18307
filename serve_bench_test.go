// The BenchmarkServe* suite measures the solve service end to end —
// submission cost, cache-hit path, and concurrent chaos load. verify.sh
// splits these from the core suite by name (`^BenchmarkServe`) into the
// BENCH_SERVE.json trajectory. Alongside ns/op, B/op, and allocs/op,
// every benchmark reports two Zero-class counters the comparator fails
// on any nonzero value: sdc-suspects (a returned solution whose
// recomputed residual contradicts its claimed convergence) and
// failed-jobs (a job that exhausted its retry budget).
package newsum

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newsum/internal/bench"
	"newsum/internal/service"
)

// serveBenchConfig sizes the benchmark service: serial kernels so the
// timing measures the scheduling stack rather than pool scaling, and a
// queue deep enough that closed-loop submitters never see ErrOverloaded.
func serveBenchConfig(workers int) service.Config {
	return service.Config{Workers: workers, QueueDepth: 128, CacheSize: 8,
		MaxRetries: 2, KernelWorkers: -1}
}

func serveSpec() service.MatrixSpec {
	return service.MatrixSpec{Kind: "laplace2d", N: 12}
}

// reportServeInvariants reports the service counters that must stay zero
// regardless of b.N: suspected silent corruptions and exhausted jobs.
func reportServeInvariants(b *testing.B, s *service.Service) {
	b.Helper()
	snap := s.Stats()
	b.ReportMetric(float64(snap.SDCSuspects), "sdc-suspects")
	b.ReportMetric(float64(snap.Failed), "failed-jobs")
}

// BenchmarkServeSolve measures one job through the full service path —
// admission, queue, worker, encode, solve, server-side residual
// verification — under both schemes, with one chaos fault per job so the
// detection machinery is on the measured path.
func BenchmarkServeSolve(b *testing.B) {
	for _, tc := range []struct {
		name string
		req  service.Request
	}{
		{"pcg-basic", service.Request{Matrix: serveSpec(), ChaosFaults: 1, Seed: benchSeed}},
		{"pcg-twolevel", service.Request{Matrix: serveSpec(), Scheme: "twolevel", ChaosFaults: 1, Seed: benchSeed}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := service.New(serveBenchConfig(1))
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := s.Submit(context.Background(), tc.req)
				if err != nil {
					b.Fatal(err)
				}
				if !resp.Converged {
					b.Fatal("job did not converge")
				}
			}
			b.StopTimer()
			reportServeInvariants(b, s)
		})
	}
}

// BenchmarkServeCacheHit isolates the cached-encoding fast path: after a
// warm-up job, every submission must hit the encoding cache.
func BenchmarkServeCacheHit(b *testing.B) {
	s := service.New(serveBenchConfig(1))
	defer s.Close()
	req := service.Request{Matrix: serveSpec()}
	if _, err := s.Submit(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Submit(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.CacheHit {
			b.Fatal("warm submission missed the encoding cache")
		}
	}
	b.StopTimer()
	reportServeInvariants(b, s)
}

// BenchmarkServeBatch compares k same-operator protected solves offered
// one at a time against the same k arriving concurrently and coalescing
// into one multi-RHS block solve. jobs/s is the figure of record. What the
// batch shares is the per-iteration matrix traversal, so it pays only once
// the operator no longer sits in cache: the small operator is the smoke arm
// (it fits in L1/L2, where the two sides tie, and carries the deterministic
// units under -short); the large one is the regime -batch-window is for,
// and is where the batched side must come out ahead.
func BenchmarkServeBatch(b *testing.B) {
	benchServeBatch(b, service.MatrixSpec{Kind: "laplace2d", N: 20}, 400)
	if !testing.Short() {
		b.Run("circuit-40000", func(b *testing.B) {
			benchServeBatch(b, service.MatrixSpec{Kind: "circuit", N: 40000, Seed: benchSeed}, 40000)
		})
	}
}

func benchServeBatch(b *testing.B, spec service.MatrixSpec, n int) {
	const k = 8
	rhs := func(col int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1 + float64((i*7+col*13)%11)
		}
		return v
	}
	// Warm the encoding cache so the one-time encode is not amortized over
	// b.N — B/op must not depend on the iteration count.
	warm := func(b *testing.B, s *service.Service) {
		if _, err := s.Submit(context.Background(), service.Request{Matrix: spec, RHS: rhs(0)}); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("sequential", func(b *testing.B) {
		s := service.New(serveBenchConfig(1))
		defer s.Close()
		warm(b, s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for c := 0; c < k; c++ {
				resp, err := s.Submit(context.Background(), service.Request{Matrix: spec, RHS: rhs(c)})
				if err != nil {
					b.Fatal(err)
				}
				if !resp.Converged {
					b.Fatal("job did not converge")
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(k*b.N)/b.Elapsed().Seconds(), "jobs/s")
		reportServeInvariants(b, s)
	})

	b.Run("batched", func(b *testing.B) {
		cfg := serveBenchConfig(1)
		cfg.BatchWindow = 5 * time.Millisecond
		cfg.MaxBatch = k
		s := service.New(cfg)
		defer s.Close()
		warm(b, s)
		var batched int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < k; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					resp, err := s.Submit(context.Background(), service.Request{Matrix: spec, RHS: rhs(c)})
					if err != nil {
						b.Error(err)
						return
					}
					if !resp.Converged {
						b.Error("job did not converge")
						return
					}
					if resp.Batched {
						atomic.AddInt64(&batched, 1)
					}
				}(c)
			}
			wg.Wait()
		}
		b.StopTimer()
		b.ReportMetric(float64(k*b.N)/b.Elapsed().Seconds(), "jobs/s")
		if batched == 0 {
			b.Fatal("no job was ever batched; the coalescing window never filled")
		}
		reportServeInvariants(b, s)
	})
}

// BenchmarkServeShard compares a router-fronted 2-backend fleet against a
// single process holding the same total worker budget, both driven over
// real HTTP by closed-loop clients (internal/bench MeasureShardPoint).
func BenchmarkServeShard(b *testing.B) {
	jobs := 48
	if testing.Short() {
		jobs = 24
	}
	for _, tc := range []struct {
		name     string
		backends int
	}{
		{"single", 1},
		{"router", 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var done, sdc, failed int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt, err := bench.MeasureShardPoint(tc.backends, 2, 8, jobs, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				done += int64(pt.Jobs)
				sdc += pt.SDCSuspects
				failed += pt.FailedJobs
			}
			b.StopTimer()
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "jobs/s")
			b.ReportMetric(float64(sdc), "sdc-suspects")
			b.ReportMetric(float64(failed), "failed-jobs")
		})
	}
}

// BenchmarkServeConcurrent drives parallel closed-loop submitters with
// per-job chaos faults — the serving-layer throughput figure under load.
func BenchmarkServeConcurrent(b *testing.B) {
	s := service.New(serveBenchConfig(4))
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			req := service.Request{Matrix: serveSpec(), ChaosFaults: 1, Seed: int64(benchSeed + i)}
			resp, err := s.Submit(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Converged {
				b.Fatal("job did not converge")
			}
		}
	})
	b.StopTimer()
	reportServeInvariants(b, s)
}
