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
	"testing"

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
