package service

import (
	"context"
	"runtime"
	"testing"
	"time"

	"newsum/internal/kernel"
	"newsum/internal/par"
	"newsum/internal/sparse"
)

// TestOwnersJoinTheirGoroutines measures that each owner of goroutines —
// the kernel pool, the solve service with its per-worker pools, and the
// par rank team — leaves runtime.NumGoroutine back at its baseline once it
// is closed or returns. A goroutine that outlives its owner (a worker whose
// pool is never closed, a rank nobody waits for) keeps the count up past
// the one-second poll.
func TestOwnersJoinTheirGoroutines(t *testing.T) {
	a := sparse.Laplacian2D(10, 10)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"kernel.Pool", func(*testing.T) { kernel.NewPool(4).Close() }},
		{"service", func(t *testing.T) {
			s := New(Config{Workers: 2, KernelWorkers: 2})
			if _, err := s.Submit(context.Background(), Request{Matrix: laplaceSpec(), Solver: "pcg"}); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			s.Close()
		}},
		{"par.ABFTPCG", func(t *testing.T) {
			if _, err := par.ABFTPCG(a, b, 3, par.Options{Tol: 1e-10}); err != nil {
				t.Fatalf("ABFTPCG: %v", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			tc.run(t)
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(5 * time.Millisecond)
			}
			if n > base {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines after, %d before\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
