// Package model implements the paper's analytical performance machinery:
// the expected-execution-time formula Eq. (5) used to pick the optimal
// detection interval d and checkpoint interval cd (§6.3.1, Fig. 5,
// Table 5), the theoretical per-iteration overhead expressions of Table 4,
// and machine profiles describing the per-operation costs of the paper's
// two platforms (Stampede and Tianhe-2).
package model

import (
	"fmt"
	"math"
)

// OpCosts holds the measured time parameters feeding Eq. (5), all in
// seconds. In the paper these are the averages of 50 Stampede runs; here
// they are measured on the host (or taken from a Machine profile).
type OpCosts struct {
	// Iter is t, the time of one solver iteration.
	Iter float64
	// Update is t_u, the checksum-update overhead added to each iteration.
	Update float64
	// Detect is t_d, the cost of one outer-level detection (two O(n)
	// weighted sums for the x and r relationships).
	Detect float64
	// Checkpoint is t_c, the cost of one checkpoint.
	Checkpoint float64
	// Recover is t_r, the cost of one rollback recovery (restore plus the
	// recomputation MVM/PCO work).
	Recover float64
}

// Validate reports whether the parameters are usable.
func (c OpCosts) Validate() error {
	if c.Iter <= 0 {
		return fmt.Errorf("model: iteration time must be positive, got %g", c.Iter)
	}
	if c.Update < 0 || c.Detect < 0 || c.Checkpoint < 0 || c.Recover < 0 {
		return fmt.Errorf("model: negative cost parameter in %+v", c)
	}
	return nil
}

// ExpectedTime evaluates the expected execution time of a protected solve of
// I iterations at error rate lambda (errors per second, exponential
// inter-arrival) with detection interval d and checkpoint interval cd.
//
// The overhead term is the paper's Eq. (5); we add the productive base time
// I·(t + t_u + t_d/d), which Eq. (5) factors out (it is independent of cd
// for fixed d, so it does not move the optimum over cd, but including it
// makes the returned value a total time and keeps the d trade-off visible):
//
//	E = I·τ + (I/cd)·[ (e^{λ·cd·τ} − 1)·( (d·(t+t_u)+t_d)/(1−e^{−λ·cd·τ}) + t_r ) + t_c ]
//
// with τ = t + t_u + t_d/d the effective per-iteration time.
func ExpectedTime(c OpCosts, lambda float64, iters, cd, d int) float64 {
	if d < 1 || cd < d {
		return math.Inf(1)
	}
	tau := c.Iter + c.Update + c.Detect/float64(d)
	base := float64(iters) * tau
	if lambda <= 0 {
		return base + float64(iters)/float64(cd)*c.Checkpoint
	}
	x := lambda * float64(cd) * tau
	num := float64(d)*(c.Iter+c.Update) + c.Detect
	lost := (math.Exp(x) - 1) * (num/(1-math.Exp(-x)) + c.Recover)
	return base + float64(iters)/float64(cd)*(lost+c.Checkpoint)
}

// Optimize searches the (cd, d) grid for the pair minimizing ExpectedTime,
// with cd restricted to multiples of d (checkpoints on verified state) and
// cd ≤ maxCD. It reproduces the Table 5 selection procedure.
func Optimize(c OpCosts, lambda float64, iters, maxCD int) (cd, d int, t float64) {
	if maxCD < 1 {
		maxCD = 1
	}
	best := math.Inf(1)
	cd, d = 1, 1
	for dd := 1; dd <= maxCD; dd++ {
		for cc := dd; cc <= maxCD; cc += dd {
			e := ExpectedTime(c, lambda, iters, cc, dd)
			if e < best {
				best, cd, d = e, cc, dd
			}
		}
	}
	return cd, d, best
}

// SurfacePoint is one sample of the E(cd, d) landscape of Fig. 5.
type SurfacePoint struct {
	CD, D int
	E     float64
}

// Surface samples ExpectedTime over cd ∈ [1, maxCD] (multiples of d) for
// each d ∈ [1, maxD], the data behind Fig. 5.
func Surface(c OpCosts, lambda float64, iters, maxCD, maxD int) []SurfacePoint {
	var pts []SurfacePoint
	for d := 1; d <= maxD; d++ {
		for cd := d; cd <= maxCD; cd += d {
			pts = append(pts, SurfacePoint{CD: cd, D: d, E: ExpectedTime(c, lambda, iters, cd, d)})
		}
	}
	return pts
}
