package bench

import (
	"errors"
	"time"

	"newsum/internal/checksum"
	"newsum/internal/core"
	"newsum/internal/model"
	"newsum/internal/solver"
	"newsum/internal/vec"
)

// MeasureHostCosts measures the Eq. (5) parameters (t, t_u, t_d, t_c, t_r)
// on the local host for the given workload, mirroring the paper's
// procedure of repeated Stampede measurements (§6.3.1). Each parameter is
// the fastest of three trials, the robust estimator on noisy hosts.
func MeasureHostCosts(w Workload, sampleIters int) (model.OpCosts, error) {
	best := model.OpCosts{}
	for trial := 0; trial < 3; trial++ {
		c, err := measureHostCostsOnce(w, sampleIters)
		if err != nil {
			return c, err
		}
		if trial == 0 {
			best = c
			continue
		}
		if c.Iter < best.Iter {
			best.Iter = c.Iter
		}
		if c.Update < best.Update {
			best.Update = c.Update
		}
		if c.Detect < best.Detect {
			best.Detect = c.Detect
		}
		if c.Checkpoint < best.Checkpoint {
			best.Checkpoint = c.Checkpoint
		}
		if c.Recover < best.Recover {
			best.Recover = c.Recover
		}
	}
	return best, nil
}

func measureHostCostsOnce(w Workload, sampleIters int) (model.OpCosts, error) {
	if sampleIters < 4 {
		sampleIters = 4
	}
	n := w.A.Rows

	// t: plain iteration time over a fixed window.
	plainOpts := core.Options{Options: solver.Options{Tol: 1e-300, MaxIter: sampleIters}}
	start := time.Now()
	if _, _, err := RunScheme(w, core.Unprotected, plainOpts); err != nil && !isNotConverged(err) {
		return model.OpCosts{}, err
	}
	t := time.Since(start).Seconds() / float64(sampleIters)

	// t + t_u: basic-ABFT iteration time with detection pushed far out.
	basicOpts := core.Options{
		Options:            solver.Options{Tol: 1e-300, MaxIter: sampleIters},
		DetectInterval:     sampleIters + 1,
		CheckpointInterval: sampleIters + 1,
	}
	start = time.Now()
	if _, _, err := RunScheme(w, core.Basic, basicOpts); err != nil && !isNotConverged(err) {
		return model.OpCosts{}, err
	}
	tu := time.Since(start).Seconds()/float64(sampleIters) - t
	if tu < 0 {
		tu = 0
	}

	// t_d: two O(n) verification pairs (verify x and r).
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = float64(i%7) * 0.25
	}
	start = time.Now()
	const detReps = 16
	sink := 0.0
	for k := 0; k < detReps; k++ {
		for v := 0; v < 2; v++ {
			sum, abs := checksum.Ones.ApplyAbs(buf)
			sink += sum + abs
		}
	}
	td := time.Since(start).Seconds() / detReps
	_ = sink

	// t_c: deep copy of the two checkpointed vectors.
	dst1 := make([]float64, n)
	dst2 := make([]float64, n)
	start = time.Now()
	const ckReps = 16
	for k := 0; k < ckReps; k++ {
		copy(dst1, buf)
		copy(dst2, buf)
	}
	tc := time.Since(start).Seconds() / ckReps
	_ = dst1
	_ = dst2

	// t_r: restore (two copies) plus the recovery MVM and checksum
	// recomputation.
	y := make([]float64, n)
	start = time.Now()
	const rcReps = 8
	for k := 0; k < rcReps; k++ {
		copy(dst1, buf)
		copy(dst2, buf)
		w.A.MulVec(y, buf)
		vec.Sub(y, w.B, y)
		sink += checksum.Ones.Apply(y)
	}
	tr := time.Since(start).Seconds() / rcReps
	_ = sink

	return model.OpCosts{Iter: t, Update: tu, Detect: td, Checkpoint: tc, Recover: tr}, nil
}

func isNotConverged(err error) bool {
	return err != nil && errors.Is(err, solver.ErrNotConverged)
}
