package accuracy

import (
	"fmt"

	"newsum/internal/core"
	"newsum/internal/precond"
	"newsum/internal/solver"
)

// FalsePositiveSweep runs every solver fault-free across the θ grid on both
// engines and reports each run's alarm count — all of them, by
// construction, false positives. The sweep exposes the engines' asymmetry:
// the serial verifiers carry a running round-off bound η that keeps tight
// thresholds honest, while the distributed verifier uses the plain
// θ·max(n, Σ|c·v|) test and is expected to trip at aggressive θ.
func FalsePositiveSweep(cfg Config) ([]FPPoint, error) {
	cfg.normalize()
	a, b, _ := system(cfg.Side)
	m, err := precond.BlockJacobiILU0(a, 4)
	if err != nil {
		return nil, err
	}
	var points []FPPoint
	for _, sv := range cfg.Solvers {
		for _, theta := range cfg.Thetas {
			res, err := runSerial(sv, "basic", a, m, b, core.Options{
				Options:            solver.Options{Tol: 1e-10},
				DetectInterval:     serialDetect,
				CheckpointInterval: serialCheckpoint,
				Theta:              theta,
			})
			if err != nil {
				// A fault-free run aborted by false alarms is the finding,
				// not a failure: record it with what the result carries.
				if res.Iterations == 0 && res.Stats.Detections == 0 {
					return nil, fmt.Errorf("serial %s θ=%g: %w", sv, theta, err)
				}
			}
			points = append(points, FPPoint{
				Engine: "serial", Solver: sv, Theta: theta,
				Iterations: res.Iterations,
				Detections: res.Stats.Detections,
				Rollbacks:  res.Stats.Rollbacks,
			})

			opts := parOptions("basic")
			opts.Theta = theta
			pres, err := runParallel(sv, a, b, cfg.Ranks, opts)
			if err != nil && pres.Iterations == 0 && pres.Detections == 0 {
				return nil, fmt.Errorf("parallel %s θ=%g: %w", sv, theta, err)
			}
			points = append(points, FPPoint{
				Engine: "parallel", Solver: sv, Theta: theta,
				Iterations: pres.Iterations,
				Detections: pres.Detections,
				Rollbacks:  pres.Rollbacks,
			})
		}
	}
	return points, nil
}
