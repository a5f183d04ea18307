package par

import (
	"testing"

	"newsum/internal/sparse"
)

// TestDistributedCheckpointFaultLandsInEncodedPayload re-runs the poisoned
// checkpoint scenario through the full-copy store: the strike must land in
// the stored payload and must never end in silent corruption — the restored
// corruption keeps failing verification, a rollback storm.
func TestDistributedCheckpointFaultLandsInEncodedPayload(t *testing.T) {
	a := sparse.Laplacian2D(16, 16)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	t.Run("full", func(t *testing.T) {
		res, err := ABFTPCG(a, b, 4, Options{
			Tol:                1e-10,
			CheckpointInterval: 10,
			MaxRollbacks:       5,
			Faults: []Fault{
				// Poison the iteration-10 snapshot, then force a rollback
				// onto it with an output fault two iterations later.
				{Iteration: 10, Rank: 1, Index: 3, Target: TargetCheckpoint},
				{Iteration: 12, Rank: 2, Index: 5},
			},
		})
		if err == nil {
			t.Fatalf("poisoned checkpoint was silently absorbed (converged=%v)", res.Converged)
		}
		if res.InjectedFaults != 2 {
			t.Errorf("fired %d faults, want 2", res.InjectedFaults)
		}
		if res.Rollbacks == 0 {
			t.Errorf("no rollback, checkpoint corruption never surfaced")
		}
	})
}
