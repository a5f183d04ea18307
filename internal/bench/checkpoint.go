package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"newsum/internal/accuracy"
	"newsum/internal/checkpoint"
)

// The checkpoint experiment: sweep the snapshot codecs (full copy,
// differential, error-bounded lossy) across error bounds and fault rates
// on identical strike schedules, and report the trade Tao et al.'s lossy
// checkpointing makes inside the online ABFT recovery loop — bytes the
// codec avoids storing per job against the extra iterations a solve pays
// after restarting from quantized state.

// RunCheckpoint executes the codec sweep.
func RunCheckpoint(cfg accuracy.Config) ([]accuracy.CheckpointPoint, error) {
	return accuracy.CompareCheckpoint(cfg)
}

// WriteCheckpointReport renders the sweep as one table, with each arm's
// iteration cost measured against the full-codec arm of the same solver
// and strike count.
func WriteCheckpointReport(out io.Writer, title string, points []accuracy.CheckpointPoint) error {
	var s sink
	s.println(out, title)
	refs := checkpointRefs(points)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	s.println(tw, "solver\tcodec\tbound\tstrikes\ttrials\trecovered\taborted\tSDC\trollbacks\tlossy restores\tstored/copied\textra iters")
	for _, p := range points {
		s.printf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t%+d\n",
			p.Solver, p.Codec, boundCell(p.RelBound), p.Strikes, p.Trials,
			p.Recovered, p.Aborted, p.SDC, p.Rollbacks, p.LossyRestores,
			p.StoredFraction(), p.ExtraIterations(refs[checkpointRefKey(p)]))
	}
	s.flush(tw)
	return s.err
}

// WriteCheckpointCSV emits the sweep as one row per arm.
func WriteCheckpointCSV(w io.Writer, points []accuracy.CheckpointPoint) error {
	var s sink
	refs := checkpointRefs(points)
	s.println(w, "solver,codec,rel_bound,strikes,trials,recovered,aborted,sdc,rollbacks,lossy_restores,checkpoints,bytes_copied,bytes_stored,stored_fraction,iterations_run,extra_iterations")
	for _, p := range points {
		s.printf(w, "%s,%s,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%d\n",
			p.Solver, p.Codec, p.RelBound, p.Strikes, p.Trials,
			p.Recovered, p.Aborted, p.SDC, p.Rollbacks, p.LossyRestores,
			p.Checkpoints, p.BytesCopied, p.BytesStored, p.StoredFraction(),
			p.IterationsRun, p.ExtraIterations(refs[checkpointRefKey(p)]))
	}
	return s.err
}

// checkpointRefKey identifies the reference group one arm is measured
// against: same solver, same strike count.
func checkpointRefKey(p accuracy.CheckpointPoint) string {
	return fmt.Sprintf("%s/%d", p.Solver, p.Strikes)
}

// checkpointRefs indexes the full-codec arms as each group's iteration
// reference.
func checkpointRefs(points []accuracy.CheckpointPoint) map[string]accuracy.CheckpointPoint {
	refs := map[string]accuracy.CheckpointPoint{}
	for _, p := range points {
		if p.Codec == checkpoint.Full {
			refs[checkpointRefKey(p)] = p
		}
	}
	return refs
}

// boundCell formats a lossy error bound, rendering the exact codecs' zero
// as a dash.
func boundCell(bound float64) string {
	if bound == 0 {
		return "—"
	}
	return fmt.Sprintf("%.0e", bound)
}
