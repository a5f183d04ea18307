package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"newsum/internal/accuracy"
)

// The accuracy experiment: run the adversarial fault-model campaign of
// internal/accuracy and render its three outputs — the detection grid over
// (engine × solver × scheme × fault model × magnitude), the false-positive
// sweep over verification thresholds θ, and forward recovery against
// rollback. Where the other experiments reproduce the paper's cost tables,
// this one quantifies the claim those costs buy: which faults the online
// checks actually catch, how fast, and at what alarm rate.

// RunAccuracy executes the campaign.
func RunAccuracy(cfg accuracy.Config) (accuracy.Report, error) {
	return accuracy.Run(cfg)
}

// WriteAccuracyReport renders the full campaign as three tables.
func WriteAccuracyReport(out io.Writer, title string, rep accuracy.Report) error {
	var s sink
	s.println(out, title)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	s.println(tw, "engine\tsolver\tscheme\tmodel\tmagnitude\ttrials\tfired\tdetect%\tlatency\trecovered\taborted\tSDC\tmasked")
	for _, c := range rep.Cells {
		s.printf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%.0f%%\t%s\t%d\t%d\t%d\t%d\n",
			c.Engine, c.Solver, c.Scheme, c.Model, c.Magnitude,
			c.Trials, c.Fired, 100*c.DetectionRate(), latencyCell(c.MeanLatency()),
			c.Recovered, c.Aborted, c.SDC, c.Masked)
	}
	s.flush(tw)

	s.println(out, "")
	s.println(out, "False positives: fault-free runs per verification threshold θ")
	tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	s.println(tw, "engine\tsolver\tθ\titers\tfalse alarms\trollbacks")
	for _, p := range rep.FP {
		s.printf(tw, "%s\t%s\t%.0e\t%d\t%d\t%d\n",
			p.Engine, p.Solver, p.Theta, p.Iterations, p.Detections, p.Rollbacks)
	}
	s.flush(tw)

	s.println(out, "")
	s.println(out, "Forward recovery vs rollback-only on identical strike schedules")
	tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	s.println(tw, "engine\tsolver\ttrials\trb rollbacks\trb wasted\tfwd rollbacks\tfwd wasted\trepairs\tavoided\titers saved\trejected\tmismatches")
	for _, p := range rep.Forward {
		s.printf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			p.Engine, p.Solver, p.Trials,
			p.BaseRollbacks, p.BaseWasted, p.FwdRollbacks, p.FwdWasted,
			p.ForwardRepairs, p.RollbacksAvoided, p.IterationsSaved,
			p.Rejected, p.Mismatches)
	}
	s.flush(tw)
	return s.err
}

// latencyCell formats a mean detection latency, rendering the no-samples
// NaN as a dash rather than "NaN".
func latencyCell(lat float64) string {
	if math.IsNaN(lat) {
		return "—"
	}
	return fmt.Sprintf("%.1f", lat)
}

// WriteAccuracyCSV emits the detection grid as one row per campaign cell.
func WriteAccuracyCSV(w io.Writer, rep accuracy.Report) error {
	var s sink
	s.println(w, "engine,solver,scheme,model,magnitude,trials,fired,detected,detection_rate,mean_latency,recovered,aborted,sdc,masked")
	for _, c := range rep.Cells {
		lat := c.MeanLatency()
		latStr := ""
		if !math.IsNaN(lat) {
			latStr = fmt.Sprintf("%.1f", lat)
		}
		s.printf(w, "%s,%s,%s,%s,%s,%d,%d,%d,%.3f,%s,%d,%d,%d,%d\n",
			c.Engine, c.Solver, c.Scheme, c.Model, c.Magnitude,
			c.Trials, c.Fired, c.Detected, c.DetectionRate(), latStr,
			c.Recovered, c.Aborted, c.SDC, c.Masked)
	}
	return s.err
}

// WriteAccuracyFPCSV emits the false-positive sweep.
func WriteAccuracyFPCSV(w io.Writer, rep accuracy.Report) error {
	var s sink
	s.println(w, "engine,solver,theta,iterations,false_alarms,rollbacks")
	for _, p := range rep.FP {
		s.printf(w, "%s,%s,%g,%d,%d,%d\n",
			p.Engine, p.Solver, p.Theta, p.Iterations, p.Detections, p.Rollbacks)
	}
	return s.err
}

// WriteAccuracyForwardCSV emits the forward-vs-rollback comparison.
func WriteAccuracyForwardCSV(w io.Writer, rep accuracy.Report) error {
	var s sink
	s.println(w, "engine,solver,trials,base_rollbacks,base_wasted,fwd_rollbacks,fwd_wasted,forward_repairs,rollbacks_avoided,iterations_saved,rejected,mismatches")
	for _, p := range rep.Forward {
		s.printf(w, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			p.Engine, p.Solver, p.Trials,
			p.BaseRollbacks, p.BaseWasted, p.FwdRollbacks, p.FwdWasted,
			p.ForwardRepairs, p.RollbacksAvoided, p.IterationsSaved,
			p.Rejected, p.Mismatches)
	}
	return s.err
}
