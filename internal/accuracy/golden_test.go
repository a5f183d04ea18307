package accuracy

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"newsum/internal/checkpoint"
	"newsum/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/campaign_units.golden")

// campaignSeed is the seed every committed campaign unit was recorded at.
const campaignSeed = 20160531

// TestCampaignUnitsGolden pins the seeded outcomes of three campaigns, one
// "<campaign>/<cell> <unit> <value>" line each: the detection campaign's
// rate, latency and SDC count; the §6 lossy-checkpoint sweep's stored
// bytes, extra iterations, aborts and SDC trials per (solver, codec,
// strikes); and the forward-vs-rollback comparison's saved iterations,
// repairs, wasted iterations and mismatches per (engine, solver). Every
// unit is exact at the seed, and aborted, sdc-rate and mismatches must be
// zero as well. Regenerate deliberately with
//
//	go test ./internal/accuracy -run TestCampaignUnitsGolden -update
func TestCampaignUnitsGolden(t *testing.T) {
	var lines []string
	unit := func(name, unit string, v float64) {
		lines = append(lines, fmt.Sprintf("%s %s %s", name, unit, strconv.FormatFloat(v, 'g', -1, 64)))
	}
	mustBeZero := func(name, unit string, v int) {
		if v != 0 {
			t.Errorf("%s: %s = %d, want 0", name, unit, v)
		}
	}

	cells, err := RunSerial(Config{
		Side:       8,
		Solvers:    []string{"pcg"},
		Models:     []fault.Model{fault.ModelSingle, fault.ModelSign},
		Magnitudes: []fault.Magnitude{fault.MagLarge},
		Trials:     1,
		Seed:       campaignSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rate, latSum float64
	latN, sdc := 0, 0
	for _, c := range cells {
		rate += c.DetectionRate()
		if l := c.MeanLatency(); !math.IsNaN(l) {
			latSum += l
			latN++
		}
		sdc += c.SDC
	}
	unit("DetectionCampaign", "detect-%", 100*rate/float64(len(cells)))
	if latN > 0 {
		unit("DetectionCampaign", "latency-iters", latSum/float64(latN))
	}
	unit("DetectionCampaign", "sdc-rate", float64(sdc))
	mustBeZero("DetectionCampaign", "sdc-rate", sdc)

	points, err := CompareCheckpoint(Config{
		Side:             8,
		Solvers:          []string{"pcg", "cr"},
		Trials:           2,
		CheckpointBounds: []float64{1e-4, 1e-8},
		Seed:             campaignSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := map[string]CheckpointPoint{}
	for _, p := range points {
		if p.Codec == checkpoint.Full {
			full[fmt.Sprintf("%s/%d", p.Solver, p.Strikes)] = p
		}
	}
	for _, p := range points {
		label := p.Codec.String()
		if p.RelBound > 0 {
			label = fmt.Sprintf("%s-%.0e", label, p.RelBound)
		}
		name := fmt.Sprintf("Checkpoint/%s/%s/strikes=%d", p.Solver, label, p.Strikes)
		unit(name, "aborted", float64(p.Aborted))
		unit(name, "extra-iters", float64(p.ExtraIterations(full[fmt.Sprintf("%s/%d", p.Solver, p.Strikes)])))
		unit(name, "sdc-rate", float64(p.SDC))
		unit(name, "stored-bytes", float64(p.BytesStored))
		mustBeZero(name, "aborted", p.Aborted)
		mustBeZero(name, "sdc-rate", p.SDC)
	}

	fwd, err := CompareForward(Config{
		Side:    8,
		Solvers: []string{"pcg", "cr"},
		Trials:  2,
		Ranks:   2,
		Seed:    campaignSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fwd {
		name := "ForwardRecovery/" + p.Engine + "/" + p.Solver
		unit(name+"/forward", "iters", float64(p.IterationsSaved))
		unit(name+"/forward", "mismatches", float64(p.Mismatches))
		unit(name+"/forward", "repairs", float64(p.ForwardRepairs))
		unit(name+"/forward", "wasted-iters", float64(p.FwdWasted))
		unit(name+"/rollback", "wasted-iters", float64(p.BaseWasted))
		mustBeZero(name+"/forward", "mismatches", p.Mismatches)
	}

	path := filepath.Join("testdata", "campaign_units.golden")
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the recorded units:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
