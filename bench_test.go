// Package newsum's root benchmark suite regenerates every table and figure
// of the paper's evaluation (§6) as testing.B targets, one per experiment,
// plus ablation benchmarks for the design choices DESIGN.md calls out.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Individual experiments:
//
//	go test -bench=BenchmarkFigure6 -benchtime=1x
//
// The heavyweight empirical figures (6, 7, 10) print their tables once per
// run; metric lines additionally report the headline numbers so shapes can
// be compared run-to-run. The newsum-bench command runs the same harness
// with larger default sizes.
package newsum

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"testing"

	"newsum/internal/accuracy"
	"newsum/internal/bench"
	"newsum/internal/checkpoint"
	"newsum/internal/checksum"
	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/model"
	"newsum/internal/par"
	"newsum/internal/solver"
	"newsum/internal/sparse"
)

const (
	benchSeed   = 20160531
	benchN      = 10000 // kept moderate so the full suite stays minutes-scale
	benchShortN = 4000  // -short: the verify.sh smoke gate's quick size
	benchBlocks = 8
)

// benchSize honors -short: verify.sh runs the whole suite at
// `-benchtime=1x -short` as its standing trajectory gate, so quick sizes
// keep that gate seconds-scale. Deterministic metrics (wasted-iters,
// detect-%, sdc-rate) depend on the size, so a baseline records the mode
// it was measured in — BENCH_CORE.json is a -short baseline.
func benchSize() int {
	if testing.Short() {
		return benchShortN
	}
	return benchN
}

func circuitWorkload(b *testing.B) bench.Workload {
	b.Helper()
	w, err := bench.CircuitPCG(benchSize(), benchBlocks, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkTable3 regenerates the feature/coverage matrix (Table 3).
func BenchmarkTable3(b *testing.B) {
	w, err := bench.LaplacePCG(30, 4)
	if err != nil {
		b.Fatal(err)
	}
	var out io.Writer = io.Discard
	for i := 0; i < b.N; i++ {
		r, err := bench.Table3(w, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			out = os.Stdout
			bench.WriteTable3(out, r)
			out = io.Discard
		}
	}
}

// BenchmarkTable4 regenerates the theoretical cost table (Table 4).
func BenchmarkTable4(b *testing.B) {
	// One untimed pass first. The table is ~5 KB of formatting, so at
	// -benchtime=1x its B/op is at the mercy of one-time runtime work that
	// happens to land here: the first %v of each Stringer type adds an
	// itab, and the 384th itab of the process doubles the runtime's itab
	// table (9.25 KB) — which benchmark that falls in depends only on how
	// many interface/type pairs the binary has touched before. After the
	// warm-up no new pair can appear in the timed region.
	_ = bench.WriteTable4(io.Discard, 1, 12, 4.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			bench.WriteTable4(os.Stdout, 1, 12, 4.8)
		} else {
			bench.WriteTable4(io.Discard, 1, 12, 4.8)
		}
	}
}

// BenchmarkTable5 regenerates the optimal-(cd,d) table (Table 5) from the
// Eq. (5) model on the Stampede profile.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 {
			bench.WriteTable5(os.Stdout, model.Stampede(), 2000, 1000)
		} else {
			_ = bench.Table5(model.Stampede(), 2000, 1000)
		}
	}
}

// BenchmarkFigure5 regenerates the E(cd,d) landscape (Fig. 5).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 {
			bench.WriteFigure5(os.Stdout, model.Stampede(), 2000)
		} else {
			_ = model.Surface(model.Stampede().PCG, 1.0, 2000, 40, 8)
		}
	}
}

// BenchmarkFigure6 measures the PCG overhead comparison (Fig. 6) on the
// host. Metrics: error-free overhead %, scenario-2 overhead % for the three
// schemes.
func BenchmarkFigure6(b *testing.B) {
	w := circuitWorkload(b)
	for i := 0; i < b.N; i++ {
		fig, err := bench.FigureOverheads(w, 2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			bench.WriteOverheadFigure(os.Stdout, "Figure 6: PCG overheads", fig)
		}
		b.ReportMetric(100*fig.Overhead["basic"][bench.ErrorFree], "basic-errfree-%")
		b.ReportMetric(100*fig.Overhead["two-level/eager"][bench.S2], "twolevel-s2-%")
		b.ReportMetric(100*fig.Overhead["online-MV"][bench.S2], "onlinemv-s2-%")
	}
}

// BenchmarkFigure7 measures the PBiCGSTAB overhead comparison (Fig. 7).
func BenchmarkFigure7(b *testing.B) {
	side := 1
	for side*side < benchSize() {
		side++
	}
	w, err := bench.ConvectionPBiCGSTAB(side, side, benchBlocks, 20)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		fig, err := bench.FigureOverheads(w, 2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			bench.WriteOverheadFigure(os.Stdout, "Figure 7: PBiCGSTAB overheads", fig)
		}
		b.ReportMetric(100*fig.Overhead["basic"][bench.ErrorFree], "basic-errfree-%")
		b.ReportMetric(100*fig.Overhead["two-level/eager"][bench.S1], "twolevel-s1-%")
	}
}

// BenchmarkFigure8 regenerates the Tianhe-2 PCG projection (Fig. 8).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := bench.ProjectOverheads(model.Tianhe2(), core.MethodPCG, 1, 12, 4.8)
		if i == 0 {
			bench.WriteProjectedFigure(os.Stdout, "Figure 8: PCG on Tianhe-2", fig)
		}
	}
}

// BenchmarkFigure9 regenerates the Tianhe-2 PBiCGSTAB projection (Fig. 9).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := bench.ProjectOverheads(model.Tianhe2(), core.MethodPBiCGSTAB, 1, 10, 4.8)
		if i == 0 {
			bench.WriteProjectedFigure(os.Stdout, "Figure 9: PBiCGSTAB on Tianhe-2", fig)
		}
	}
}

// BenchmarkFigure10 measures the multi-error recovery comparison (Fig. 10).
func BenchmarkFigure10(b *testing.B) {
	w := circuitWorkload(b)
	for i := 0; i < b.N; i++ {
		fig, err := bench.Figure10(w, 2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			bench.WriteFigure10(os.Stdout, fig)
		}
		var sb, st float64
		for _, c := range fig.Cases {
			sb += c.Overhead["basic"]
			st += c.Overhead["two-level/lazy"]
		}
		n := float64(len(fig.Cases))
		b.ReportMetric(100*sb/n, "basic-avg-%")
		b.ReportMetric(100*st/n, "twolevel-avg-%")
		if sb > 0 {
			b.ReportMetric(100*(sb-st)/sb, "improvement-%")
		}
	}
}

// --- Ablation benchmarks ------------------------------------------------

// BenchmarkAblationChecksumCount measures the per-MVM checksum update cost
// as the number of carried checksums grows (single vs double vs triple) —
// the design trade the lazy two-level variant exploits.
func BenchmarkAblationChecksumCount(b *testing.B) {
	a := sparse.CircuitLike(benchSize(), benchSeed)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%13) * 0.1
	}
	for _, tc := range []struct {
		name    string
		weights []checksum.Weight
	}{
		{"single", checksum.Single},
		{"double", checksum.Double},
		{"triple", checksum.Triple},
	} {
		b.Run(tc.name, func(b *testing.B) {
			enc := checksum.EncodeMatrix(a, tc.weights, checksum.PracticalD(a))
			s := checksum.Checksums(x, tc.weights)
			eta := make([]float64, len(tc.weights))
			dst := make([]float64, len(tc.weights))
			etaDst := make([]float64, len(tc.weights))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.UpdateMVMBound(dst, etaDst, x, s, eta)
			}
		})
	}
}

// BenchmarkAblationEagerVsLazy compares the two two-level implementations
// end-to-end on an error-free solve: the lazy variant should track the
// basic scheme's cost, the eager one pays the Table 4 premium.
func BenchmarkAblationEagerVsLazy(b *testing.B) {
	w := circuitWorkload(b)
	for _, tc := range []struct {
		name   string
		scheme core.Scheme
		eager  bool
	}{
		{"basic", core.Basic, false},
		{"twolevel-lazy", core.TwoLevel, false},
		{"twolevel-eager", core.TwoLevel, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Options: solver.Options{Tol: w.Tol, MaxIter: w.MaxIter}, EagerTriple: tc.eager}
				if _, _, err := bench.RunScheme(w, tc.scheme, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDetectInterval sweeps the detection interval d for the
// basic scheme under scenario-2 errors: small d detects early (cheap
// rollbacks, frequent checks), large d checks rarely but loses more work.
func BenchmarkAblationDetectInterval(b *testing.B) {
	w := circuitWorkload(b)
	iters, err := w.FaultFreeIterations()
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{
					Options:            solver.Options{Tol: w.Tol, MaxIter: w.MaxIter},
					DetectInterval:     d,
					CheckpointInterval: 16,
					MaxRollbacks:       500,
					Injector:           bench.InjectorFor(bench.S2, iters, 16, benchSeed),
				}
				if _, _, err := bench.RunScheme(w, core.Basic, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDecouplingScalar compares PracticalD with the Lemma 2
// worst-case bound: LemmaD is orders of magnitude larger, exercising the
// running round-off bounds (η) that keep verification sound.
func BenchmarkAblationDecouplingScalar(b *testing.B) {
	w := circuitWorkload(b)
	for _, tc := range []struct {
		name  string
		lemma bool
	}{
		{"practicalD", false},
		{"lemmaD", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Options: solver.Options{Tol: w.Tol, MaxIter: w.MaxIter}, UseLemmaD: tc.lemma}
				res, _, err := bench.RunScheme(w, core.Basic, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Rollbacks > 0 {
					b.Fatalf("%s: false positives caused %d rollbacks", tc.name, res.Stats.Rollbacks)
				}
			}
		})
	}
}

// BenchmarkAblationVerifyCost isolates the outer-level detection cost (two
// O(n) weighted sums), the t_d of Eq. (5).
func BenchmarkAblationVerifyCost(b *testing.B) {
	x := make([]float64, benchSize())
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	s := checksum.Checksums(x, checksum.Single)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !checksum.VerifyVector(x, checksum.Single, s, checksum.DefaultTol()) {
			b.Fatal("clean vector failed verification")
		}
	}
}

// BenchmarkAblationRecovery isolates one rollback recovery: restore two
// vectors, recompute r = b − A·x and its checksums (the t_r of Eq. (5)).
func BenchmarkAblationRecovery(b *testing.B) {
	w := circuitWorkload(b)
	iters, err := w.FaultFreeIterations()
	if err != nil {
		b.Fatal(err)
	}
	_ = iters
	costs, err := bench.MeasureHostCosts(w, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(costs.Recover*1e6, "t_r-µs")
	b.ReportMetric(costs.Checkpoint*1e6, "t_c-µs")
	b.ReportMetric(costs.Detect*1e6, "t_d-µs")
	b.ReportMetric(costs.Update*1e6, "t_u-µs")
	b.ReportMetric(costs.Iter*1e6, "t-µs")
	for i := 0; i < b.N; i++ {
		if _, err := bench.MeasureHostCosts(w, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInjectionOverhead confirms a nil injector costs nothing on the
// hot path (the instrumentation contract).
func BenchmarkInjectionOverhead(b *testing.B) {
	var inj *fault.Injector
	v := make([]float64, benchSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.InjectOutput(i, fault.SiteMVM, v)
	}
}

// BenchmarkAblationDetectionLatency compares eager (per-operation) and lazy
// (interval) detection modes end-to-end under scenario-2 errors — the
// paper's "flexible detection latency" trade (§1, §4).
func BenchmarkAblationDetectionLatency(b *testing.B) {
	w := circuitWorkload(b)
	iters, err := w.FaultFreeIterations()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		d     int
		eager bool
	}{
		{"eager", 1 << 20, true},
		{"lazy-d1", 1, false},
		{"lazy-d8", 8, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{
					Options:            solver.Options{Tol: w.Tol, MaxIter: w.MaxIter},
					DetectInterval:     tc.d,
					CheckpointInterval: 16,
					EagerDetection:     tc.eager,
					MaxRollbacks:       500,
					Injector:           bench.InjectorFor(bench.S2, iters, 16, benchSeed),
				}
				res, _, err := bench.RunScheme(w, core.Basic, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.WastedIterations), "wasted-iters")
			}
		})
	}
}

// runCollectiveTeam drives one benchmark body per rank over a communicator
// team and joins them all, the harness for the collective benchmarks below.
func runCollectiveTeam(comms []*par.Comm, body func(rank int, c *par.Comm)) {
	var wg sync.WaitGroup
	for rank, c := range comms {
		wg.Add(1)
		go func(rank int, c *par.Comm) {
			defer wg.Done()
			body(rank, c)
		}(rank, c)
	}
	wg.Wait()
}

// BenchmarkAllReduceVec compares the Linear rendezvous and Tree
// recursive-doubling vector all-reduce — the collective behind the
// setup-time checksum-row assembly.
func BenchmarkAllReduceVec(b *testing.B) {
	const ranks, length = 8, 4096
	for _, topo := range []par.Topology{par.Linear, par.Tree} {
		b.Run(topo.String(), func(b *testing.B) {
			comms := par.NewTeamTopology(ranks, topo)
			b.SetBytes(8 * length)
			b.ResetTimer()
			runCollectiveTeam(comms, func(rank int, c *par.Comm) {
				src := make([]float64, length)
				dst := make([]float64, length)
				for i := range src {
					src[i] = float64(rank*length + i)
				}
				for i := 0; i < b.N; i++ {
					c.AllReduceVec(dst, src)
				}
			})
		})
	}
}

// BenchmarkAllGather compares the two topologies on the distributed MVM's
// halo exchange: each rank contributes its block of an n-vector and
// receives the whole vector.
func BenchmarkAllGather(b *testing.B) {
	const ranks, n = 8, 8192
	part := par.EvenPartition(n, ranks)
	for _, topo := range []par.Topology{par.Linear, par.Tree} {
		b.Run(topo.String(), func(b *testing.B) {
			comms := par.NewTeamTopology(ranks, topo)
			b.SetBytes(8 * n)
			b.ResetTimer()
			runCollectiveTeam(comms, func(rank int, c *par.Comm) {
				lo, hi := part.Range(rank)
				global := make([]float64, n)
				local := make([]float64, hi-lo)
				for i := range local {
					local[i] = float64(lo + i)
				}
				for i := 0; i < b.N; i++ {
					c.AllGather(global, local, lo)
				}
			})
		})
	}
}

// BenchmarkDistSpMV measures one distributed MVM (halo exchange + local row
// block) under the even row split versus the nnz-balanced partition. The
// circuit matrix's hub rows skew the even split, so the nnz partition should
// close the straggler gap.
func BenchmarkDistSpMV(b *testing.B) {
	a := sparse.CircuitLike(benchSize(), benchSeed)
	u := make([]float64, a.Rows)
	for i := range u {
		u[i] = 1 + float64(i%7)*0.25
	}
	for _, tc := range []struct {
		name string
		part par.Partition
	}{
		{"even", par.EvenPartition(a.Rows, 8)},
		{"nnz", par.NnzPartition(a, 8)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			comms := par.NewTeam(tc.part.Ranks())
			b.ResetTimer()
			runCollectiveTeam(comms, func(rank int, c *par.Comm) {
				lo, hi := tc.part.Range(rank)
				global := make([]float64, a.Rows)
				local := make([]float64, hi-lo)
				copy(local, u[lo:hi])
				y := make([]float64, a.Rows)
				for i := 0; i < b.N; i++ {
					c.AllGather(global, local, lo)
					a.MulVecRange(y, global, lo, hi)
				}
			})
		})
	}
}

// BenchmarkParallelScaling runs the distributed ABFT PCG over growing rank
// counts. On a multicore host the interest is correctness of the
// rank-local checksum/checkpoint machinery at scale rather than raw
// speedup, but the timing trend is reported anyway.
func BenchmarkParallelScaling(b *testing.B) {
	a := sparse.CircuitLike(benchSize(), benchSeed)
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := par.ABFTPCG(a, rhs, ranks, par.Options{Tol: 1e-8, MaxIter: 100000})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// BenchmarkParallelTwoLevel measures the distributed inner-level probe cost
// (one extra scalar all-reduce per iteration).
func BenchmarkParallelTwoLevel(b *testing.B) {
	a := sparse.CircuitLike(benchSize(), benchSeed)
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	for _, tc := range []struct {
		name string
		two  bool
	}{
		{"basic", false},
		{"two-level", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := par.ABFTPCG(a, rhs, 4, par.Options{Tol: 1e-8, MaxIter: 100000, TwoLevel: tc.two}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectionCampaign runs a seeded single-trial accuracy campaign
// and reports its outcome metrics. All three are deterministic at the
// committed seed, so the trajectory comparator gates them exactly even in
// smoke mode: detect-% may not drop, latency-iters may not grow, and
// sdc-rate is Zero-class — any nonzero value fails the gate outright.
func BenchmarkDetectionCampaign(b *testing.B) {
	cfg := accuracy.Config{
		Side:       8,
		Solvers:    []string{"pcg"},
		Models:     []fault.Model{fault.ModelSingle, fault.ModelSign},
		Magnitudes: []fault.Magnitude{fault.MagLarge},
		Trials:     1,
		Seed:       benchSeed,
	}
	for i := 0; i < b.N; i++ {
		cells, err := accuracy.RunSerial(cfg)
		if err != nil {
			b.Fatal(err)
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
		b.ReportMetric(100*rate/float64(len(cells)), "detect-%")
		if latN > 0 {
			b.ReportMetric(latSum/float64(latN), "latency-iters")
		}
		b.ReportMetric(float64(sdc), "sdc-rate")
	}
}

// BenchmarkCheckpoint runs the seeded snapshot-codec sweep for PCG and CR
// and reports each arm's storage and recovery cost. All metrics are
// deterministic at the committed seed, so the trajectory comparator gates
// them exactly even in smoke mode: stored-bytes and extra-iters may not
// grow, and aborted/sdc-rate are Zero-class — a lossy restart that fails
// to recover, or recovers to the wrong answer, fails the gate outright.
func BenchmarkCheckpoint(b *testing.B) {
	cfg := accuracy.Config{
		Side:             8,
		Solvers:          []string{"pcg", "cr"},
		Trials:           2,
		CheckpointBounds: []float64{1e-4, 1e-8},
		Seed:             benchSeed,
	}
	points, err := accuracy.CompareCheckpoint(cfg)
	if err != nil {
		b.Fatal(err)
	}
	full := map[string]accuracy.CheckpointPoint{}
	for _, p := range points {
		if p.Codec == checkpoint.Full {
			full[fmt.Sprintf("%s/%d", p.Solver, p.Strikes)] = p
		}
	}
	for _, p := range points {
		p := p
		label := p.Codec.String()
		if p.RelBound > 0 {
			label = fmt.Sprintf("%s-%.0e", label, p.RelBound)
		}
		ref := full[fmt.Sprintf("%s/%d", p.Solver, p.Strikes)]
		b.Run(fmt.Sprintf("%s/%s/strikes=%d", p.Solver, label, p.Strikes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(float64(p.BytesStored), "stored-bytes")
			b.ReportMetric(float64(p.ExtraIterations(ref)), "extra-iters")
			b.ReportMetric(float64(p.Aborted), "aborted")
			b.ReportMetric(float64(p.SDC), "sdc-rate")
		})
	}
}

// BenchmarkForwardRecovery runs the seeded forward-vs-rollback comparison
// for PCG and CR on both engines and reports the recovery metrics. All of
// them are deterministic at the committed seed, so the trajectory
// comparator gates them exactly even in smoke mode: iters-saved may not
// drop, wasted-iters may not grow, repairs must match bitwise, and
// mismatches is Zero-class — a nonzero value is silent data corruption
// and fails the gate outright.
func BenchmarkForwardRecovery(b *testing.B) {
	cfg := accuracy.Config{
		Side:    8,
		Solvers: []string{"pcg", "cr"},
		Trials:  2,
		Ranks:   2,
		Seed:    benchSeed,
	}
	points, err := accuracy.CompareForward(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range points {
		p := p
		b.Run(p.Engine+"/"+p.Solver+"/forward", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(float64(p.IterationsSaved), "iters")
			b.ReportMetric(float64(p.ForwardRepairs), "repairs")
			b.ReportMetric(float64(p.FwdWasted), "wasted-iters")
			b.ReportMetric(float64(p.Mismatches), "mismatches")
		})
		b.Run(p.Engine+"/"+p.Solver+"/rollback", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(float64(p.BaseWasted), "wasted-iters")
		})
	}
}
