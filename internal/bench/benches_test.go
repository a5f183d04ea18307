package bench

import (
	"math"
	"strings"
	"testing"

	"newsum/internal/bench/trajectory"
	"newsum/internal/model"
	"newsum/internal/par"
	"newsum/internal/sparse"
)

func TestAppendBenchDropsNonFinite(t *testing.T) {
	var bs []trajectory.Bench
	bs = appendBench(bs, "nan", math.NaN(), "overhead-%")
	bs = appendBench(bs, "inf", math.Inf(1), "overhead-%")
	bs = appendBench(bs, "neginf", math.Inf(-1), "overhead-%")
	bs = appendBench(bs, "ok", 1.5, "overhead-%")
	if len(bs) != 1 || bs[0].Name != "ok" {
		t.Fatalf("non-finite values not dropped: %+v", bs)
	}
}

// TestModelBenches: the pure-model emitters yield finite metrics under
// the exact units the comparator gates with zero tolerance.
func TestModelBenches(t *testing.T) {
	t4 := Table4Benches(10, 50, 10)
	if len(t4) == 0 {
		t.Fatal("Table4Benches empty")
	}
	for _, b := range t4 {
		if b.Unit != "model-ms" {
			t.Fatalf("table4 unit %q", b.Unit)
		}
	}
	t5 := Table5Benches(model.Stampede(), 2000, 1000)
	if len(t5) != 3*4 {
		t.Fatalf("Table5Benches: %d metrics, want 12", len(t5))
	}
	f5 := Figure5Benches(model.Stampede(), 2000)
	if len(f5) != 6 {
		t.Fatalf("Figure5Benches: %d metrics, want 6", len(f5))
	}
}

func TestTable3Benches(t *testing.T) {
	w, err := LaplacePCG(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Table3(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	bs := Table3Benches(r)
	if len(bs) != 2 {
		t.Fatalf("Table3Benches: %+v", bs)
	}
	// The paper's Table 3 protects 13 of the 18 cells; the seed pins it.
	if bs[0].Name != "table3/protected-cells" || bs[0].Unit != "cells" || bs[0].Value < 1 {
		t.Fatalf("protected-cells metric: %+v", bs[0])
	}
	if math.Float64bits(bs[1].Value) != math.Float64bits(1) {
		t.Fatalf("jacobi demo not protected: %+v", bs[1])
	}
}

func TestPointBenches(t *testing.T) {
	kb := KernelBenches([]KernelPoint{
		{Kernel: "spmv", N: 100, NNZ: 500, Workers: 1, Reps: 4, Seconds: 2e-3, Bitwise: true},
		{Kernel: "spmv", N: 100, NNZ: 500, Workers: 4, Reps: 4, Seconds: 1e-3, Speedup: 2, Bitwise: true},
	})
	units := map[string]int{}
	for _, b := range kb {
		units[b.Unit]++
	}
	if units["ns/op"] != 2 || units["x"] != 1 || units["bitwise"] != 2 {
		t.Fatalf("KernelBenches units: %+v", kb)
	}

	sb := ServeBenches([]ServePoint{{Workers: 4, QueueDepth: 16, Cache: true,
		Jobs: 100, Seconds: 2, Throughput: 50, P50Millis: 3, P99Millis: 9,
		CacheHits: 10, Retries: 1, Detections: 2}})
	if len(sb) != 6 || sb[0].Unit != "jobs/s" || !strings.Contains(sb[0].Name, "cache=on") {
		t.Fatalf("ServeBenches: %+v", sb)
	}

	pb := ParallelBenches([]ParallelPoint{{Solver: "pcg", Ranks: 4, Topology: par.Linear,
		Seconds: 0.5, Iterations: 163, Converged: true}})
	if len(pb) != 4 || pb[0].Unit != "ns/op" || pb[1].Unit != "iters" {
		t.Fatalf("ParallelBenches: %+v", pb)
	}
}

// TestDeterministicBenchesBitwise is the harness determinism gate
// (satellite of the trajectory tentpole): two back-to-back runs at the
// committed seed must produce bitwise-identical custom metrics —
// model-projected overhead %, optimal intervals, wasted iterations, and
// the detection grid. Any drift is a harness bug, not noise.
func TestDeterministicBenchesBitwise(t *testing.T) {
	const seed = 20160531
	first, err := DeterministicBenches(seed)
	if err != nil {
		t.Fatal(err)
	}
	second, err := DeterministicBenches(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("DeterministicBenches produced no metrics")
	}
	if len(first) != len(second) {
		t.Fatalf("metric count drifted between runs: %d vs %d", len(first), len(second))
	}
	seenUnits := map[string]bool{}
	for i := range first {
		a, b := first[i], second[i]
		if a.Name != b.Name || a.Unit != b.Unit {
			t.Fatalf("metric %d identity drifted: %+v vs %+v", i, a, b)
		}
		if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
			t.Errorf("%s (%s) not bitwise-identical across runs: %x vs %x",
				a.Name, a.Unit, math.Float64bits(a.Value), math.Float64bits(b.Value))
		}
		seenUnits[a.Unit] = true
	}
	// The deterministic subset must exercise the custom units the
	// comparator gates hardest: projections, intervals, wasted iterations,
	// detection rate/latency, SDC rate.
	for _, u := range []string{"model-%", "interval", "wasted-iters", "detect-%", "sdc-rate"} {
		if !seenUnits[u] {
			t.Errorf("deterministic harness missing unit %q (got %v)", u, seenUnits)
		}
	}
	// And the comparator must agree they are identical — no failures when a
	// run is diffed against itself.
	rep := trajectory.Compare(first, second, trajectory.DefaultRules(), false)
	if rep.Failed() {
		t.Fatalf("self-comparison failed: %+v", rep.Failures())
	}
}

// TestKernelsSweepCoversTriSolve: the sweep carries the two triangular-solve
// rows at every size, each checked against the reference loops, so the
// determinism gate of -exp kernels covers the schedule; the two SpMV rows
// are checked against the row loop on a plan-less view of the operator, so
// it covers the row plan; and dot, norm2 and the VLOs are checked against
// Go loops on the same arrays, so it covers the lockstep and packed leaves.
func TestKernelsSweepCoversTriSolve(t *testing.T) {
	a := sparse.Laplacian3D(6, 6, 6) // 216 rows: one planned window and a ragged end
	v := make([]float64, a.Rows)
	for i := range v {
		v[i] = 1 + float64(i%13)/13
	}
	referenced := map[string]bool{"spmv": true, "spmv+dot": true, "dot": true, "norm2": true, "axpy": true, "xpby": true, "axpby": true}
	for _, kc := range kernelCases(a, v, make([]float64, a.Rows), v) {
		if referenced[kc.name] != (kc.ref != nil) {
			t.Errorf("%s: reference present = %v", kc.name, kc.ref != nil)
		} else if kc.ref != nil && kc.out == nil && kc.ref(nil) != kc.run(nil) {
			t.Errorf("%s: kernel differs from its reference loop", kc.name)
		}
		delete(referenced, kc.name)
	}
	if len(referenced) != 0 {
		t.Errorf("sweep lost referenced kernels: %v", referenced)
	}
	pts, err := KernelsSweep([]int{3, 6}, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKernelsBitwise(pts); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, p := range pts {
		if strings.HasPrefix(p.Kernel, "trisolve") {
			if p.Workers != 1 || p.NNZ == 0 || p.Reps != 2 {
				t.Errorf("malformed point %+v", p)
			}
			seen[p.Kernel]++
		}
	}
	if seen["trisolve"] != 2 || seen["trisolve+dotabs"] != 2 {
		t.Fatalf("triangular-solve rows: %v, want two of each", seen)
	}
	pts[len(pts)-1].Bitwise = false
	if err := VerifyKernelsBitwise(pts); err == nil || !strings.Contains(err.Error(), "trisolve+dotabs") {
		t.Fatalf("diverged trisolve point not reported: %v", err)
	}
}
