package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"newsum/internal/fault"
	"newsum/internal/solver"
)

// entryPoint is one exported method × scheme solve with its options preset.
type entryPoint struct {
	name string
	run  func(o Options) (Result, error)
}

func bitsEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestFaultFreeBitwiseMatchesReference pins the separated-encoding contract
// of Fig. 2(d) at full strength: protection never touches the numerical
// operations, so every scheme of every method must return, fault-free, the
// bit pattern the independent reference in internal/solver returns — same
// iterate, same residual, same iteration count. A tolerance would let a
// reordered reduction or a fused update slip through.
func TestFaultFreeBitwiseMatchesReference(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	ua, um, ub := unsymSystem(t, 20)
	sopts := solver.Options{Tol: 1e-10}

	eagerTriple := func(o Options) Options { o.EagerTriple = true; return o }
	forward := func(o Options) Options { o.ForwardRecovery = true; return o }

	refPCG, err := solver.PCG(a, m, b, sopts)
	if err != nil {
		t.Fatal(err)
	}
	refBi, err := solver.PBiCGSTAB(ua, um, ub, sopts)
	if err != nil {
		t.Fatal(err)
	}
	refCR, err := solver.CR(a, b, sopts)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		ref  solver.Result
		run  func(o Options) (Result, error)
	}{
		{"pcg/unprotected", refPCG, func(o Options) (Result, error) { return UnprotectedPCG(a, m, b, o) }},
		{"pcg/basic", refPCG, func(o Options) (Result, error) { return BasicPCG(a, m, b, o) }},
		{"pcg/twolevel-lazy", refPCG, func(o Options) (Result, error) { return TwoLevelPCG(a, m, b, o) }},
		{"pcg/twolevel-eager-triple", refPCG, func(o Options) (Result, error) { return TwoLevelPCG(a, m, b, eagerTriple(o)) }},
		{"pcg/basic-forward", refPCG, func(o Options) (Result, error) { return BasicPCG(a, m, b, forward(o)) }},
		{"pcg/onlinemv", refPCG, func(o Options) (Result, error) { return OnlineMVPCG(a, m, b, o) }},
		{"pcg/ortho", refPCG, func(o Options) (Result, error) { return OrthoPCG(a, m, b, o) }},
		{"pcg/offline", refPCG, func(o Options) (Result, error) { return OfflineResidualPCG(a, m, b, o) }},
		{"bicgstab/unprotected", refBi, func(o Options) (Result, error) { return UnprotectedPBiCGSTAB(ua, um, ub, o) }},
		{"bicgstab/basic", refBi, func(o Options) (Result, error) { return BasicPBiCGSTAB(ua, um, ub, o) }},
		{"bicgstab/twolevel-lazy", refBi, func(o Options) (Result, error) { return TwoLevelPBiCGSTAB(ua, um, ub, o) }},
		{"bicgstab/twolevel-eager-triple", refBi, func(o Options) (Result, error) { return TwoLevelPBiCGSTAB(ua, um, ub, eagerTriple(o)) }},
		{"bicgstab/basic-forward", refBi, func(o Options) (Result, error) { return BasicPBiCGSTAB(ua, um, ub, forward(o)) }},
		{"bicgstab/onlinemv", refBi, func(o Options) (Result, error) { return OnlineMVPBiCGSTAB(ua, um, ub, o) }},
		{"bicgstab/offline", refBi, func(o Options) (Result, error) { return OfflineResidualPBiCGSTAB(ua, um, ub, o) }},
		{"cr/basic", refCR, func(o Options) (Result, error) { return BasicCR(a, b, o) }},
		{"cr/basic-forward", refCR, func(o Options) (Result, error) { return BasicCR(a, b, forward(o)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(Options{Options: sopts})
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if res.Iterations != tc.ref.Iterations {
				t.Errorf("iterations %d, reference %d", res.Iterations, tc.ref.Iterations)
			}
			if math.Float64bits(res.Residual) != math.Float64bits(tc.ref.Residual) {
				t.Errorf("residual %x, reference %x", math.Float64bits(res.Residual), math.Float64bits(tc.ref.Residual))
			}
			if !bitsEqual(res.X, tc.ref.X) {
				t.Errorf("iterate differs from the reference in at least one bit")
			}
		})
	}
}

// hashX is FNV-1a over the IEEE-754 bit patterns of x.
func hashX(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
	}
	return h.Sum64()
}

// TestControlArmsUnderSingleFaults freezes what the four arms without
// new-sum checksums — unprotected, online MV, orthogonality, offline
// residual — do under one scheduled fault: the full Stats, the iteration
// count and a hash of the returned iterate's bits, per (site, kind). The
// schedules are restricted to the events every implementation of these arms
// has always consumed (MVM and PCO input memory/cache and output arithmetic,
// and the first VLO output of an iteration), so the file must hold
// byte-for-byte across a restructuring of the solver loops. Regenerate
// intentionally with -update.
func TestControlArmsUnderSingleFaults(t *testing.T) {
	a, m, b, _ := testSystem(t, 144)
	ua, um, ub := unsymSystem(t, 12)

	arms := []entryPoint{
		{"pcg/unprotected", func(o Options) (Result, error) { return UnprotectedPCG(a, m, b, o) }},
		{"pcg/onlinemv", func(o Options) (Result, error) { return OnlineMVPCG(a, m, b, o) }},
		{"pcg/ortho", func(o Options) (Result, error) { return OrthoPCG(a, m, b, o) }},
		{"pcg/offline", func(o Options) (Result, error) { return OfflineResidualPCG(a, m, b, o) }},
		{"bicgstab/unprotected", func(o Options) (Result, error) { return UnprotectedPBiCGSTAB(ua, um, ub, o) }},
		{"bicgstab/onlinemv", func(o Options) (Result, error) { return OnlineMVPBiCGSTAB(ua, um, ub, o) }},
		{"bicgstab/offline", func(o Options) (Result, error) { return OfflineResidualPBiCGSTAB(ua, um, ub, o) }},
	}
	schedules := []struct {
		name string
		ev   fault.Event
	}{
		{"mvm-arith", fault.Event{Iteration: 3, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 17, Magnitude: 1e4}},
		{"mvm-memory", fault.Event{Iteration: 3, Site: fault.SiteMVM, Kind: fault.Memory, Index: 17, Magnitude: 1e4}},
		{"mvm-cache", fault.Event{Iteration: 3, Site: fault.SiteMVM, Kind: fault.CacheRegister, Index: 17, Magnitude: 1e4}},
		{"pco-arith", fault.Event{Iteration: 3, Site: fault.SitePCO, Kind: fault.Arithmetic, Index: 17, Magnitude: 1e4}},
		{"pco-memory", fault.Event{Iteration: 3, Site: fault.SitePCO, Kind: fault.Memory, Index: 17, Magnitude: 1e4}},
		{"pco-cache", fault.Event{Iteration: 3, Site: fault.SitePCO, Kind: fault.CacheRegister, Index: 17, Magnitude: 1e4}},
		{"vlo-arith", fault.Event{Iteration: 3, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: 17, Magnitude: 1e4}},
	}

	var sb strings.Builder
	for _, arm := range arms {
		for _, sc := range schedules {
			res, err := arm.run(Options{
				Options:            solver.Options{Tol: 1e-10},
				DetectInterval:     2,
				CheckpointInterval: 4,
				MaxRollbacks:       6,
				Injector:           fault.NewInjector([]fault.Event{sc.ev}, 7),
			})
			fmt.Fprintf(&sb, "%s %s failed=%v iterations=%d x=%016x stats=%+v\n",
				arm.name, sc.name, err != nil, res.Iterations, hashX(res.X), res.Stats)
		}
	}
	compareGolden(t, filepath.Join("testdata", "control_arms.golden"), sb.String())
}
