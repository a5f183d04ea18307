package main

import (
	"strings"
	"testing"

	"newsum/internal/fault"
)

func TestInjectListParsing(t *testing.T) {
	var l injectList
	if err := l.Set("5:mvm:arith"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("12:pco:cache:3"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("0:vlo:mem"); err != nil {
		t.Fatal(err)
	}
	if len(l) != 3 {
		t.Fatalf("parsed %d events", len(l))
	}
	if l[0].Iteration != 5 || l[0].Site != fault.SiteMVM || l[0].Kind != fault.Arithmetic {
		t.Fatalf("first event: %+v", l[0])
	}
	if l[1].Count != 3 || l[1].Site != fault.SitePCO || l[1].Kind != fault.CacheRegister {
		t.Fatalf("second event: %+v", l[1])
	}
	if l[2].Site != fault.SiteVLO || l[2].Kind != fault.Memory {
		t.Fatalf("third event: %+v", l[2])
	}
	if l.String() == "" {
		t.Fatalf("String empty")
	}
}

func TestInjectListRejectsBadSpecs(t *testing.T) {
	for _, bad := range []string{
		"", "5", "5:mvm", "x:mvm:arith", "5:alu:arith", "5:mvm:flood", "5:mvm:arith:x",
	} {
		var l injectList
		if err := l.Set(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestRanksRejectsUnmodelledInjects: the distributed engine strikes one
// element of an MVM output with an arithmetic error, so under -ranks every
// other -inject is an error, not a silently different strike.
func TestRanksRejectsUnmodelledInjects(t *testing.T) {
	a, err := buildMatrix("laplace2d", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"5:mvm:arith", true}, {"5:mvm:arith-bit", true}, {"5:mvm:arith:1", true},
		{"5:mvm:mem", false}, {"5:mvm:cache", false}, {"5:mvm:mem-bit", false}, {"5:mvm:cache-bit", false},
		{"5:mvm:arith:3", false}, {"5:mvm:arith-bit:2", false}, {"5:mvm:cache:3", false}, {"5:pco:arith", false},
	} {
		var l injectList
		if err := l.Set(tc.spec); err != nil {
			t.Fatal(err)
		}
		err := runParallel(a, "pcg", "basic", "tree", 1e-8, 0, 1, 10, 2, l)
		rejected := err != nil && strings.Contains(err.Error(), "-ranks supports -inject")
		if tc.ok && err != nil || !tc.ok && !rejected {
			t.Errorf("-ranks 2 -inject %s: error %v, want accepted = %v", tc.spec, err, tc.ok)
		}
	}
}

func TestBuildMatrixKinds(t *testing.T) {
	for _, kind := range []string{"circuit", "laplace2d", "laplace3d", "convdiff", "diagdom"} {
		a, err := buildMatrix(kind, 100, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if _, err := buildMatrix("/nonexistent/file.mtx", 10, 1); err == nil {
		t.Fatalf("missing file accepted")
	}
}

func TestBuildPrecondKinds(t *testing.T) {
	a, err := buildMatrix("laplace2d", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"none", "jacobi", "ilu0", "ic0", "bjacobi", "ssor"} {
		if _, err := buildPrecond(kind, a, 4); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if _, err := buildPrecond("amg", a, 4); err == nil {
		t.Fatalf("unknown preconditioner accepted")
	}
}
