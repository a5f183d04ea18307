package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// drawn is the first n jobs one client of the mix would send.
func drawn(mix *traffic, client, n int) []string {
	rng := rand.New(rand.NewSource(mix.seed*1009 + int64(client)))
	var jobs []string
	for i := 0; i < n; i++ {
		req, arm := mix.draw(rng)
		jobs = append(jobs, fmt.Sprintf("%s:%s/%d/%d/chaos=%d/%d", armNames[arm], req.Matrix.Kind, req.Matrix.N, req.Matrix.Seed, req.ChaosFaults, req.Seed))
	}
	return jobs
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(seededRHS(500, 3), seededRHS(500, 3)) {
		t.Error("the same seed gave two right-hand sides")
	}
	if reflect.DeepEqual(seededRHS(500, 3), seededRHS(500, 4)) {
		t.Error("two seeds gave the same right-hand side")
	}
	a, b, c := genCircuit(2000, 3), genCircuit(2000, 3), genCircuit(2000, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two circuit operators")
	}
	if reflect.DeepEqual(a.Val, c.Val) {
		t.Error("two seeds gave the same circuit operator")
	}
	for client := 0; client < 2; client++ {
		if !reflect.DeepEqual(drawn(mixedTraffic(3), client, 200), drawn(mixedTraffic(3), client, 200)) {
			t.Errorf("client %d: the same seed gave two job sequences", client)
		}
	}
	if reflect.DeepEqual(drawn(mixedTraffic(3), 0, 200), drawn(mixedTraffic(3), 1, 200)) {
		t.Error("two clients of one run send the same jobs")
	}
}

func TestDifferentSeedDifferentColdOrder(t *testing.T) {
	cold := func(seed int64) (specs []string) {
		for _, j := range drawn(mixedTraffic(seed), 0, 400) {
			if j[:len("main:")] == "main:" {
				specs = append(specs, j)
			}
		}
		return specs
	}
	a, b := cold(3), cold(4)
	if len(a) < 40 || len(b) < 40 {
		t.Fatalf("%d and %d cold jobs in 400 draws, want about 80", len(a), len(b))
	}
	if reflect.DeepEqual(a, b) {
		t.Error("two seeds gave the same cold-spec order")
	}
	// A cold operator belongs to one seed: two seeds share no cold spec.
	seen := map[string]bool{}
	for _, j := range a {
		seen[j] = true
	}
	for _, j := range b {
		if seen[j] {
			t.Fatalf("cold job %s appears under both seeds", j)
		}
	}
}

func TestMixShares(t *testing.T) {
	var n [numArms]int
	rng := rand.New(rand.NewSource(1))
	mix := mixedTraffic(1)
	for i := 0; i < 20000; i++ {
		_, arm := mix.draw(rng)
		n[arm]++
	}
	for arm, want := range [numArms]float64{0.7, 0.2, 0.1} {
		if got := float64(n[arm]) / 20000; got < want-0.02 || got > want+0.02 {
			t.Errorf("share of %s jobs = %.3f, want %.1f", armNames[arm], got, want)
		}
	}
	// Traffic without cold or chaos jobs sends only base jobs.
	tiny := tinyTraffic(1)
	for i := 0; i < 100; i++ {
		if req, arm := tiny.draw(rng); arm != armBase || req.ChaosFaults != 0 {
			t.Fatalf("tiny traffic drew a %s job with %d chaos faults", armNames[arm], req.ChaosFaults)
		}
	}
}

func TestPairedScheduleRotates(t *testing.T) {
	ti := &trafficInstance{paired: true, sliceDur: 100 * time.Millisecond}
	var order []int
	for s := 0; s < 9; s++ {
		round, arm := ti.schedule(time.Duration(s)*ti.sliceDur + time.Millisecond)
		if round != s/3 {
			t.Errorf("slice %d is in round %d, want %d", s, round, s/3)
		}
		order = append(order, arm)
	}
	if want := []int{0, 1, 2, 1, 2, 0, 2, 0, 1}; !reflect.DeepEqual(order, want) {
		t.Errorf("arm order = %v, want %v", order, want)
	}
	secs := ti.armSeconds(350 * time.Millisecond) // slices 0, 1, 2 and half of slice 3 (arm 1)
	if !near(secs[0], 0.1) || !near(secs[1], 0.15) || !near(secs[2], 0.1) {
		t.Errorf("armSeconds = %v, want [0.1 0.15 0.1]", secs)
	}
	mixed := &trafficInstance{sliceDur: time.Second}
	if round, _ := mixed.schedule(2500 * time.Millisecond); round != 2 {
		t.Errorf("mixed traffic at 2.5 s is in round %d, want 2", round)
	}
}

func TestOwnResidual(t *testing.T) {
	a := genLaplace2D(6)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, x)
	if res := ownResidual(a, b, x); res > 1e-15 {
		t.Errorf("residual of the exact solution = %g", res)
	}
	x[7] += 1
	if res := ownResidual(a, b, x); res < 1e-3 {
		t.Errorf("residual of a corrupted solution = %g, want a large one", res)
	}
	if res := ownResidual(a, b, x[:3]); res < 1 {
		t.Errorf("residual of a short solution = %g, want +Inf", res)
	}
}
