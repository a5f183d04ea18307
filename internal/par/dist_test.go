package par

import (
	"math"
	"testing"

	"newsum/internal/checksum"
	"newsum/internal/core"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

func TestBlockRangeCoversExactly(t *testing.T) {
	for _, n := range []int{1, 7, 16, 100, 101} {
		for _, size := range []int{1, 2, 3, 7, 16} {
			if size > n {
				continue
			}
			covered := 0
			prevHi := 0
			for r := 0; r < size; r++ {
				lo, hi := BlockRange(n, size, r)
				if lo != prevHi {
					t.Fatalf("n=%d size=%d rank=%d: gap/overlap at %d", n, size, r, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("n=%d size=%d: covered %d", n, size, covered)
			}
		}
	}
}

func TestDistMatrixMulVecMatchesSerial(t *testing.T) {
	a := sparse.Laplacian2D(9, 9)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want := make([]float64, a.Rows)
	a.MulVec(want, x)
	const ranks = 4
	for r := 0; r < ranks; r++ {
		dm := Split(a, ranks, r)
		local := make([]float64, dm.LocalRows())
		dm.MulVec(local, x)
		for i, v := range local {
			if math.Abs(v-want[dm.Lo+i]) > 1e-14 {
				t.Fatalf("rank %d row %d: %v vs %v", r, dm.Lo+i, v, want[dm.Lo+i])
			}
		}
	}
}

func TestLocalChecksumsSumToGlobal(t *testing.T) {
	a := sparse.Laplacian2D(7, 7)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 5)
	}
	weights := checksum.Triple
	global := checksum.Checksums(x, weights)
	const ranks = 3
	totals := make([]float64, len(weights))
	for r := 0; r < ranks; r++ {
		lo, hi := BlockRange(a.Rows, ranks, r)
		e := &rankEngine{weights: weights, lo: lo, local: hi - lo}
		v := e.NewVec("x")
		copy(v.Data, x[lo:hi])
		e.Reanchor(v)
		for k := range totals {
			totals[k] += v.S[k]
		}
	}
	for k := range totals {
		if math.Abs(totals[k]-global[k]) > 1e-9*(1+math.Abs(global[k])) {
			t.Fatalf("weight %d: partials sum to %v, global %v", k, totals[k], global[k])
		}
	}
}

func TestVerifyGlobalDetectsCorruption(t *testing.T) {
	const n, ranks = 40, 4
	comms := NewTeam(ranks)
	type out struct {
		clean, dirty bool
	}
	ch := make(chan out, ranks)
	for r := 0; r < ranks; r++ {
		go func(c *Comm) {
			lo, hi := BlockRange(n, ranks, c.Rank())
			e := &rankEngine{c: c, weights: checksum.Single, lo: lo, local: hi - lo, n: n, stats: &core.Stats{}}
			v := e.NewVec("v")
			for i := range v.Data {
				v.Data[i] = float64(lo + i)
			}
			e.Reanchor(v)
			clean := e.Verify(v)
			// Corrupt one element on rank 2 only.
			if c.Rank() == 2 {
				v.Data[0] += 1e4
			}
			dirty := e.Verify(v)
			ch <- out{clean, dirty}
		}(comms[r])
	}
	for i := 0; i < ranks; i++ {
		o := <-ch
		if !o.clean {
			t.Fatalf("clean distributed vector failed verification")
		}
		if o.dirty {
			t.Fatalf("corruption on one rank escaped global verification")
		}
	}
}

func TestAllReduceVec(t *testing.T) {
	const ranks = 3
	comms := NewTeam(ranks)
	ch := make(chan []float64, ranks)
	for r := 0; r < ranks; r++ {
		go func(c *Comm) {
			src := []float64{float64(c.Rank()), 1, 2}
			dst := make([]float64, 3)
			c.AllReduceVec(dst, src)
			// A second reduction immediately after must not corrupt the
			// first result (regression for the double-rendezvous).
			src2 := []float64{1, 1, 1}
			dst2 := make([]float64, 3)
			c.AllReduceVec(dst2, src2)
			out := append(dst, dst2...)
			ch <- out
		}(comms[r])
	}
	for i := 0; i < ranks; i++ {
		got := <-ch
		want := []float64{0 + 1 + 2, 3, 6, 3, 3, 3}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("AllReduceVec[%d]: got %v want %v", j, got[j], want[j])
			}
		}
	}
}

func TestNewTeamPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewTeam(0)
}

// TestGlobalNorm2OutsideTheWindow: squares that underflow or overflow, on
// every rank or on one, still give the norm, the same bits on every rank;
// only an out-of-window sum costs the gather, and a zero vector does not.
func TestGlobalNorm2OutsideTheWindow(t *testing.T) {
	const n = 40
	for _, c := range []struct {
		name    string
		x       func(i int) float64
		gathers int64
	}{
		{"unit", func(i int) float64 { return float64(i + 1) }, 0},
		{"zero", func(int) float64 { return 0 }, 0},
		{"1e-170", func(i int) float64 { return 1e-170 * float64(i+1) }, 1},
		{"1e170", func(i int) float64 { return 1e170 * float64(i+1) }, 1},
		{"1e-170-past-row-30", func(i int) float64 { return 1e-170 * float64(i+1) * float64(i/30) }, 1},
	} {
		want := make([]float64, n)
		for i := range want {
			want[i] = c.x(i)
		}
		exact := vec.Norm2(want)
		for ranks := 1; ranks <= 4; ranks++ {
			comms := NewTeam(ranks)
			got := make(chan [2]float64, ranks)
			for _, cm := range comms {
				go func(cm *Comm) {
					lo, hi := BlockRange(n, ranks, cm.Rank())
					nrm := GlobalNorm2(cm, want[lo:hi])
					got <- [2]float64{nrm, float64(cm.Stats().Gathers)}
				}(cm)
			}
			first := <-got
			for r := 1; r < ranks; r++ {
				if g := <-got; math.Float64bits(g[0]) != math.Float64bits(first[0]) {
					t.Fatalf("%s ranks=%d: ranks disagree: %x and %x", c.name, ranks, g[0], first[0])
				}
			}
			if math.Abs(first[0]-exact) > 1e-14*exact || (exact == 0) != (first[0] == 0) {
				t.Fatalf("%s ranks=%d: GlobalNorm2 = %g, serial %g", c.name, ranks, first[0], exact)
			}
			if int64(first[1]) != c.gathers {
				t.Fatalf("%s ranks=%d: %v gathers, want %d", c.name, ranks, first[1], c.gathers)
			}
		}
	}
}
