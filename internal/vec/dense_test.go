package vec

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// The dense half of an iteration — Dot, Norm2 and the three VLOs — held
// against what they are defined to be, bit for bit: DotBlock under the
// closure tree, √(u·u) inside the norm's window and dnrm2's loop outside
// it, axpyLoop / axpbyLoop / xpbyLoop end to end.

// denseSizes are the quad boundaries (4 blocks = 512), the 64-leaf subtree
// boundary (8 192 and a quad past it), ragged last blocks and the lengths
// the benchmark's operators have.
var denseSizes = []int{0, 1, 127, 128, 129, 511, 512, 513, 640, 8191, 8192, 8193, 8320, 10000, 22500, 100003}

// refDot is Dot as the package computed it before DotBlocks: one DotBlock
// call per leaf under the closure tree.
func refDot(u, v []float64) float64 {
	return pairwise(0, Blocks(len(u)), func(b int) float64 { return DotBlock(u, v, b) })
}

// offsetVec returns a length-n vector that starts off elements into its
// allocation: a []float64 is only 8-byte aligned, and element 1 sits 8
// bytes off whatever alignment element 0 has.
func offsetVec(rng *rand.Rand, n, off int, fill func(*rand.Rand, []float64)) []float64 {
	u := make([]float64, n+off)[off:]
	fill(rng, u)
	return u
}

// TestDotIsThePairwiseTreeOfDotBlock: lockstep over blocks and a stack
// scratch per subtree change how the leaves are filled, never a leaf or
// the tree.
func TestDotIsThePairwiseTreeOfDotBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, p := range leafPatterns {
		for _, n := range denseSizes {
			for off := 0; off < 4; off++ {
				u := offsetVec(rng, n, off, p.fill)
				v := offsetVec(rng, n, (off+1)%3, leafPatterns[0].fill)
				if got, want := Dot(u, v), refDot(u, v); !sameLeaf(got, want) {
					t.Fatalf("%s n=%d off=%d: Dot = %x, pairwise(DotBlock) %x", p.name, n, off, got, want)
				}
			}
		}
	}
}

// TestDotBlocksFillsDotBlockLeaves: any block range, starting anywhere —
// kernel.Pool hands each worker one.
func TestDotBlocksFillsDotBlockLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{0, 100, 640, 1500, 8320} {
		u, v := mixedVec(rng, n), mixedVec(rng, n)
		nb := Blocks(n)
		for lo := 0; lo <= nb; lo++ {
			for hi := lo; hi <= nb; hi++ {
				part := make([]float64, hi-lo)
				DotBlocks(part, u, v, lo)
				for k, got := range part {
					if want := DotBlock(u, v, lo+k); !sameBits(got, want) {
						t.Fatalf("n=%d blocks [%d,%d): leaf %d = %x, DotBlock %x", n, lo, hi, lo+k, got, want)
					}
				}
			}
			if n > 1500 {
				lo += 6
			}
		}
	}
}

// norm2Patterns are leafPatterns plus what the norm branches on: u·u on
// either side of the window, and what dnrm2's loop branches on outside it —
// where the running scale grows, zeros ahead of the first nonzero, spreads
// wide enough that the rescale underflows.
var norm2Patterns = append(leafPatterns[:len(leafPatterns):len(leafPatterns)], []struct {
	name string
	fill func(rng *rand.Rand, x []float64)
}{
	{"growing", func(rng *rand.Rand, x []float64) {
		for i := range x {
			x[i] = float64(i+1) * (1 - 2*float64(i%2))
		}
	}},
	{"shrinking", func(rng *rand.Rand, x []float64) {
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
	}},
	{"grow-in-odd-lane", func(rng *rand.Rand, x []float64) {
		copy(x, mixedVec(rng, len(x)))
		for i := 1; i < len(x); i += 2 * (1 + rng.Intn(40)) {
			x[i] = math.Ldexp(1, 30+i%50)
		}
	}},
	{"leading-zeros", func(rng *rand.Rand, x []float64) {
		copy(x, mixedVec(rng, len(x)))
		for i := 0; i < len(x) && i < 1+rng.Intn(300); i++ {
			x[i] = math.Copysign(0, float64(1-2*(i%2)))
		}
	}},
	{"spread-600-decades", func(rng *rand.Rand, x []float64) {
		for i := range x {
			x[i] = math.Pow(10, float64(rng.Intn(601)-300)) * (rng.Float64() - 0.5)
		}
	}},
	{"inf-then-finite", func(rng *rand.Rand, x []float64) {
		copy(x, mixedVec(rng, len(x)))
		if len(x) > 0 {
			x[rng.Intn(len(x))] = math.Inf(1 - 2*rng.Intn(2))
		}
	}},
	{"rawbits", func(rng *rand.Rand, x []float64) {
		for i := range x {
			x[i] = math.Float64frombits(rng.Uint64())
		}
	}},
}...)

// wantNorm2 is the norm's contract written out: √(u·u) when the dot is
// finite and at least 2^-900, dnrm2's loop over u otherwise.
func wantNorm2(u []float64) float64 {
	if uu := Dot(u, u); uu >= 0x1p-900 && !math.IsInf(uu, 0) && !math.IsNaN(uu) {
		return math.Sqrt(uu)
	}
	scale, ssq := ScaledNorm2(u)
	return scale * math.Sqrt(ssq)
}

// checkNorm2 holds Norm2 to its contract, bit for bit.
func checkNorm2(t *testing.T, u []float64) {
	t.Helper()
	if got, want := Norm2(u), wantNorm2(u); !sameLeaf(got, want) {
		t.Fatalf("n=%d: Norm2 = %x, contract %x (u·u = %x)", len(u), got, want, Dot(u, u))
	}
}

// TestNorm2LeafIsTheLoop: Norm2's leaves are the dot's left-to-right
// chains under √ inside the window and dnrm2's loop outside it — every
// pattern, at every size and both alignments, lands on the side of the
// window its u·u says.
func TestNorm2LeafIsTheLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, p := range norm2Patterns {
		t.Run(p.name, func(t *testing.T) {
			for _, n := range denseSizes {
				for off := 0; off < 2; off++ {
					checkNorm2(t, offsetVec(rng, n, off, p.fill))
				}
			}
		})
	}
}

// TestNorm2LeafGrowthInEveryLanePair: one element larger than everything
// before it, at every position of a block, over zeros and over a nonzero
// floor. A peak of 1e300 or Inf puts u·u past the window, so dnrm2's loop
// grows its scale there; a NaN peak takes the loop too.
func TestNorm2LeafGrowthInEveryLanePair(t *testing.T) {
	for _, floor := range []float64{0, 1e-3, math.SmallestNonzeroFloat64} {
		for pos := 0; pos < Block; pos++ {
			for _, peak := range []float64{3, 1e300, math.Inf(1), math.NaN()} {
				u := make([]float64, Block)
				Fill(u, floor)
				u[pos] = peak
				checkNorm2(t, u)
				u[(pos+1)%Block] = -peak
				checkNorm2(t, u)
			}
		}
	}
}

// TestNorm2WindowEdges: a one-element u·u at the floor and one ulp under
// it, at the largest finite square and past it; each side of each edge is
// the branch the contract names, and the right norm.
func TestNorm2WindowEdges(t *testing.T) {
	below := math.Nextafter(0x1p-450, 0)
	big := math.Sqrt(math.MaxFloat64)
	for _, c := range []struct {
		x      float64
		inside bool
	}{
		{0x1p-450, true}, {below, false},
		{big, true}, {math.Nextafter(big, math.Inf(1)), false},
	} {
		u := []float64{c.x}
		if in := InNormWindow(Dot(u, u)); in != c.inside {
			t.Fatalf("x=%x: u·u = %x in the window %v, want %v", c.x, Dot(u, u), in, c.inside)
		}
		checkNorm2(t, u)
		if got := Norm2(u); got != c.x {
			t.Fatalf("x=%x: Norm2 = %x", c.x, got)
		}
	}
	for _, ss := range []float64{0, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64} {
		if InNormWindow(ss) {
			t.Fatalf("%x is in the window", ss)
		}
	}
}

// bigNorm2 is ‖u‖ from the exact sum of squares, rounded once.
func bigNorm2(u []float64) float64 {
	const prec = 4400 // the squares of doubles span 2^-2148 … 2^2048
	sum := new(big.Float).SetPrec(prec)
	for _, x := range u {
		sq := new(big.Float).SetPrec(prec).SetFloat64(x)
		sum.Add(sum, sq.Mul(sq, sq))
	}
	f, _ := new(big.Float).SetPrec(64).Sqrt(sum).Float64()
	return f
}

// TestNorm2AgainstBig: against the exactly rounded norm, at the window's
// edge, on subnormals, on 1e±300 elements, on 600-decade spreads and on
// signed zeros, both branches stay within a few ulps; a NaN makes the norm
// NaN and a lone ±Inf makes it +Inf. Inside the window the error is the
// dot's, at most 4 ulps here at every n (a leaf's 128-term chain is the
// longest). Outside it dnrm2's loop rounds once or twice per element, with
// errors of either sign, so its error grows like √n: 2 + √n/2 ulps.
func TestNorm2AgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	scaled := func(lo, hi int) func([]float64) {
		return func(x []float64) {
			for i := range x {
				x[i] = math.Ldexp(rng.Float64()-0.5, lo+rng.Intn(hi-lo+1))
			}
		}
	}
	for _, c := range []struct {
		name string
		fill func([]float64)
	}{
		{"window-edge", scaled(-452, -448)},
		{"under-the-floor", scaled(-470, -455)},
		{"subnormal", scaled(-1073, -1023)},
		{"1e-300", scaled(-998, -996)},
		{"1e+300", scaled(995, 997)},
		{"spread-600-decades", scaled(-997, 996)},
		{"unit", scaled(-2, 2)},
		{"signed-zeros-and-units", func(x []float64) {
			for i := range x {
				x[i] = math.Copysign(float64(i%3), float64(1-2*(i%2)))
			}
		}},
	} {
		for _, n := range []int{1, 2, 7, 128, 129, 1000} {
			u := make([]float64, n)
			for rep := 0; rep < 20; rep++ {
				c.fill(u)
				got, want := Norm2(u), bigNorm2(u)
				maxUlps := 4.0
				if !InNormWindow(Dot(u, u)) {
					maxUlps = 2 + math.Sqrt(float64(n))/2
				}
				if ulps := math.Abs(got-want) / ulp(want); !(ulps <= maxUlps) {
					t.Fatalf("%s n=%d: Norm2 = %g, exact %g: %.1f ulps (u·u = %g)", c.name, n, got, want, ulps, Dot(u, u))
				}
			}
		}
	}
	zeros := []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1)}
	if got := Norm2(zeros); math.Float64bits(got) != 0 {
		t.Fatalf("Norm2(±0) = %x, want +0", got)
	}
	for _, special := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, n := range []int{1, 3, 300} {
			u := mixedVec(rng, n)
			u[rng.Intn(n)] = special
			want := math.Inf(1)
			if math.IsNaN(special) {
				want = special
			}
			if got := Norm2(u); !sameLeaf(got, want) {
				t.Fatalf("n=%d with %g: Norm2 = %g, want %g", n, special, got, want)
			}
		}
	}
}

// ulp is the spacing of the doubles at |x|, the smallest subnormal at 0.
func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// vloCase is one (dst, x, y) arrangement of the VLO tests: distinct
// slices, or dst the very slice x or y is.
var vloAliases = []string{"distinct", "dst=x", "dst=y"}

// checkVLOs runs Axpy, Axpby and Xpby against their loops on copies of the
// same operands, with dst distinct from and identical to each operand.
func checkVLOs(t *testing.T, x, y []float64, alpha, beta float64) {
	t.Helper()
	n := len(x)
	same := func(name, alias string, got, want []float64) {
		t.Helper()
		for i := range want {
			if !sameLeaf(got[i], want[i]) {
				t.Fatalf("%s n=%d %s alpha=%x beta=%x: element %d (n mod 4 = %d) = %x, loop %x",
					name, n, alias, alpha, beta, i, n%4, got[i], want[i])
			}
		}
	}
	// operands returns fresh copies arranged per the alias: the packed call's
	// (dst, x, y) and the loop's.
	operands := func(alias string) (dst, xx, yy []float64) {
		xx, yy = append([]float64(nil), x...), append([]float64(nil), y...)
		switch alias {
		case "dst=x":
			return xx, xx, yy
		case "dst=y":
			return yy, xx, yy
		}
		return make([]float64, n), xx, yy
	}
	for _, alias := range vloAliases {
		gd, gx, gy := operands(alias)
		wd, wx, wy := operands(alias)
		Axpby(gd, alpha, gx, beta, gy)
		axpbyLoop(wd, alpha, wx, beta, wy)
		same("Axpby", alias, gd, wd)

		gd, gx, gy = operands(alias)
		wd, wx, wy = operands(alias)
		Xpby(gd, gx, beta, gy)
		xpbyLoop(wd, wx, beta, wy)
		same("Xpby", alias, gd, wd)
	}
	gy, wy := append([]float64(nil), y...), append([]float64(nil), y...)
	Axpy(gy, alpha, x)
	axpyLoop(wy, alpha, x)
	same("Axpy", "y+=", gy, wy)
	gy = append(gy[:0], y...)
	wy = append(wy[:0], y...)
	Axpy(gy, alpha, gy) // y := y + alpha·y
	axpyLoop(wy, alpha, wy)
	same("Axpy", "x=y", gy, wy)
}

// vloScalars include the ones a shared α·x + β·y body must be exact for
// (±1, ±0) and the ones that overflow, underflow and poison.
var vloScalars = []float64{1.7, -0.3, 1, -1, 0, math.Copysign(0, -1), 1e-9, 1e300, 5e-324, math.Inf(1), math.NaN()}

// TestVLOsAreTheLoops: the packed prefix and the tail loop agree with the
// loop alone at every n mod 4, at odd offsets, and with dst identical to
// either operand.
func TestVLOsAreTheLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	sizes := append([]int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 62, 63, 64, 65}, denseSizes...)
	for _, p := range leafPatterns {
		t.Run(p.name, func(t *testing.T) {
			for _, n := range sizes {
				if n > 10000 {
					continue
				}
				for off := 0; off < 2; off++ {
					x := offsetVec(rng, n, off, p.fill)
					y := offsetVec(rng, n, 1-off, leafPatterns[rng.Intn(len(leafPatterns))].fill)
					alpha := vloScalars[rng.Intn(len(vloScalars))]
					beta := vloScalars[rng.Intn(len(vloScalars))]
					checkVLOs(t, x, y, alpha, beta)
					checkVLOs(t, x, y, 1.7, -0.3)
				}
			}
		})
	}
	// Every scalar pair on one mixed vector with a tail of three.
	x, y := mixedVec(rng, 131), mixedVec(rng, 131)
	for _, alpha := range vloScalars {
		for _, beta := range vloScalars {
			checkVLOs(t, x, y, alpha, beta)
		}
	}
}

// TestDenseKernelsDoNotAllocate: Dot's scratch is on the stack.
func TestDenseKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	u, v, w := mixedVec(rng, 22500), mixedVec(rng, 22500), make([]float64, 22500)
	var sink float64
	if a := testing.AllocsPerRun(20, func() {
		sink += Dot(u, v) + Norm2(u)
		Axpy(w, 0.5, u)
		Xpby(w, u, 0.5, v)
		Axpby(w, 0.5, u, 2, v)
	}); a != 0 {
		t.Fatalf("dense kernels allocate: %v per run", a)
	}
	_ = sink
}

// tile fills u from the fuzzer's bytes, eight per float64, repeating, so
// that it can reach any bit pattern at any position.
func tile(u []float64, data []byte, stride, phase int) {
	m := len(data) / 8
	for i := range u {
		u[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[(stride*i+phase)%m*8:]))
	}
}

// FuzzNorm2Leaf holds Norm2 to its contract on a vector tiled from the
// fuzzer's bytes at a length and alignment it also picks.
func FuzzNorm2Leaf(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n uint16, misalign bool) {
		if len(data) < 8 {
			return
		}
		off := 0
		if misalign {
			off = 1
		}
		u := make([]float64, int(n)%1024+off)[off:]
		tile(u, data, 1, 0)
		checkNorm2(t, u)
	})
}

// FuzzVLOKernels drives checkVLOs with operands and scalars taken from the
// fuzzer's bytes: x from the even words, y from the odd ones.
func FuzzVLOKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n uint16, alpha, beta float64, misalign bool) {
		if len(data) < 8 {
			return
		}
		off := 0
		if misalign {
			off = 1
		}
		x := make([]float64, int(n)%300+off)[off:]
		y := make([]float64, len(x)+1-off)[1-off:]
		tile(x, data, 2, 0)
		tile(y, data, 2, 1)
		checkVLOs(t, x, y, alpha, beta)
	})
}
