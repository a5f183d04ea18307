package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The dense half of an iteration — Dot, Norm2 and the three VLOs — held
// against the Go loops they have always been, bit for bit: DotBlock under
// the closure tree, norm2Loop under the closure tree, axpyLoop / axpbyLoop /
// xpbyLoop end to end.

// denseSizes are the quad boundaries (4 blocks = 512), the 64-leaf subtree
// boundary (8 192 and a quad past it), ragged last blocks and the lengths
// the benchmark's operators have.
var denseSizes = []int{0, 1, 127, 128, 129, 511, 512, 513, 640, 8191, 8192, 8193, 8320, 10000, 22500, 100003}

// refDot is Dot as the package computed it before DotBlocks: one DotBlock
// call per leaf under the closure tree.
func refDot(u, v []float64) float64 {
	return pairwise(0, Blocks(len(u)), func(b int) float64 { return DotBlock(u, v, b) })
}

// refNorm2 is Norm2 with every leaf taken by the loop.
func refNorm2(u []float64) float64 {
	s, q := pairwiseNorm2(0, Blocks(len(u)), func(b int) (float64, float64) {
		lo, hi := blockBounds(len(u), b)
		return norm2Loop(u[lo:hi])
	})
	return s * math.Sqrt(q)
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

// norm2Patterns are leafPatterns plus what the norm's leaf branches on:
// where in a pair and in a block the running scale grows, zeros ahead of
// the first nonzero, spreads wide enough that the rescale underflows.
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

// checkNorm2 compares the linked leaf with the loop on every block of u,
// and the folded norm with the all-loop norm.
func checkNorm2(t *testing.T, u []float64) {
	t.Helper()
	for b := 0; b < Blocks(len(u)); b++ {
		lo, hi := blockBounds(len(u), b)
		ws, wq := norm2Loop(u[lo:hi])
		if gs, gq := Norm2Block(u, b); !sameLeaf(gs, ws) || !sameLeaf(gq, wq) {
			t.Fatalf("n=%d Norm2Block %d: linked (%x, %x), loop (%x, %x)", len(u), b, gs, gq, ws, wq)
		}
	}
	if got, want := Norm2(u), refNorm2(u); !sameLeaf(got, want) {
		t.Fatalf("n=%d: Norm2 = %x, loop leaves %x", len(u), got, want)
	}
}

// TestNorm2LeafIsTheLoop: the packed divide rounds each lane as the scalar
// one does, and the squares reach ssq in element order.
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
// floor: the first pair (scale still 0), either lane of an interior pair
// and the last pair all take the loop's own steps.
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

// FuzzNorm2Leaf drives checkNorm2 with a vector tiled from the fuzzer's
// bytes at a length and alignment it also picks.
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
