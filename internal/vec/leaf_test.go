package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// specLeaf is the reduction contract of leaf.go written as prose reads it:
// lane j sums the terms with index ≡ j (mod 4) left to right from +0, the
// value is (l0+l2)+(l1+l3). The assembly and the portable leaf must both
// reproduce it.
func specLeaf(terms []float64) (sum, abs float64) {
	var s, a [4]float64
	for i, t := range terms {
		s[i%4] += t
		a[i%4] += math.Abs(t)
	}
	return (s[0] + s[2]) + (s[1] + s[3]), (a[0] + a[2]) + (a[1] + a[3])
}

// specDotAbs evaluates DotAbs from the spec leaf and the closure tree the
// package has always folded with.
func specDotAbs(u, v []float64) (sum, abs float64) {
	terms := make([]float64, len(u))
	for i := range u {
		terms[i] = u[i] * v[i]
	}
	return pairwise2(0, Blocks(len(u)), func(b int) (float64, float64) {
		lo, hi := blockBounds(len(u), b)
		return specLeaf(terms[lo:hi])
	})
}

// sameLeaf is sameBits up to which NaN: x86 propagates the first NaN
// operand's payload, so the order the compiler hands operands to ADDSD
// may pick a different NaN than the assembly's ADDPD does. Every consumer
// only ever asks whether the value is a NaN.
func sameLeaf(a, b float64) bool {
	return sameBits(a, b) || (math.IsNaN(a) && math.IsNaN(b))
}

var leafSizes = []int{0, 1, 3, 4, 5, 127, 128, 129, 255, 4095, 4096, 4097, 10000}

// leafPatterns fill a vector with the values a reduction order can get
// wrong: signed zeros, subnormals, infinities, NaNs, cancelling signs.
var leafPatterns = []struct {
	name string
	fill func(rng *rand.Rand, x []float64)
}{
	{"mixed", func(rng *rand.Rand, x []float64) { copy(x, mixedVec(rng, len(x))) }},
	{"zeros", func(rng *rand.Rand, x []float64) {
		for i := range x {
			x[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
	}},
	{"negzero", func(rng *rand.Rand, x []float64) { Fill(x, math.Copysign(0, -1)) }},
	{"subnormal", func(rng *rand.Rand, x []float64) {
		for i := range x {
			x[i] = math.Float64frombits(uint64(rng.Int63n(1<<52)) | uint64(rng.Intn(2))<<63)
		}
	}},
	{"huge", func(rng *rand.Rand, x []float64) {
		for i := range x {
			x[i] = (rng.Float64() - 0.5) * math.MaxFloat64
		}
	}},
	{"inf", func(rng *rand.Rand, x []float64) {
		copy(x, mixedVec(rng, len(x)))
		for i := 0; i < len(x); i += 1 + rng.Intn(97) {
			x[i] = math.Inf(rng.Intn(2)*2 - 1)
		}
	}},
	{"nan", func(rng *rand.Rand, x []float64) {
		copy(x, mixedVec(rng, len(x)))
		for i := rng.Intn(5); i < len(x); i += 1 + rng.Intn(301) {
			x[i] = math.NaN()
		}
	}},
	{"cancel", func(rng *rand.Rand, x []float64) {
		for i := range x {
			x[i] = math.Ldexp(float64(1-2*(i%2)), 50*(i/2%2))
		}
	}},
}

// checkLeaves compares the linked kernels (assembly for full blocks on
// amd64, portable otherwise), the portable leaf and the spec on one input,
// block by block and folded.
func checkLeaves(t *testing.T, u, v []float64) {
	t.Helper()
	n := len(u)
	ones := func(int) float64 { return 1 }
	terms := make([]float64, Block)
	for b := 0; b < Blocks(n); b++ {
		lo, hi := blockBounds(n, b)
		for i := lo; i < hi; i++ {
			terms[i-lo] = u[i] * v[i]
		}
		ws, wa := specLeaf(terms[:hi-lo])
		ps, pa := dotAbsLanes(u[lo:hi], v[lo:hi])
		gs, ga := DotAbsBlock(u, v, b)
		if !sameLeaf(ps, ws) || !sameLeaf(pa, wa) || !sameLeaf(gs, ws) || !sameLeaf(ga, wa) {
			t.Fatalf("n=%d DotAbsBlock %d: linked (%x, %x), portable (%x, %x), spec (%x, %x)", n, b, gs, ga, ps, pa, ws, wa)
		}
		ws, wa = specLeaf(u[lo:hi])
		ps, pa = sumAbsLanes(u[lo:hi])
		gs, ga = SumAbsBlock(u, b)
		os, oa := WeightedSumAbsBlock(u, ones, b)
		if !sameLeaf(ps, ws) || !sameLeaf(pa, wa) || !sameLeaf(gs, ws) || !sameLeaf(ga, wa) || !sameLeaf(os, ws) || !sameLeaf(oa, wa) {
			t.Fatalf("n=%d SumAbsBlock %d: linked (%x, %x), portable (%x, %x), ones-weighted (%x, %x), spec (%x, %x)",
				n, b, gs, ga, ps, pa, os, oa, ws, wa)
		}
	}
	ws, wa := specDotAbs(u, v)
	if gs, ga := DotAbs(u, v); !sameLeaf(gs, ws) || !sameLeaf(ga, wa) {
		t.Fatalf("n=%d: DotAbs = (%x, %x), spec (%x, %x)", n, gs, ga, ws, wa)
	}
	onesVec := make([]float64, n)
	Fill(onesVec, 1)
	ws, wa = specDotAbs(u, onesVec)
	gs, ga := SumAbs(u)
	os, oa := WeightedSumAbs(u, ones)
	if !sameLeaf(gs, ws) || !sameLeaf(ga, wa) || !sameLeaf(os, ws) || !sameLeaf(oa, wa) {
		t.Fatalf("n=%d: SumAbs = (%x, %x), ones-weighted (%x, %x), spec (%x, %x)", n, gs, ga, os, oa, ws, wa)
	}
	// A checksum is computed with Sum and verified with SumAbs: one value.
	if s, w := Sum(u), WeightedSum(u, ones); !sameLeaf(s, ws) || !sameLeaf(w, ws) {
		t.Fatalf("n=%d: Sum = %x, ones-weighted %x, SumAbs %x", n, s, w, ws)
	}
}

// TestLeafKernelsMatchPortableAndSpec: assembly ≡ portable ≡ spec, bit for
// bit, across block-boundary sizes, both 16-byte alignments and the special
// values of leafPatterns.
func TestLeafKernelsMatchPortableAndSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, p := range leafPatterns {
		t.Run(p.name, func(t *testing.T) {
			for _, n := range leafSizes {
				for off := 0; off < 2; off++ {
					// Element 1 of an allocation sits 8 bytes off whatever
					// alignment element 0 has.
					u := make([]float64, n+off)[off:]
					v := make([]float64, n+off)[off:]
					p.fill(rng, u)
					leafPatterns[0].fill(rng, v)
					checkLeaves(t, u, v)
					p.fill(rng, v)
					checkLeaves(t, u, v)
				}
			}
		})
	}
}

// TestDotAbsBlockChecksBothLengths: the wrapper slices both operands, so a
// short second operand panics in Go instead of reading past it in assembly.
func TestDotAbsBlockChecksBothLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("DotAbsBlock read a 100-element operand as a full block")
		}
	}()
	DotAbsBlock(make([]float64, Block), make([]float64, 100), 0)
}

// TestPairwiseSumIsTheClosureTree: the recursion on the slice is the tree
// pairwise walks by index, for every leaf count a 38 000-element vector
// can have.
func TestPairwiseSumIsTheClosureTree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for n := 0; n <= 300; n++ {
		p := mixedVec(rng, n)
		want := pairwise(0, n, func(b int) float64 { return p[b] })
		if got := PairwiseSum(p); !sameBits(got, want) {
			t.Fatalf("len %d: PairwiseSum = %x, closure tree %x", n, got, want)
		}
	}
}

// FuzzLeafKernels drives checkLeaves with vectors tiled from the fuzzer's
// bytes (eight per float64, so it can reach any bit pattern), at a length
// and alignment it also picks.
func FuzzLeafKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n uint16, misalign bool) {
		m := len(data) / 8
		if m == 0 {
			return
		}
		off := 0
		if misalign {
			off = 1
		}
		u := make([]float64, int(n)%1024+off)[off:]
		v := make([]float64, len(u)+off)[off:]
		for i := range u {
			u[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[(2*i)%m*8:]))
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[(2*i+1)%m*8:]))
		}
		checkLeaves(t, u, v)
	})
}
