package sparse

import (
	"fmt"
	"math"
	"slices"

	"newsum/internal/vec"
)

// rowPlan is the order MulVecRows visits the rows of each full window of
// vec.Block rows in: run after run of rows that hold the same number of
// entries, so that a run goes through a loop body of fixed length whose
// exit the core predicts, instead of a loop whose trip count changes from
// row to row. The window is the leaf of every fused reduction and the
// boundary the pool cuts on, so a pooled or fused range is whole windows.
//
// A row's product is the same Σ val[k]·x[col[k]] left to right from +0
// whatever is computed before or after it, so the order rows are visited in
// cannot reach a bit of it.
type rowPlan struct {
	order []uint8  // window w's rows, as offsets into it, at order[w·Block:]: run after run
	runs  []rowRun // every window's runs, shortest rows first, window after window
	first []int32  // window w's runs are runs[first[w]:first[w+1]]
}

// rowRun is rows consecutive entries of a window's order, each a row of
// length entries.
type rowRun struct{ length, rows int32 }

// planRows gives a its row plan. It is the last line of everything in the
// package that builds a CSR's pattern; the pattern is immutable afterwards.
func (a *CSR) planRows() *CSR {
	a.plan = newRowPlan(a.RowPtr, len(a.Val))
	return a
}

// planSpan is how many lengths, from a window's shortest row up, the row
// plan counts in stack scratch; a window whose longest row lies further
// from its shortest counts in heap scratch, one array for the call, grown
// to the widest such window.
const planSpan = 128

// newRowPlan plans the full windows of the rows rowPtr delimits, counting
// each window's rows by length with a direct index over its lengths from
// the shortest to the longest — eight byte counters in one word when they
// span at most eight, stack scratch up to planSpan, heap scratch beyond —
// and placing each row at its length's next place: one byte a row and one
// rowRun a run, nothing else allocated unless a window spans more than
// planSpan lengths. Linear in the row count plus such windows' spans, each
// under the window's entries. It returns nil — the row loop — when there
// is no full window, or more rows or entries than the plan's int32 words
// count.
func newRowPlan(rowPtr []int, nnz int) *rowPlan {
	nw := (len(rowPtr) - 1) / vec.Block
	if nw == 0 || len(rowPtr)+nnz > math.MaxInt32 {
		return nil
	}
	// Room for four runs a window, what stencil and circuit windows mostly
	// need, at least doubled when full: as many regrowths at any size.
	p := &rowPlan{order: make([]uint8, nw*vec.Block), runs: make([]rowRun, 0, 4*nw), first: make([]int32, nw+1)}
	var (
		lens  [vec.Block]int32  // the window's row lengths
		runs  [vec.Block]rowRun // its runs, shortest rows first
		stack [planSpan]int32   // by length − the shortest: count, then next place
		wide  []int32           // the same for a window that spans more
	)
	for w := 0; w < nw; w++ {
		ptr := rowPtr[w*vec.Block:][:vec.Block+1]
		lo, hi := int32(ptr[1]-ptr[0]), int32(0)
		for i := range lens {
			l := int32(ptr[i+1] - ptr[i])
			lens[i], lo, hi = l, min(lo, l), max(hi, l)
		}
		order, d := (*[vec.Block]uint8)(p.order[w*vec.Block:]), 0
		if hi-lo < 8 {
			// Byte l−lo of one word counts, then places, length l: a
			// window holds 128 rows, so no byte carries into the next,
			// and a run of equal lengths is a chain of register adds.
			var count, next, q uint64
			for _, l := range lens[:] {
				count += 1 << (8 * uint(l-lo) & 63)
			}
			for s := range hi - lo + 1 {
				if k := count >> (8 * uint(s)) & 0xff; k != 0 {
					runs[d], d = rowRun{lo + s, int32(k)}, d+1
					next |= q << (8 * uint(s))
					q += k
				}
			}
			for i, l := range lens[:] {
				sh := 8 * uint(l-lo) & 63
				order[next>>sh&rowMask] = uint8(i)
				next += 1 << sh
			}
		} else {
			at := stack[:]
			if int(hi-lo) >= planSpan {
				if int(hi-lo) >= len(wide) {
					wide = make([]int32, hi-lo+1)
				}
				at = wide
			}
			at = at[:hi-lo+1]
			for _, l := range lens[:] {
				at[l-lo]++
			}
			for s, q := 0, int32(0); s < len(at); s++ {
				if k := at[s]; k != 0 {
					runs[d], d = rowRun{lo + int32(s), k}, d+1
					at[s], q = q, q+k
				}
			}
			for i, l := range lens[:] {
				order[at[l-lo]&rowMask] = uint8(i)
				at[l-lo]++
			}
			clear(at)
		}
		if len(p.runs)+d > cap(p.runs) {
			p.runs = slices.Grow(p.runs, cap(p.runs)+d)
		}
		p.runs = append(p.runs, runs[:d]...)
		p.first[w+1] = int32(len(p.runs))
	}
	return p
}

// validate reports a plan that is not the one a's RowPtr (already checked
// monotone) would be given today: the pattern was edited under it.
func (p *rowPlan) validate(a *CSR) error {
	now := newRowPlan(a.RowPtr, len(a.Val))
	if now == nil || !slices.Equal(p.order, now.order) || !slices.Equal(p.runs, now.runs) || !slices.Equal(p.first, now.first) {
		return fmt.Errorf("sparse: row plan does not match RowPtr: the pattern was edited after construction")
	}
	return nil
}

// mulWindows computes dst[i-w0·Block] := (A·x)[i] for the rows of the
// windows [w0, w1), run by run.
func (a *CSR) mulWindows(dst, x []float64, w0, w1 int) {
	p := a.plan
	for w := w0; w < w1; w++ {
		rowPtr := (*[vec.Block]int)(a.RowPtr[w*vec.Block:])
		d := (*[vec.Block]float64)(dst[(w-w0)*vec.Block:])
		order := p.order[w*vec.Block:][:vec.Block]
		for _, r := range p.runs[p.first[w]:p.first[w+1]] {
			a.mulRun(d, x, rowPtr, order[:r.rows], int(r.length))
			order = order[r.rows:]
		}
	}
}

// rowMask takes an entry of a plan's order to an index the compiler can see
// is inside the window.
const rowMask = vec.Block - 1

// mulRun computes d[i] := Σ_k val[k]·x[colIdx[k]] over the n entries from
// rowPtr[i], for each row i of order: rowDot's sum, term by term from +0,
// through a body without a loop for the lengths that have one. Every row is
// cut to exactly n entries, so a plan gone stale against RowPtr panics on a
// slice bound or multiplies in-bounds neighbours, and never reads out of
// range. ColIdx and Val are read through a on every row, which keeps four
// words out of registers the bodies need.
func (a *CSR) mulRun(d *[vec.Block]float64, x []float64, rowPtr *[vec.Block]int, order []uint8, n int) {
	switch n {
	case 1:
		for _, i := range order {
			k := rowPtr[i&rowMask]
			c, v := a.ColIdx[k:k+1:k+1], a.Val[k:k+1:k+1]
			d[i&rowMask] = 0 + v[0]*x[c[0]]
		}
	case 2:
		for _, i := range order {
			k := rowPtr[i&rowMask]
			c, v := a.ColIdx[k:k+2:k+2], a.Val[k:k+2:k+2]
			d[i&rowMask] = 0 + v[0]*x[c[0]] + v[1]*x[c[1]]
		}
	case 3:
		for _, i := range order {
			k := rowPtr[i&rowMask]
			c, v := a.ColIdx[k:k+3:k+3], a.Val[k:k+3:k+3]
			d[i&rowMask] = 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]]
		}
	case 4:
		for _, i := range order {
			k := rowPtr[i&rowMask]
			c, v := a.ColIdx[k:k+4:k+4], a.Val[k:k+4:k+4]
			d[i&rowMask] = 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]]
		}
	case 5:
		for _, i := range order {
			k := rowPtr[i&rowMask]
			c, v := a.ColIdx[k:k+5:k+5], a.Val[k:k+5:k+5]
			d[i&rowMask] = 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]] + v[4]*x[c[4]]
		}
	case 6:
		for _, i := range order {
			k := rowPtr[i&rowMask]
			c, v := a.ColIdx[k:k+6:k+6], a.Val[k:k+6:k+6]
			d[i&rowMask] = 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]] + v[4]*x[c[4]] + v[5]*x[c[5]]
		}
	case 7:
		for _, i := range order {
			k := rowPtr[i&rowMask]
			c, v := a.ColIdx[k:k+7:k+7], a.Val[k:k+7:k+7]
			d[i&rowMask] = 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]] + v[4]*x[c[4]] + v[5]*x[c[5]] + v[6]*x[c[6]]
		}
	case 8:
		for _, i := range order {
			k := rowPtr[i&rowMask]
			c, v := a.ColIdx[k:k+8:k+8], a.Val[k:k+8:k+8]
			d[i&rowMask] = 0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]] + v[4]*x[c[4]] + v[5]*x[c[5]] + v[6]*x[c[6]] + v[7]*x[c[7]]
		}
	default:
		for _, i := range order {
			k := rowPtr[i&rowMask]
			d[i&rowMask] = rowDot(a.ColIdx[k:k+n:k+n], a.Val[k:k+n:k+n], x)
		}
	}
}
