package sparse

import (
	"fmt"

	"newsum/internal/vec"
)

// triCoalesce is the fewest rows an independent block keeps to itself;
// shorter neighbours are merged until they reach it, so that the per-unit
// bookkeeping of a solve is spread over enough rows to vanish.
const triCoalesce = 32

// TriSchedule is a triangular solve with everything that depends only on
// the factor decided once: where each row's strict triangle lies in the
// factor's own ColIdx/Val (O(n) words; the factor is not copied), the
// pivots as an array, the zero-pivot and shape checks, and the boundaries
// of the diagonal blocks that share no unknown — or, for a factor that is
// one banded block, of its segments. It is immutable after NewTriSchedule
// and may be used from any number of goroutines.
//
// The bits are SolveLower's and SolveUpper's: every row subtracts its
// stored products from b_i left to right and divides by the pivot. Rows of
// two independent blocks never read each other's unknowns, so no
// interleaving of them can reach an operand; Solve walks four blocks in
// lockstep only to give the core four subtract–divide chains to overlap
// instead of one. A factor that is one block, and whose bandwidth w leaves
// room, is walked as four consecutive segments of w rows instead, each
// started λ rows behind the one before it in solve order, λ the least lag
// at which every unknown a row reads is final when it is read
// (docs/kernels.md "Sparse sweep contract").
type TriSchedule struct {
	m     *CSR
	upper bool
	// Row i's strict triangle is m.ColIdx[beg[i]:end[i]] and m.Val likewise.
	// One of the two is a window onto m.RowPtr, the other the schedule's own.
	beg, end []int
	diag     []float64 // pivots; nil for a unit diagonal
	// units lists, in solve order, the five boundaries c₀ ≤ … ≤ c₄ of each
	// step: the independent blocks [c₀, c₁) … [c₃, c₄) — or the segments
	// of one block — in lockstep, the trailing ones empty when fewer than
	// four were left; a single chain is (lo, hi, hi, hi, hi). The steps tile
	// the rows contiguously, ascending for a lower factor and descending for
	// an upper one, so every row on the solved side of a finished step is
	// final.
	units []int
	lag   int // λ when the units are segments, 0 when they are blocks
}

// NewTriSchedule builds the solve schedule of the triangular factor m:
// lower, or upper when upper is set; unit says the diagonal is one whatever
// is stored (ILU(0) L factors). Entries on the wrong side of the diagonal
// are ignored, as SolveLower and SolveUpper ignore them. It fails on a
// non-square matrix, on a row not sorted by column and — with the reference
// loops' message and row — on an absent or zero pivot.
func NewTriSchedule(m *CSR, upper, unit bool) (*TriSchedule, error) {
	n := m.Rows
	op := "SolveLower"
	if upper {
		op = "SolveUpper"
	}
	if m.Cols != n {
		return nil, fmt.Errorf("sparse: dimension mismatch in %s", op)
	}
	t := &TriSchedule{m: m, upper: upper}
	cut := make([]int, n)
	if upper {
		t.beg, t.end = cut, m.RowPtr[1:]
	} else {
		t.beg, t.end = m.RowPtr[:n], cut
	}
	if !unit {
		t.diag = make([]float64, n)
	}
	// reach[i] is the farthest unknown row i reads: its smallest strict
	// column in a lower factor, its largest in an upper one; band is the
	// farthest any row reads.
	reach := make([]int, n)
	band := 0
	for i := 0; i < n; i++ {
		// Peel the strict triangle off its end of the sorted row; the pivot
		// and the ignored side are what is left in [lo, hi).
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		reach[i] = i
		if upper {
			for ; hi > lo && m.ColIdx[hi-1] > i; hi-- {
				reach[i] = max(reach[i], m.ColIdx[hi-1])
			}
			cut[i] = hi
		} else {
			for ; lo < hi && m.ColIdx[lo] < i; lo++ {
				reach[i] = min(reach[i], m.ColIdx[lo])
			}
			cut[i] = lo
		}
		band = max(band, reach[i]-i, i-reach[i])
		pivot := 0.0
		for k := lo; k < hi; k++ {
			switch j := m.ColIdx[k]; {
			case j == i:
				pivot = m.Val[k]
			case (j > i) == upper:
				return nil, fmt.Errorf("sparse: row %d not sorted by column in %s", i, op)
			}
		}
		if unit {
			continue
		}
		if pivot == 0 {
			return nil, fmt.Errorf("sparse: zero diagonal at row %d in %s", i, op)
		}
		t.diag[i] = pivot
	}
	blocks := triBlocks(reach, upper)
	// A lag pays when the prologue and epilogue, 3λ rows of each segment
	// outside the four-way steady state, stay under half a segment.
	if len(blocks) == 2 && band > 0 && n >= 4*band {
		if lag := t.segmentLag(band); lag > 0 && 6*lag < band {
			t.lag, t.units = lag, lagUnits(n, band, upper)
			return t, nil
		}
	}
	t.units = triUnits(blocks, upper)
	return t, nil
}

// segmentLag returns λ for the segments [s·w, (s+1)·w) of the rows, w the
// bandwidth, the last one cut short at n, grouped four at a time as
// lagUnits groups them. A row reads its own segment and the one before it
// in solve order, its leader; an unknown there at distance d from the row
// sits ℓ − d rows further into the leader than the row is into its own,
// each counted from where the substitution enters it and ℓ the leader's
// length, so the row may run once the leader is more than ℓ − d rows ahead.
// λ is one more than the largest ℓ − d over the entries that cross a
// boundary inside a unit — a unit's leading segment reads only units
// already solved — and 0 when none does. It stops early, returning what it
// has, once λ is past any use.
func (t *TriSchedule) segmentLag(w int) int {
	n, lag := len(t.beg), 0
	colIdx, beg, end := t.m.ColIdx, t.beg, t.end[:n]
	for s, seg := 0, 0; seg < n && 6*lag < w; s, seg = s+1, seg+w {
		if (!t.upper && s%4 == 0) || (t.upper && s%4 == 3) {
			continue // a unit's leading segment
		}
		next, lead := min(seg+w, n), w // a lower factor's leader is whole
		if t.upper {
			lead = min(next+w, n) - next
		}
		for i := seg; i < next; i++ {
			for _, j := range colIdx[beg[i]:end[i]] {
				if j < seg || j >= next {
					lag = max(lag, lead+1-max(i-j, j-i))
				}
			}
		}
	}
	return lag
}

// lagUnits groups the segments [s·w, (s+1)·w) of the rows [0, n) — the last
// one cut short at n — four at a time in solve order, from the top for a
// lower factor and from the bottom for an upper one. The unit at the far
// end of the rows may have fewer than four, its trailing boundaries at n.
func lagUnits(n, w int, upper bool) []int {
	k := (n + 4*w - 1) / (4 * w)
	units := make([]int, 0, 5*k)
	for u := 0; u < k; u++ {
		lo := 4 * w * u
		if upper {
			lo = 4 * w * (k - 1 - u)
		}
		for j := 0; j <= 4; j++ {
			units = append(units, min(lo+j*w, n))
		}
	}
	return units
}

// triBlocks returns the boundaries 0 = c₀ < … < c_k = n of the independent
// diagonal blocks read off reach (which it overwrites): in a lower factor
// row i starts a block iff no row ≥ i reads an unknown < i, in an upper one
// iff no row < i reads an unknown ≥ i. Blocks shorter than triCoalesce are
// merged into a neighbour, which keeps the union independent of the rest.
func triBlocks(reach []int, upper bool) []int {
	n := len(reach)
	// The running extreme stays in a register: reloading the element just
	// stored put a store-to-load forward on every row's critical path.
	if upper {
		for i, far := 0, 0; i < n; i++ {
			far = max(far, reach[i])
			reach[i] = far // the farthest any row ≤ i reads
		}
	} else {
		for i, far := n-1, n; i >= 0; i-- {
			far = min(far, reach[i])
			reach[i] = far // the farthest any row ≥ i reads
		}
	}
	blocks := make([]int, 1, n/triCoalesce+2) // no block but the last is shorter than triCoalesce
	for i := 1; i < n; i++ {
		starts := reach[i] >= i
		if upper {
			starts = reach[i-1] < i
		}
		if starts && i-blocks[len(blocks)-1] >= triCoalesce {
			blocks = append(blocks, i)
		}
	}
	if k := len(blocks) - 1; k > 0 && n-blocks[k] < triCoalesce {
		blocks = blocks[:k]
	}
	return append(blocks, n)
}

// triUnits groups the blocks four at a time in solve order — from the top
// for a lower factor, from the bottom for an upper one — as five boundaries
// each; two or three blocks left at the end make a unit whose trailing
// blocks are empty. A block left on its own (always the case for a factor
// that is one block, such as plain ILU(0)) is cut at the vec.Block leaf
// boundaries into single chains, so that the fused solve fills each leaf as
// it completes.
func triUnits(blocks []int, upper bool) []int {
	// A unit takes two blocks or more, a single chain a leaf or its ragged end.
	units := make([]int, 0, 5*(len(blocks)/2+blocks[len(blocks)-1]/vec.Block+2))
	// The blocks not yet in a unit lie between boundaries lo and hi.
	lo, hi := 0, len(blocks)-1
	for hi-lo >= 2 {
		g := min(hi-lo, 4)
		first := lo
		if upper {
			hi -= g
			first = hi
		} else {
			lo += g
		}
		for j := 0; j <= 4; j++ {
			units = append(units, blocks[first+min(j, g)])
		}
	}
	if upper {
		for end := blocks[hi]; end > blocks[lo]; {
			start := max((end-1)/vec.Block*vec.Block, blocks[lo])
			units = append(units, start, end, end, end, end)
			end = start
		}
		return units
	}
	for start := blocks[lo]; start < blocks[hi]; {
		end := min((start/vec.Block+1)*vec.Block, blocks[hi])
		units = append(units, start, end, end, end, end)
		start = end
	}
	return units
}

// Solve solves T·x = b for x. x and b may alias. The only error left to
// solve time is a length mismatch.
func (t *TriSchedule) Solve(x, b []float64) error {
	return t.SolveDotAbs(x, b, nil, nil)
}

// SolveDotAbs is Solve that also fills lv's leaves of rows[j]·x and
// Σ|rows[j]_i·x_i| — the Eq. (4) row reductions over the solution — each
// leaf once every row in it is final: ascending for a lower factor; for an
// upper one last leaf first, which the fold does not care about. The
// solution is Solve's and the folded leaves are vec.DotAbs's, bit for bit.
// A nil lv fills nothing.
func (t *TriSchedule) SolveDotAbs(x, b []float64, rows [][]float64, lv *vec.Leaves) error {
	n := t.m.Rows
	if len(x) != n || len(b) != n {
		return fmt.Errorf("sparse: dimension mismatch in TriSchedule.Solve")
	}
	next := 0 // the first leaf not yet filled (lower) …
	if t.upper {
		next = vec.Blocks(n) // … or the last one filled (upper)
	}
	for u := 0; u+4 < len(t.units); u += 5 {
		c := t.units[u : u+5 : u+5]
		lo, hi := c[0], c[4]
		t.lockstep(x, b, c)
		if lv == nil {
			continue
		}
		// Every leaf this unit made final, in one call: those that end by
		// hi, the ragged last one included, or that start at lo or after.
		from, to := next, hi/vec.Block
		if hi == n {
			to = vec.Blocks(n)
		}
		if t.upper {
			from, to = vec.Blocks(lo), next
		}
		if from < to {
			lv.FillBlocks(rows, x, from, to)
			next = to
			if t.upper {
				next = from
			}
		}
	}
	return nil
}

// lockstep solves the chains [c[j], c[j+1]) of one unit. Independent
// blocks (lag 0) run all four a row each per trip while all four have rows
// left, then what is left two blocks at a time, then one. The segments of a
// lagged unit start λ rows apart in solve order — the lowest segment of a
// lower factor leads, the highest of an upper one — and every segment that
// has started runs on each trip, which keeps each λ rows behind its leader:
// one alone, two as a pair, three as a pair and then the third alone over
// the same rows (it reads only what the pair has finished), and the steady
// state four at a time. A chain is where a block has got to: its first row
// not final, how many are left and how many rows it waits before it starts.
func (t *TriSchedule) lockstep(x, b []float64, c []int) {
	if c[1] == c[4] {
		// A single chain — a leaf of a one-block factor that is not lagged,
		// or a block left without a partner — needs none of what follows.
		t.chain(x, b, c[0], c[1])
		return
	}
	var at, left, wait [4]int
	n := 0
	for j := range at {
		s := j
		if t.lag > 0 && t.upper {
			s = 3 - j // the highest segment leads
		}
		if c[s+1] > c[s] {
			at[n], left[n], wait[n] = c[s], c[s+1]-c[s], n*t.lag
			n++
		}
	}
	for n > 0 {
		// The first chain runs whatever it waits: its leader, if any, is done.
		started := 1
		for started < n && wait[started] == 0 {
			started++
		}
		// k rows of the first `width` chains — and of a third alone, in a
		// lagged unit — from the end the substitution starts at, which for an
		// upper factor is the far end of what is left; no further than the
		// next chain's start.
		width, k := 1, left[0]
		if started >= 2 {
			width, k = 2, min(k, left[1])
		}
		if started == 4 {
			width, k = 4, min(k, left[2], left[3])
		}
		runs := width
		if started == 3 && t.lag > 0 {
			runs, k = 3, min(k, left[2])
		}
		if started < n {
			k = min(k, wait[started])
		}
		var from [4]int
		for j := 0; j < runs; j++ {
			from[j] = at[j]
			left[j] -= k
			if t.upper {
				from[j] += left[j]
			} else {
				at[j] += k
			}
		}
		for j := started; j < n; j++ {
			wait[j] -= k
		}
		switch {
		case width == 4 && t.lag > 0:
			t.segQuad(x, b, from, k)
		case width == 4:
			t.quad(x, b, from, k)
		case width == 2:
			t.pair(x, b, from[0], from[1], k)
		default:
			t.chain(x, b, from[0], from[0]+k)
		}
		if runs == 3 {
			t.chain(x, b, from[2], from[2]+k)
		}
		m := 0
		for j := 0; j < n; j++ {
			if left[j] > 0 {
				at[m], left[m], wait[m] = at[j], left[j], wait[j]
				m++
			}
		}
		n = m
	}
}

// triRow returns s − Σ_k vals[k]·x[cols[k]], subtracted left to right: the
// order (and so the bits) of a substitution row.
func triRow(s float64, cols []int, vals, x []float64) float64 {
	vals = vals[:len(cols)]
	for k, j := range cols {
		s -= vals[k] * x[j]
	}
	return s
}

// chain solves the rows [lo, hi) as one substitution chain, ascending for a
// lower factor and descending for an upper one. The row-indexed arrays are
// cut to the range first, so the loops index them unchecked.
func (t *TriSchedule) chain(x, b []float64, lo, hi int) {
	beg, end, xs, bs := t.beg[lo:hi], t.end[lo:hi], x[lo:hi], b[lo:hi]
	var diag []float64 // stays empty for a unit diagonal: r < len(diag) is the test
	if t.diag != nil {
		diag = t.diag[lo:hi]
	}
	colIdx, val := t.m.ColIdx, t.m.Val
	if t.upper {
		for r := len(beg) - 1; r >= 0; r-- {
			s := triRow(bs[r], colIdx[beg[r]:end[r]], val[beg[r]:end[r]], x)
			if r < len(diag) {
				s /= diag[r]
			}
			xs[r] = s
		}
		return
	}
	for r := range beg {
		s := triRow(bs[r], colIdx[beg[r]:end[r]], val[beg[r]:end[r]], x)
		if r < len(diag) {
			s /= diag[r]
		}
		xs[r] = s
	}
}

// pair solves the n rows from i and the n rows from j — two independent
// blocks, or two lagged segments — in lockstep. Neither chain reads what
// the other writes on the same trip, so each row's operands — and bits —
// are those of chain.
func (t *TriSchedule) pair(x, b []float64, i, j, n int) {
	begI, endI, xi, bi := t.beg[i:][:n], t.end[i:][:n], x[i:][:n], b[i:][:n]
	begJ, endJ, xj, bj := t.beg[j:][:n], t.end[j:][:n], x[j:][:n], b[j:][:n]
	var di, dj []float64
	if t.diag != nil {
		di, dj = t.diag[i:][:n], t.diag[j:][:n]
	}
	dj = dj[:len(di)]
	colIdx, val := t.m.ColIdx, t.m.Val
	if t.upper {
		for r := n - 1; r >= 0; r-- {
			si := triRow(bi[r], colIdx[begI[r]:endI[r]], val[begI[r]:endI[r]], x)
			sj := triRow(bj[r], colIdx[begJ[r]:endJ[r]], val[begJ[r]:endJ[r]], x)
			if r < len(di) {
				si /= di[r]
				sj /= dj[r]
			}
			xi[r], xj[r] = si, sj
		}
		return
	}
	for r := 0; r < n; r++ {
		si := triRow(bi[r], colIdx[begI[r]:endI[r]], val[begI[r]:endI[r]], x)
		sj := triRow(bj[r], colIdx[begJ[r]:endJ[r]], val[begJ[r]:endJ[r]], x)
		if r < len(di) {
			si /= di[r]
			sj /= dj[r]
		}
		xi[r], xj[r] = si, sj
	}
}

// quad is pair for four independent blocks: the n rows from each of at, in
// lockstep.
func (t *TriSchedule) quad(x, b []float64, at [4]int, n int) {
	begI, endI, xi, bi := t.beg[at[0]:][:n], t.end[at[0]:][:n], x[at[0]:][:n], b[at[0]:][:n]
	begJ, endJ, xj, bj := t.beg[at[1]:][:n], t.end[at[1]:][:n], x[at[1]:][:n], b[at[1]:][:n]
	begK, endK, xk, bk := t.beg[at[2]:][:n], t.end[at[2]:][:n], x[at[2]:][:n], b[at[2]:][:n]
	begL, endL, xl, bl := t.beg[at[3]:][:n], t.end[at[3]:][:n], x[at[3]:][:n], b[at[3]:][:n]
	var di, dj, dk, dl []float64
	if t.diag != nil {
		di, dj, dk, dl = t.diag[at[0]:][:n], t.diag[at[1]:][:n], t.diag[at[2]:][:n], t.diag[at[3]:][:n]
	}
	dj, dk, dl = dj[:len(di)], dk[:len(di)], dl[:len(di)]
	colIdx, val := t.m.ColIdx, t.m.Val
	if t.upper {
		for r := n - 1; r >= 0; r-- {
			si := triRow(bi[r], colIdx[begI[r]:endI[r]], val[begI[r]:endI[r]], x)
			sj := triRow(bj[r], colIdx[begJ[r]:endJ[r]], val[begJ[r]:endJ[r]], x)
			sk := triRow(bk[r], colIdx[begK[r]:endK[r]], val[begK[r]:endK[r]], x)
			sl := triRow(bl[r], colIdx[begL[r]:endL[r]], val[begL[r]:endL[r]], x)
			if r < len(di) {
				si /= di[r]
				sj /= dj[r]
				sk /= dk[r]
				sl /= dl[r]
			}
			xi[r], xj[r], xk[r], xl[r] = si, sj, sk, sl
		}
		return
	}
	for r := 0; r < n; r++ {
		si := triRow(bi[r], colIdx[begI[r]:endI[r]], val[begI[r]:endI[r]], x)
		sj := triRow(bj[r], colIdx[begJ[r]:endJ[r]], val[begJ[r]:endJ[r]], x)
		sk := triRow(bk[r], colIdx[begK[r]:endK[r]], val[begK[r]:endK[r]], x)
		sl := triRow(bl[r], colIdx[begL[r]:endL[r]], val[begL[r]:endL[r]], x)
		if r < len(di) {
			si /= di[r]
			sj /= dj[r]
			sk /= dk[r]
			sl /= dl[r]
		}
		xi[r], xj[r], xk[r], xl[r] = si, sj, sk, sl
	}
}

// segRow is triRow for the steady state of a lagged unit: a row of exactly
// two strict entries — almost every row of a 5-point factor — is written
// out, the same two subtractions in the same order, without the loop.
func segRow(s float64, cols []int, vals, x []float64) float64 {
	if len(cols) == 2 {
		vals = vals[:2]
		return s - vals[0]*x[cols[0]] - vals[1]*x[cols[1]]
	}
	return triRow(s, cols, vals, x)
}

// segQuad is quad for the steady state of a lagged unit: four consecutive
// segments, each λ rows behind the one before it, so that every unknown a
// row reads was written on an earlier trip and none on this one.
func (t *TriSchedule) segQuad(x, b []float64, at [4]int, n int) {
	begI, endI, xi, bi := t.beg[at[0]:][:n], t.end[at[0]:][:n], x[at[0]:][:n], b[at[0]:][:n]
	begJ, endJ, xj, bj := t.beg[at[1]:][:n], t.end[at[1]:][:n], x[at[1]:][:n], b[at[1]:][:n]
	begK, endK, xk, bk := t.beg[at[2]:][:n], t.end[at[2]:][:n], x[at[2]:][:n], b[at[2]:][:n]
	begL, endL, xl, bl := t.beg[at[3]:][:n], t.end[at[3]:][:n], x[at[3]:][:n], b[at[3]:][:n]
	var di, dj, dk, dl []float64
	if t.diag != nil {
		di, dj, dk, dl = t.diag[at[0]:][:n], t.diag[at[1]:][:n], t.diag[at[2]:][:n], t.diag[at[3]:][:n]
	}
	dj, dk, dl = dj[:len(di)], dk[:len(di)], dl[:len(di)]
	colIdx, val := t.m.ColIdx, t.m.Val
	if t.upper {
		for r := n - 1; r >= 0; r-- {
			si := segRow(bi[r], colIdx[begI[r]:endI[r]], val[begI[r]:endI[r]], x)
			sj := segRow(bj[r], colIdx[begJ[r]:endJ[r]], val[begJ[r]:endJ[r]], x)
			sk := segRow(bk[r], colIdx[begK[r]:endK[r]], val[begK[r]:endK[r]], x)
			sl := segRow(bl[r], colIdx[begL[r]:endL[r]], val[begL[r]:endL[r]], x)
			if r < len(di) {
				si /= di[r]
				sj /= dj[r]
				sk /= dk[r]
				sl /= dl[r]
			}
			xi[r], xj[r], xk[r], xl[r] = si, sj, sk, sl
		}
		return
	}
	for r := 0; r < n; r++ {
		si := segRow(bi[r], colIdx[begI[r]:endI[r]], val[begI[r]:endI[r]], x)
		sj := segRow(bj[r], colIdx[begJ[r]:endJ[r]], val[begJ[r]:endJ[r]], x)
		sk := segRow(bk[r], colIdx[begK[r]:endK[r]], val[begK[r]:endK[r]], x)
		sl := segRow(bl[r], colIdx[begL[r]:endL[r]], val[begL[r]:endL[r]], x)
		if r < len(di) {
			si /= di[r]
			sj /= dj[r]
			sk /= dk[r]
			sl /= dl[r]
		}
		xi[r], xj[r], xk[r], xl[r] = si, sj, sk, sl
	}
}
