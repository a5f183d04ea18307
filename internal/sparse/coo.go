package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// COO is a coordinate-format builder for sparse matrices. Entries may be
// added in any order; duplicates are summed when converting to CSR, matching
// the conventions of the Matrix Market format and of finite-element assembly.
type COO struct {
	rows, cols int
	i, j       []int
	v          []float64
}

// NewCOO returns an empty COO builder for an rows×cols matrix.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic("sparse: negative COO dimensions")
	}
	return &COO{rows: rows, cols: cols}
}

// Grow reserves room for n more entries, so that a generator that knows
// how many it will add (or a close upper bound) pays for one allocation per
// array instead of a doubling and a copy every time it outgrows one. A
// negative n panics.
func (c *COO) Grow(n int) {
	c.i, c.j, c.v = slices.Grow(c.i, n), slices.Grow(c.j, n), slices.Grow(c.v, n)
}

// Add appends the entry (i, j, v). Zero values are kept so that explicitly
// stored zeros survive the round trip, as Matrix Market allows.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: COO entry (%d,%d) out of range %dx%d", i, j, c.rows, c.cols))
	}
	c.i = append(c.i, i)
	c.j = append(c.j, j)
	c.v = append(c.v, v)
}

// AddSym appends (i, j, v) and, when i != j, the mirrored entry (j, i, v).
// It is convenient when expanding symmetric Matrix Market files.
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// insertionRow is the longest row ToCSR sorts by insertion; longer rows go
// through sort.Stable. Assembly rows hold a handful of entries, where the
// quadratic sort is the fastest there is.
const insertionRow = 32

// ToCSR converts the accumulated entries to CSR form, sorting each row's
// columns ascending and summing duplicate coordinates in the order they
// were added. Linear in the entry count for bounded row lengths: a counting
// sort buckets the entries by row, keeping insertion order, and each row is
// then sorted by column, stably, in place.
func (c *COO) ToCSR() *CSR {
	n := len(c.v)
	a := &CSR{Rows: c.rows, Cols: c.cols, RowPtr: make([]int, c.rows+1)}
	next := make([]int, c.rows+1)
	for _, i := range c.i {
		next[i+1]++
	}
	for i := 0; i < c.rows; i++ {
		next[i+1] += next[i]
	}
	cols, vals := make([]int, n), make([]float64, n)
	for k, i := range c.i {
		p := next[i]
		cols[p], vals[p] = c.j[k], c.v[k]
		next[i] = p + 1
	}
	// next[i] is now the end of row i's bucket, and the start of row i+1's.
	// Rows are sorted and compacted left to right; the write cursor w never
	// overtakes the bucket being read.
	w, lo := 0, 0
	for i := 0; i < c.rows; i++ {
		hi := next[i]
		rc, rv := cols[lo:hi], vals[lo:hi]
		if len(rc) <= insertionRow {
			for p := 1; p < len(rc); p++ {
				j, v := rc[p], rv[p]
				q := p
				for ; q > 0 && rc[q-1] > j; q-- {
					rc[q], rv[q] = rc[q-1], rv[q-1]
				}
				rc[q], rv[q] = j, v
			}
		} else {
			sort.Stable(byColumn{rc, rv})
		}
		first := w
		for p, j := range rc {
			if w > first && cols[w-1] == j {
				vals[w-1] += rv[p]
				continue
			}
			cols[w], vals[w] = j, rv[p]
			w++
		}
		a.RowPtr[i+1] = w
		lo = hi
	}
	a.ColIdx, a.Val = cols[:w], vals[:w]
	return a.planRows()
}

// byColumn sorts one row's (column, value) pairs by column.
type byColumn struct {
	cols []int
	vals []float64
}

func (r byColumn) Len() int           { return len(r.cols) }
func (r byColumn) Less(p, q int) bool { return r.cols[p] < r.cols[q] }
func (r byColumn) Swap(p, q int) {
	r.cols[p], r.cols[q] = r.cols[q], r.cols[p]
	r.vals[p], r.vals[q] = r.vals[q], r.vals[p]
}
