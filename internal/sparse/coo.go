package sparse

import (
	"fmt"
	"math"
	"slices"
)

// COO is a coordinate-format builder for sparse matrices. Entries may be
// added in any order; duplicates are summed when converting to CSR, matching
// the conventions of the Matrix Market format and of finite-element assembly.
type COO struct {
	rows, cols int
	i, j       []int32 // an int32 coordinate: a third less memory an entry than int
	v          []float64
}

// NewCOO returns an empty COO builder for an rows×cols matrix. Either
// dimension negative or above math.MaxInt32 panics.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		panic("sparse: COO dimensions negative or above MaxInt32")
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
	c.i = append(c.i, int32(i))
	c.j = append(c.j, int32(j))
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

// ToCSR converts the accumulated entries to CSR form, sorting each row's
// columns ascending and summing duplicate coordinates in the order they
// were added; c is left as it was. Linear in the entry count whatever the
// row lengths (plus the dimensions): a stable counting sort by column, then
// one by row.
func (c *COO) ToCSR() *CSR {
	n := len(c.v)
	if n > math.MaxInt32 {
		panic("sparse: more COO entries than ToCSR's int32 permutation counts")
	}
	// byCol[q] is entry q of the column order. colAt[j+1] counts column j;
	// summed, colAt[j] is column j's next position. RowPtr does the same
	// for the rows.
	scratch := make([]int32, n+c.cols+1)
	byCol, colAt := scratch[:n], scratch[n:]
	a := &CSR{Rows: c.rows, Cols: c.cols, RowPtr: make([]int, c.rows+1)}
	for k, j := range c.j {
		colAt[j+1]++
		a.RowPtr[c.i[k]+1]++
	}
	for j := 0; j < c.cols; j++ {
		colAt[j+1] += colAt[j]
	}
	for i := 0; i < c.rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	for k, j := range c.j {
		byCol[colAt[j]] = int32(k)
		colAt[j]++
	}
	cols, vals := make([]int, n), make([]float64, n)
	for _, k := range byCol {
		p := &a.RowPtr[c.i[k]]
		cols[*p], vals[*p] = int(c.j[k]), c.v[k]
		*p++
	}
	// Each RowPtr[i] now ends row i's bucket. Compact left to right, summing
	// a row's repeated columns in arrival order; w never passes the reads.
	w, start := 0, 0
	for i, end := range a.RowPtr[:c.rows] {
		a.RowPtr[i] = w
		for p := start; p < end; p++ {
			if p > start && cols[p] == cols[p-1] {
				vals[w-1] += vals[p]
			} else {
				cols[w], vals[w] = cols[p], vals[p]
				w++
			}
		}
		start = end
	}
	a.RowPtr[c.rows] = w
	a.ColIdx, a.Val = cols[:w], vals[:w]
	return a.planRows()
}
