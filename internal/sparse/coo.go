package sparse

import (
	"fmt"
	"math"
	"slices"
)

// COO is a coordinate-format builder for sparse matrices. Entries may be
// added in any order; duplicates are summed when converting to CSR, matching
// the conventions of the Matrix Market format and of finite-element assembly.
// ToCSR consumes the builder: the CSR is made inside its arrays, and it is
// left empty.
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

// wideInt reports that int holds 64 bits, so that ColIdx can carry a
// float64's bits while ToCSR places the values by scatter.
const wideInt = math.MaxInt == math.MaxInt64

// ToCSR converts the accumulated entries to CSR form, sorting each row's
// columns ascending and summing duplicate coordinates in the order they
// were added. It consumes c: the conversion runs inside the builder's
// arrays and leaves c empty, so that a later Add starts a new matrix and
// cannot reach the CSR. Linear in the entry count whatever the row lengths
// (plus the dimensions): a stable counting sort by column, then one by row,
// then the values placed by two independent scatters where int holds 64
// bits — each value's bits to ColIdx at its place, then each column's to
// the value array at its place, swapped back while compacting — and along
// the permutation's cycles where it holds 32 (toCSRByCycles). Either way
// the CSR is the same to the bit. At its peak it holds 24 bytes an entry,
// the builder's 16 and ColIdx's 8. Val is the builder's value array unless
// it holds no entry or more than an eighth of it would lie past the CSR's
// entries (append's growth, or repeats summed away); then Val is a copy of
// exactly the entries, empty and not nil when there are none.
func (c *COO) ToCSR() *CSR {
	if !wideInt {
		return c.toCSRByCycles()
	}
	a, at, cols, vals := c.places()
	// Every value is read before a column lands on one: the two scatters
	// are independent stores, where a cycle is a chain of dependent loads.
	for k, p := range at {
		a.ColIdx[p] = int(math.Float64bits(vals[k]))
	}
	for k, p := range at {
		vals[p] = math.Float64frombits(uint64(cols[k]))
	}
	// Each RowPtr[i] now ends row i's bucket. Compact left to right,
	// swapping each column and value back and summing a row's repeated
	// columns in arrival order; w never passes the reads.
	w, start := 0, 0
	for i, end := range a.RowPtr[:c.rows] {
		a.RowPtr[i] = w
		for p, last := start, -1; p < end; p++ {
			j, v := int(math.Float64bits(vals[p])), math.Float64frombits(uint64(a.ColIdx[p]))
			if j == last {
				vals[w-1] += v
			} else {
				a.ColIdx[w], vals[w], last = j, v, j
				w++
			}
		}
		start = end
	}
	return a.keep(vals, w)
}

// toCSRByCycles is ToCSR where int holds 32 bits, and the reference its
// scatter path is tested against on every host: the columns go to ColIdx
// at their places and the values move to theirs along the permutation's
// cycles, in the builder's value array.
func (c *COO) toCSRByCycles() *CSR {
	a, at, cols, vals := c.places()
	for k, p := range at {
		a.ColIdx[p] = int(cols[k])
	}
	// vals[k]'s place is at[k]. Follow each cycle of the permutation from
	// its first entry, carrying a value to its place and picking up the one
	// there; a settled place names itself, so every value moves once.
	for k, p := range at {
		if int(p) == k {
			continue
		}
		x := vals[k]
		for int(p) != k {
			x, vals[p] = vals[p], x
			p, at[p] = at[p], p
		}
		vals[k] = x
	}
	// Each RowPtr[i] now ends row i's bucket. Compact left to right, summing
	// a row's repeated columns in arrival order; w never passes the reads.
	w, start := 0, 0
	for i, end := range a.RowPtr[:c.rows] {
		a.RowPtr[i] = w
		for p := start; p < end; p++ {
			if p > start && a.ColIdx[p] == a.ColIdx[p-1] {
				vals[w-1] += vals[p]
			} else {
				a.ColIdx[w], vals[w] = a.ColIdx[p], vals[p]
				w++
			}
		}
		start = end
	}
	return a.keep(vals, w)
}

// places empties c and sorts its entries stably by column, then by row: it
// returns the CSR with RowPtr[i] ending row i's bucket and ColIdx room for
// every entry, and the builder's arrays, its row array now each entry's
// place in the buckets.
func (c *COO) places() (a *CSR, at, cols []int32, vals []float64) {
	n := len(c.v)
	if n > math.MaxInt32 {
		panic("sparse: more COO entries than ToCSR's int32 positions count")
	}
	at, cols, vals = c.i, c.j, c.v
	c.i, c.j, c.v = nil, nil, nil
	// colAt[j+1] counts column j; summed, colAt[j] is column j's next
	// position. RowPtr does the same for the rows.
	colAt := make([]int32, c.cols+1)
	a = &CSR{Rows: c.rows, Cols: c.cols, RowPtr: make([]int, c.rows+1), ColIdx: make([]int, n)}
	for k, j := range cols {
		colAt[j+1]++
		a.RowPtr[at[k]+1]++
	}
	for j := 0; j < c.cols; j++ {
		colAt[j+1] += colAt[j]
	}
	for i := 0; i < c.rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	// Until it is filled, ColIdx[q] is entry q of the column order. Walking
	// it, each entry takes its row's next position: at[k], entry k's row
	// until then, becomes its place in the CSR.
	for k, j := range cols {
		a.ColIdx[colAt[j]] = k
		colAt[j]++
	}
	for _, k := range a.ColIdx {
		p := &a.RowPtr[at[k]]
		at[k] = int32(*p)
		*p++
	}
	return a, at, cols, vals
}

// keep ends a conversion that has compacted its w entries into a.ColIdx
// and vals and started every row in a.RowPtr: Val is vals unless the slack
// rule copies it, and the CSR is planned.
func (a *CSR) keep(vals []float64, w int) *CSR {
	a.RowPtr[a.Rows] = w
	a.ColIdx, a.Val = a.ColIdx[:w], vals[:w]
	if w == 0 || cap(vals)-w > w/8 {
		a.Val = make([]float64, w)
		copy(a.Val, vals)
	}
	return a.planRows()
}
