// Package checksumguardcase seeds protected-vector write violations (plus
// sanctioned and suppressed counterparts, and malformed directives) for
// the checksumguard golden test.
package checksumguardcase

// axpyInto stands in for the checksum-maintaining vec/kernel/checksum ops:
// calls are the sanctioned write path.
func axpyInto(dst, x []float64, a float64) {
	for i := range dst {
		dst[i] += a * x[i]
	}
}

// tracked pairs a vector with its carried checksum, like core's tracked
// vectors.
type tracked struct {
	data []float64
	s    []float64
}

// solve is a protected iteration, like the solver steps.
//
//hot:protected x r
func solve(x, r []float64, iters int) {
	scratch := make([]float64, len(x))
	for i := 0; i < iters; i++ {
		axpyInto(x, r, 0.5) // sanctioned: writes flow through a call
		x[0] = 1.0          // flagged: raw indexed write
		r[i%len(r)] -= 0.25 // flagged: raw indexed write (op-assign)
		copy(x, scratch)    // flagged: copy into protected
		alias := r[1:]      // flagged: aliasing re-slice
		_ = alias
		ptr := &x[0] // flagged: address escapes the guard
		_ = ptr
		x = scratch             // flagged: direct assignment
		scratch[0] = float64(i) // unprotected scratch is free to write
		//lint:ignore checksumguard checksum is re-anchored on the next line
		r[0] = 0
	}
}

// anchor protects a checksum field, like the engine's operation methods:
// v's checksum fields may only move through calls.
//
//hot:protected v
func anchor(v *tracked, k int, sum float64) {
	v.s[k] = sum // flagged: selector-indexed write to a protected field
}

// deref protects a vector behind a pointer.
//
//hot:protected p
func deref(p *[]float64, get func() []float64) {
	(*p)[0] = 1     // flagged: raw indexed write through the pointer
	(*p)[1:][0] = 2 // flagged: re-slice, and the indexed write through it
	get()[0] = 3    // a call's result is no protected variable
}

// missing has a typo in its protected list.
//
//hot:protected ghost
func missing(q []float64) {
	for i := range q {
		q[i] = 0
	}
}

// empty names no vector.
//
//hot:protected
func empty(q []float64) {
	q[0] = 0
}

func misplaced(q []float64) {
	//hot:protected q
	for i := range q {
		q[i] = 0
	}
}

// stale carries a directive kind that no longer exists.
//
//hot:loop steady-state iteration
func stale(q []float64) {
	q[0] = 0
}
