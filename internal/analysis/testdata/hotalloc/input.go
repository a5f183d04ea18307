// Package hotalloccase seeds hot-path allocation positives (plus exempt,
// cold and suppressed counterparts) for the hotalloc golden test.
package hotalloccase

import "fmt"

type ws struct {
	buf []float64
}

// sink has an interface parameter, so passing a non-constant concrete
// value to it boxes.
func sink(v any) { _ = v }

var boxed any

func sum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

// helper is reached from the hot loop below, so its allocation counts
// against the steady-state budget.
func helper(n int) []float64 {
	return make([]float64, n)
}

// grow is the exempt workspace idiom: the make is guarded by a cap
// comparison, so it reaches a high-water mark once.
func (w *ws) grow(n int) {
	if cap(w.buf) < n {
		w.buf = make([]float64, n)
	}
	w.buf = w.buf[:n]
}

func steady(xs []float64, label string, iters int) float64 {
	w := &ws{} // not hot: allocated once, before the loop
	acc := 0.0
	//hot:cold recovery closure, runs only after a detection
	rollback := func() []float64 { return make([]float64, 9) }
	//hot:loop steady-state accumulation
	for i := 0; i < iters; i++ {
		w.grow(len(xs))        // reachable; its make is cap-guarded and passes
		tmp := helper(len(xs)) // helper becomes hot; its make is flagged there
		acc += sum(tmp)
		fresh := append(tmp, acc) // flagged: append into a fresh slice
		_ = fresh
		tmp = append(tmp, acc) // exempt: amortized self-append
		pair := []float64{acc, acc}
		_ = pair
		m := map[int]float64{1: acc}
		_ = m
		p := &ws{}
		_ = p
		v := ws{} // exempt: value struct literal stays on the stack
		_ = v
		f := func() float64 { return acc } // flagged: capturing closure
		acc += f()
		msg := "iter " + label // flagged: non-constant string concatenation
		_ = msg
		raw := []byte(label) // flagged: string-to-bytes conversion copies
		_ = raw
		back := string(raw) // flagged: bytes-to-string conversion copies
		_ = back
		_ = fmt.Sprintf("acc = %v", acc) // flagged: fmt call
		sink(acc)                        // flagged: argument boxing
		sink("constant")                 // exempt: constant boxing interns
		boxed = acc                      // flagged: assignment boxing
		_ = rollback()                   // cold-defined closure is never followed
		//hot:cold error reporting rides the failure budget
		if acc < 0 {
			panic(fmt.Sprintf("impossible %v", acc))
		}
	}
	//hot:loop suppressed-case loop
	for i := 0; i < iters; i++ {
		//lint:ignore hotalloc deliberate scratch, pinned by an alloc benchmark
		scratch := make([]float64, 1)
		acc += scratch[0]
	}
	return acc
}

// render is a whole-function hot region: every iteration of every stream
// calls it, and its self-appends are the sanctioned amortized form.
//
//hot:loop rendering helper on the event path
func render(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		dst = append(dst, s[i])
	}
	dst = append(dst, '\n')
	return dst
}

// probe returns its argument boxed — a per-call allocation.
//
//hot:loop probe on the verification path
func probe(x float64) any {
	return x
}

//hot:bogus not a directive the model knows
func stray() {}

// Interface dispatch is the analysis boundary: the call graph is static,
// so a hot region that reaches a method through an interface value does not
// make the method hot. bareStep's make below is therefore NOT reported —
// which is exactly why every implementation of an interface called from a
// hot loop (the solver backends' operation verbs, the recurrence steps, the
// guard hooks in internal/core) must carry its own //hot:loop, as
// markedStep does.
type stepper interface{ step(n int) []float64 }

type bareStep struct{}

func (bareStep) step(n int) []float64 { return make([]float64, n) } // missed: not annotated, reached only dynamically

type markedStep struct{}

//hot:loop recurrence step behind the stepper interface
func (markedStep) step(n int) []float64 { return make([]float64, n) } // flagged through its own annotation

func drive(s stepper, iters int) float64 {
	acc := 0.0
	//hot:loop driver loop dispatching through an interface
	for i := 0; i < iters; i++ {
		acc += sum(s.step(i))
	}
	return acc
}
