package hotalloccase

// leaf128 is backed by assembly on the platform that builds this file:
// the declaration has no body to follow. asm_purego.go declares the
// portable twin under a build tag the default build leaves out, so the
// loader must skip that file or the package does not type-check.
//
//go:noescape
func leaf128(u *[128]float64) float64

// reduce calls the body-less leaf from a hot function; the walk stops at
// the call and still reports what follows it.
//
//hot:loop reduction over assembly-backed leaves
func reduce(u []float64) float64 {
	var s float64
	for len(u) >= 128 {
		s += leaf128((*[128]float64)(u))
		u = u[128:]
	}
	rest := append([]float64{}, u...) // flagged twice: literal, fresh append
	return s + sum(rest)
}
