//go:build race

package precond

// raceEnabled reports whether the race detector instruments this build.
// Allocation pins that count bytes or mallocs skip under it: the race
// runtime's own allocations would be counted with the builder's.
const raceEnabled = true
