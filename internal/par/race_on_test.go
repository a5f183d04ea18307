//go:build race

package par

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count tests skip under it: the race runtime's own shadow
// state would be counted with the solver's.
const raceEnabled = true
