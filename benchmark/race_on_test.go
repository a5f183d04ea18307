//go:build race

package main

// smokeScale lengthens the smoke test's phases under the race detector,
// which slows a job tenfold: a phase must still hold a few jobs of every arm.
const smokeScale = 6
