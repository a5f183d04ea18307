//go:build purego

package hotalloccase

func leaf128(u *[128]float64) float64 { return sum(u[:]) }
