//go:build !race

package main

const smokeScale = 1
