// Package bitutil provides small bit-twiddling helpers shared by the PMA,
// CPMA, and codec packages.
package bitutil

import "math/bits"

// Log2Ceil returns ceil(log2(v)). Log2Ceil(0) == 0 and Log2Ceil(1) == 0.
func Log2Ceil(v uint64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(v - 1)
}

// CeilPow2 rounds v up to the next power of two. CeilPow2(0) == 1.
func CeilPow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << uint(bits.Len64(v-1))
}

// CeilDiv returns ceil(a/b) for b > 0.
func CeilDiv(a, b int) int {
	return (a + b - 1) / b
}
