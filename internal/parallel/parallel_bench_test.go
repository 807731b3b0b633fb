package parallel

import (
	"slices"
	"testing"
)

func benchKeys(n int) []uint64 {
	out := make([]uint64, n)
	x := uint64(88172645463325252)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = x
	}
	return out
}

func BenchmarkMerge1M(b *testing.B) {
	a := benchKeys(1 << 19)
	c := benchKeys(1 << 19)
	slices.Sort(a)
	slices.Sort(c)
	out := make([]uint64, len(a)+len(c))
	b.SetBytes(int64(8 * len(out)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge(a, c, out)
	}
}

func BenchmarkDedupSorted(b *testing.B) {
	a := benchKeys(1 << 20)
	for i := range a {
		a[i] %= 1 << 18 // heavy duplication
	}
	slices.Sort(a)
	b.SetBytes(int64(8 * len(a)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dedupSorted(a)
	}
}

func BenchmarkReduceSum(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReduceSum(1<<20, 0, func(i int) uint64 { return uint64(i) })
	}
}
