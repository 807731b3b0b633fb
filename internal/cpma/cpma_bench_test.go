package cpma

import (
	"testing"

	"repro/internal/workload"
)

// benchFormats runs bench once per leaf format over a set preloaded with n
// uniform 40-bit keys.
func benchFormats(b *testing.B, n int, bench func(b *testing.B, c *CPMA)) {
	for _, f := range formats {
		b.Run(f.name, func(b *testing.B) {
			c := f.new(nil)
			c.InsertBatch(workload.Uniform(workload.NewRNG(1), n, 40), false)
			b.ResetTimer()
			bench(b, c)
		})
	}
}

func BenchmarkPointInsert(b *testing.B) {
	benchFormats(b, 100_000, func(b *testing.B, c *CPMA) {
		r := workload.NewRNG(2)
		for i := 0; i < b.N; i++ {
			c.Insert(1 + r.Uint64()%(1<<40))
		}
	})
}

func BenchmarkPointQuery(b *testing.B) {
	benchFormats(b, 100_000, func(b *testing.B, c *CPMA) {
		r := workload.NewRNG(3)
		for i := 0; i < b.N; i++ {
			c.Has(1 + r.Uint64()%(1<<40))
		}
	})
}

func BenchmarkBatchInsert10k(b *testing.B) {
	r := workload.NewRNG(4)
	batches := make([][]uint64, 32)
	for i := range batches {
		batches[i] = workload.Uniform(r, 10_000, 40)
	}
	benchFormats(b, 100_000, func(b *testing.B, c *CPMA) {
		for i := 0; i < b.N; i++ {
			c.InsertBatch(batches[i%len(batches)], false)
		}
	})
}

func BenchmarkSum(b *testing.B) {
	benchFormats(b, 200_000, func(b *testing.B, c *CPMA) {
		used := 0
		for leaf := 0; leaf < c.Leaves(); leaf++ {
			used += c.usedOf(leaf)
		}
		b.SetBytes(int64(used))
		for i := 0; i < b.N; i++ {
			c.Sum()
		}
	})
}

func BenchmarkRangeSum(b *testing.B) {
	span := uint64(1) << 40 / 100 // ~1% of the key space
	benchFormats(b, 200_000, func(b *testing.B, c *CPMA) {
		r := workload.NewRNG(5)
		for i := 0; i < b.N; i++ {
			lo := 1 + r.Uint64()%(uint64(1)<<40-span)
			c.RangeSum(lo, lo+span)
		}
	})
}

func BenchmarkBuildFromSorted(b *testing.B) {
	keys := workload.Uniform(workload.NewRNG(6), 200_000, 40)
	c := New(nil)
	c.InsertBatch(keys, false)
	sorted := c.Keys()
	for _, f := range formats {
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.fromSorted(sorted, nil)
			}
		})
	}
}
