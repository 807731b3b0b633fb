package cpma

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/parallel"
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

// BenchmarkPointInsert inserts uniform 40-bit keys one at a time into a
// set of 100k such keys, and removes each block of 256 inserted keys
// untimed, so every iteration times the same set, give or take a block.
func BenchmarkPointInsert(b *testing.B) {
	benchFormats(b, 100_000, func(b *testing.B, c *CPMA) {
		keys := workload.Uniform(workload.NewRNG(2), 256, 40)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(keys)
			c.Insert(keys[j])
			if j == len(keys)-1 || i == b.N-1 {
				b.StopTimer()
				c.RemoveBatch(keys[:j+1], false)
				b.StartTimer()
			}
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

// BenchmarkBatchInsert10k inserts unsorted batches of 10k uniform 40-bit
// keys into a set of 100k such keys, and removes each batch untimed.
func BenchmarkBatchInsert10k(b *testing.B) {
	r := workload.NewRNG(4)
	batches := make([][]uint64, 32)
	for i := range batches {
		batches[i] = workload.Uniform(r, 10_000, 40)
	}
	benchFormats(b, 100_000, func(b *testing.B, c *CPMA) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch := batches[i%len(batches)]
			c.InsertBatch(batch, false)
			b.StopTimer()
			c.RemoveBatch(batch, false)
			b.StartTimer()
		}
	})
}

// BenchmarkBatchRemove removes sorted batches of present keys, evenly
// spaced over a set of 1M uniform 40-bit keys, and puts each batch back
// untimed: 250 keys is the size snapshot-reads' writer removes per shard.
func BenchmarkBatchRemove(b *testing.B) {
	for _, k := range []int{250, 10_000} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			benchFormats(b, 1_000_000, func(b *testing.B, c *CPMA) {
				keys := c.Keys()
				step := len(keys) / k
				batches := make([][]uint64, min(32, step))
				for i := range batches {
					for j := i; j < len(keys); j += step {
						batches[i] = append(batches[i], keys[j])
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch := batches[i%len(batches)]
					c.RemoveBatch(batch, true)
					b.StopTimer()
					c.InsertBatch(batch, true)
					b.StartTimer()
				}
			})
		})
	}
}

// BenchmarkSmallBatch inserts and then removes sorted batches of k
// uniform 40-bit keys on a compressed set of 1M such keys, as k one-key
// batches (the point arm, a loop of Insert/Remove) and as one k-key
// InsertBatch/RemoveBatch: the amortization of batch updates over point
// updates that the paper's Figure 1 plots, with both arms on the one
// batch path. The cloned arm is the batch arm with a Clone held across
// each of the two batches, as a sharded set publishes one after every
// drain: each batch then writes leaves a published handle shares.
func BenchmarkSmallBatch(b *testing.B) {
	keys := workload.Uniform(workload.NewRNG(1), 1_000_000, 40)
	for _, k := range []int{1, 2, 10, 30, 100, 1000} {
		for _, path := range []string{"point", "batch", "cloned"} {
			b.Run(fmt.Sprintf("%d/%s", k, path), func(b *testing.B) {
				c := New(nil)
				c.InsertBatch(keys, false)
				r := workload.NewRNG(8)
				batches := make([][]uint64, 64)
				for i := range batches {
					batches[i] = parallel.SortedSet(workload.Uniform(r, k, 40), false)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch := batches[i%len(batches)]
					switch path {
					case "batch":
						c.InsertBatch(batch, true)
						c.RemoveBatch(batch, true)
					case "cloned":
						cloneSink = c.Clone()
						c.InsertBatch(batch, true)
						cloneSink = c.Clone()
						c.RemoveBatch(batch, true)
					default:
						for _, x := range batch {
							c.Insert(x)
						}
						for _, x := range batch {
							c.Remove(x)
						}
					}
				}
			})
		}
	}
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

// BenchmarkBuildFromSorted builds a set from n sorted uniform 40-bit keys.
func BenchmarkBuildFromSorted(b *testing.B) {
	for _, n := range []int{200_000, 4_000_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			sorted := parallel.SortedSet(workload.Uniform(workload.NewRNG(6), n, 40), false)
			for _, f := range formats {
				b.Run(f.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						f.fromSorted(sorted, nil)
					}
				})
			}
		})
	}
}

// BenchmarkRebuildMerge applies a sorted batch of k fresh uniform 40-bit
// keys to a set of 1M such keys, built untimed before each iteration, by
// the two algorithms InsertBatch chooses between at k = n/10: the rebuild
// (gather, two-finger merge, rebuild the array) and the three-phase batch
// update.
func BenchmarkRebuildMerge(b *testing.B) {
	base := parallel.SortedSet(workload.Uniform(workload.NewRNG(1), 1_000_000, 40), false)
	for _, k := range []int{100_000, 200_000} {
		batch := parallel.SortedSet(workload.Uniform(workload.NewRNG(9), k, 40), false)
		batch = slices.DeleteFunc(batch, func(x uint64) bool {
			_, found := slices.BinarySearch(base, x)
			return found
		})
		for _, path := range []string{"rebuild", "batch"} {
			for _, f := range formats {
				b.Run(fmt.Sprintf("%d/%s/%s", k, path, f.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						c := f.fromSorted(base, nil)
						b.StartTimer()
						if path == "rebuild" {
							c.rebuildMerge(batch)
						} else {
							c.batchUpdate(batch, true)
						}
					}
				})
			}
		}
	}
}
