// Benchmarks regenerating every table and figure of the paper's evaluation
// at a scale that finishes in seconds, one Benchmark per experiment. The
// cmd/cpma-bench and cmd/fgraph-bench harnesses run the experiment drivers
// of internal/experiments and internal/cachesim at configurable scale and
// print the papers' row format. Of the Benchmarks here only
// BenchmarkTable1CacheModel calls such a driver (cachesim.Table1); the
// others re-implement their measured loops over the set and graph makers
// of internal/experiments.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/cpma"
	"repro/internal/experiments"
	"repro/internal/fgraph"
	"repro/internal/graph"
	"repro/internal/workload"
)

const (
	benchBaseN = 200_000 // structure size before measurement
	benchBits  = workload.UniformBits
)

// prebuilt batches cycled through b.N iterations.
func benchBatches(seed uint64, count, size int, zipf bool) [][]uint64 {
	r := workload.NewRNG(seed)
	var z *workload.Zipf
	if zipf {
		z = workload.NewZipf(r, workload.ZipfBits, workload.ZipfTheta)
	}
	out := make([][]uint64, count)
	for i := range out {
		if zipf {
			out[i] = workload.ZipfBatch(z, size)
		} else {
			out[i] = workload.Uniform(r, size, benchBits)
		}
	}
	return out
}

func baseKeys(seed uint64) []uint64 {
	return workload.Uniform(workload.NewRNG(seed), benchBaseN, benchBits)
}

// benchInsert times batch inserts of one size into one system.
func benchInsert(b *testing.B, mk experiments.SetMaker, bs int, zipf bool) {
	s := mk.New()
	s.InsertBatch(baseKeys(1), false)
	batches := benchBatches(2, 64, bs, zipf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InsertBatch(batches[i%len(batches)], false)
	}
	b.ReportMetric(float64(bs), "inserts/op")
}

// BenchmarkFig1BatchInsert covers Figure 1 / Table 9: uniform batch-insert
// throughput per system and batch size.
func BenchmarkFig1BatchInsert(b *testing.B) {
	for _, mk := range experiments.AllSetMakers() {
		for _, bs := range []int{100, 10_000} {
			b.Run(fmt.Sprintf("%s/bs=%d", mk.Name, bs), func(b *testing.B) {
				benchInsert(b, mk, bs, false)
			})
		}
	}
}

// BenchmarkFig11Zipf covers Figure 11 / Table 13: zipfian batch inserts.
func BenchmarkFig11Zipf(b *testing.B) {
	for _, mk := range experiments.AllSetMakers() {
		b.Run(mk.Name, func(b *testing.B) {
			benchInsert(b, mk, 10_000, true)
		})
	}
}

// BenchmarkFig2RangeQuery covers Figure 2 / Table 10: range-map throughput
// per system and expected range length.
func BenchmarkFig2RangeQuery(b *testing.B) {
	for _, mk := range experiments.AllSetMakers() {
		for _, avgLen := range []int{50, 20_000} {
			b.Run(fmt.Sprintf("%s/len=%d", mk.Name, avgLen), func(b *testing.B) {
				s := mk.New()
				s.InsertBatch(baseKeys(1), false)
				span := uint64(float64(uint64(1)<<benchBits) * float64(avgLen) / float64(benchBaseN))
				r := workload.NewRNG(3)
				b.ResetTimer()
				total := 0
				for i := 0; i < b.N; i++ {
					start := 1 + r.Uint64()%(uint64(1)<<benchBits-span)
					_, cnt := s.RangeSum(start, start+span)
					total += cnt
				}
				b.ReportMetric(float64(total)/float64(b.N), "elems/op")
			})
		}
	}
}

// BenchmarkTable1CacheModel covers Table 1: the simulated cache-miss replay.
func BenchmarkTable1CacheModel(b *testing.B) {
	cfg := cachesim.DefaultConfig()
	cfg.N = 200_000
	cfg.BatchSize = 2_000
	cfg.Batches = 2
	cfg.L3Bytes = 1 << 18
	for i := 0; i < b.N; i++ {
		res := cachesim.Table1(cfg)
		if len(res) != 4 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkTable3SerialVsParallel covers Table 3: the PMA batch-insert
// algorithm on one worker vs all workers.
func BenchmarkTable3SerialVsParallel(b *testing.B) {
	for _, procs := range []int{1, 0} { // 0 = all
		name := "parallel"
		if procs == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			if procs == 1 {
				restore := setProcs(1)
				defer restore()
			}
			p := cpma.NewUncompressed(nil)
			p.InsertBatch(baseKeys(1), false)
			batches := benchBatches(2, 64, 10_000, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.InsertBatch(batches[i%len(batches)], false)
			}
		})
	}
}

// BenchmarkTable4RMA covers Table 4: serial batch inserts on the PMA, the
// RMA-style segment-at-a-time merges vs this paper's algorithm.
func BenchmarkTable4RMA(b *testing.B) {
	for _, algo := range []struct {
		name   string
		insert func(*cpma.CPMA, []uint64, bool) int
	}{
		{"RMA", (*cpma.CPMA).InsertBatchRMA},
		{"PMA", (*cpma.CPMA).InsertBatch},
	} {
		b.Run(algo.name, func(b *testing.B) {
			p := cpma.NewUncompressed(nil)
			p.InsertBatch(baseKeys(1), false)
			batches := benchBatches(2, 64, 10_000, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algo.insert(p, batches[i%len(batches)], false)
			}
		})
	}
}

// BenchmarkTable5Deletes covers Table 5: batch deletes for PMA and CPMA.
func BenchmarkTable5Deletes(b *testing.B) {
	for _, mk := range []experiments.SetMaker{experiments.PMAMaker(), experiments.CPMAMaker()} {
		b.Run(mk.Name, func(b *testing.B) {
			s := mk.New()
			s.InsertBatch(baseKeys(1), false)
			batches := benchBatches(2, 64, 10_000, false)
			for _, batch := range batches {
				s.InsertBatch(batch, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := batches[i%len(batches)]
				s.RemoveBatch(batch, false)
				b.StopTimer()
				s.InsertBatch(batch, false) // restore for the next round
				b.StartTimer()
			}
		})
	}
}

// BenchmarkTable6Space covers Table 6: bytes per element per system.
func BenchmarkTable6Space(b *testing.B) {
	for _, mk := range experiments.AllSetMakers() {
		b.Run(mk.Name, func(b *testing.B) {
			var per float64
			for i := 0; i < b.N; i++ {
				s := mk.New()
				s.InsertBatch(baseKeys(1), false)
				per = float64(s.SizeBytes()) / float64(s.Len())
			}
			b.ReportMetric(per, "bytes/elem")
		})
	}
}

// BenchmarkFig7InsertScaling covers Figure 7 / Table 11 (bounded by the
// host's cores).
func BenchmarkFig7InsertScaling(b *testing.B) {
	for _, procs := range experiments.CoreCounts() {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			restore := setProcs(procs)
			defer restore()
			p := cpma.New(nil)
			p.InsertBatch(baseKeys(1), false)
			batches := benchBatches(2, 64, 10_000, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.InsertBatch(batches[i%len(batches)], false)
			}
		})
	}
}

// BenchmarkFig8RangeScaling covers Figure 8 / Table 12.
func BenchmarkFig8RangeScaling(b *testing.B) {
	s := cpma.New(nil)
	s.InsertBatch(baseKeys(1), false)
	avgLen := 2_000
	span := uint64(float64(uint64(1)<<benchBits) * float64(avgLen) / float64(benchBaseN))
	for _, procs := range experiments.CoreCounts() {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			restore := setProcs(procs)
			defer restore()
			r := workload.NewRNG(5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := 1 + r.Uint64()%(uint64(1)<<benchBits-span)
				s.RangeSum(start, start+span)
			}
		})
	}
}

// BenchmarkAppCGrowingFactor covers Appendix C (Figures 12/13).
func BenchmarkAppCGrowingFactor(b *testing.B) {
	for _, f := range []float64{1.2, 1.5, 2.0} {
		b.Run(fmt.Sprintf("factor=%.1f", f), func(b *testing.B) {
			batches := benchBatches(2, 32, 10_000, false)
			b.ResetTimer()
			var per float64
			for i := 0; i < b.N; i++ {
				c := cpma.New(&cpma.Options{GrowthFactor: f})
				for _, batch := range batches {
					c.InsertBatch(batch, false)
				}
				per = float64(c.SizeBytes()) / float64(c.Len())
			}
			b.ReportMetric(per, "bytes/elem")
		})
	}
}

// --- graph experiments ---

func benchGraph(nv int) []workload.Edge {
	r := workload.NewRNG(9)
	return workload.Symmetrize(workload.RMAT(r, nv*8, log2(nv), workload.DefaultRMAT()))
}

func log2(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}

// BenchmarkFig9GraphAlgos covers Figure 9 / Table 14: PR, CC, BC across the
// three graph systems.
func BenchmarkFig9GraphAlgos(b *testing.B) {
	nv := 1 << 12
	edges := benchGraph(nv)
	for _, mk := range experiments.GraphMakers() {
		g := mk.New(nv, edges)
		for _, algo := range []string{"PR", "CC", "BC"} {
			b.Run(mk.Name+"/"+algo, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if fg, ok := g.(interface{ BuildIndex() }); ok {
						fg.BuildIndex()
					}
					switch algo {
					case "PR":
						graph.PageRank(g, 10)
					case "CC":
						graph.ConnectedComponents(g)
					default:
						graph.BC(g, 0)
					}
				}
			})
		}
	}
}

// BenchmarkFig10GraphInserts covers Figure 10 / Table 15: batch edge
// inserts into a prebuilt graph.
func BenchmarkFig10GraphInserts(b *testing.B) {
	nv := 1 << 12
	edges := benchGraph(nv)
	for _, mk := range experiments.GraphMakers() {
		b.Run(mk.Name, func(b *testing.B) {
			g := mk.New(nv, edges)
			r := workload.NewRNG(11)
			batches := make([][]workload.Edge, 32)
			for i := range batches {
				batches[i] = workload.RMAT(r, 10_000, log2(nv), workload.DefaultRMAT())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.InsertEdges(batches[i%len(batches)])
			}
			b.ReportMetric(10_000, "edges/op")
		})
	}
}

// BenchmarkTable7GraphSpace covers Table 7: graph memory footprint.
func BenchmarkTable7GraphSpace(b *testing.B) {
	nv := 1 << 12
	edges := benchGraph(nv)
	for _, mk := range experiments.GraphMakers() {
		b.Run(mk.Name, func(b *testing.B) {
			var bytes uint64
			for i := 0; i < b.N; i++ {
				g := mk.New(nv, edges)
				bytes = g.SizeBytes()
			}
			b.ReportMetric(float64(bytes)/float64(len(edges)), "bytes/edge")
		})
	}
}

// BenchmarkFGraphIndexBuild isolates F-Graph's vertex-index rebuild, the
// fixed per-algorithm cost §6 discusses.
func BenchmarkFGraphIndexBuild(b *testing.B) {
	nv := 1 << 12
	g := fgraph.FromEdges(nv, benchGraph(nv), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BuildIndex()
	}
}

func setProcs(p int) func() {
	old := runtime.GOMAXPROCS(p)
	return func() { runtime.GOMAXPROCS(old) }
}
