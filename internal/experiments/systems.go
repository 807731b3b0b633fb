// Package experiments implements one reusable driver per table and figure
// of the paper's evaluation (§1, §4, §5, §6, Appendices B–C), which the
// cmd/cpma-bench and cmd/fgraph-bench binaries run at configurable scale.
// The root bench_test.go calls none of these drivers: its Benchmarks
// re-implement their measured loops over this package's set and graph
// makers, and its one driver call, in BenchmarkTable1CacheModel, is
// cachesim.Table1. The PMA and CPMA columns, and the RMA comparator of
// Table 4 (cpma.InsertBatchRMA), all run on the one engine in
// internal/cpma.
package experiments

import (
	"fmt"

	"repro/internal/cpma"
	"repro/internal/pactree"
	"repro/internal/ptree"
	"repro/internal/shard"
)

// Set is the uniform face over the five set systems under test.
type Set interface {
	InsertBatch(keys []uint64, sorted bool) int
	RemoveBatch(keys []uint64, sorted bool) int
	RangeSum(start, end uint64) (uint64, int)
	Sum() uint64
	Len() int
	SizeBytes() uint64
}

// SetMaker names a system and constructs fresh instances of it.
type SetMaker struct {
	Name string
	New  func() Set
}

// PMAMaker returns the uncompressed batch-parallel PMA.
func PMAMaker() SetMaker {
	return SetMaker{Name: "PMA", New: func() Set { return cpma.NewUncompressed(nil) }}
}

// CPMAMaker returns the CPMA.
func CPMAMaker() SetMaker {
	return SetMaker{Name: "CPMA", New: func() Set { return cpma.New(nil) }}
}

// ptreeMaker returns the P-tree (PAM) baseline.
func ptreeMaker() SetMaker {
	return SetMaker{Name: "P-tree", New: func() Set { return ptree.New() }}
}

// upacMaker returns the uncompressed PaC-tree baseline.
func upacMaker() SetMaker {
	return SetMaker{Name: "U-PaC", New: func() Set { return pactree.New(&pactree.Options{Compressed: false}) }}
}

// CPaCMaker returns the compressed PaC-tree baseline.
func CPaCMaker() SetMaker {
	return SetMaker{Name: "C-PaC", New: func() Set { return pactree.New(&pactree.Options{Compressed: true}) }}
}

// ShardedMaker returns the concurrent sharded CPMA front-end at a given
// shard count. It is not part of AllSetMakers (the paper's tables compare
// single-writer structures); ComparisonSetMakers and ad-hoc comparisons
// use it. Through the blocking Set interface its batches are ticketed
// (enqueue + wait), so it measures the pipeline's overhead, not its
// coalescing win. Drivers close the returned sets (closeSet) to stop the
// writer goroutines.
func ShardedMaker(shards int) SetMaker {
	return SetMaker{
		Name: fmt.Sprintf("Shard-%d", shards),
		New:  func() Set { return shard.New(shards, nil) },
	}
}

// AllSetMakers returns the five systems in the paper's column order.
func AllSetMakers() []SetMaker {
	return []SetMaker{PMAMaker(), CPMAMaker(), upacMaker(), CPaCMaker(), ptreeMaker()}
}

// ComparisonSetMakers is AllSetMakers plus the sharded front-end at the
// given shard count, for the comparison tables that go beyond the paper's
// single-writer systems.
func ComparisonSetMakers(shards int) []SetMaker {
	return append(AllSetMakers(), ShardedMaker(shards))
}

// closeSet stops a measured system's background goroutines, if it has any
// (sharded sets); drivers call it when a system leaves measurement.
func closeSet(s Set) {
	if c, ok := s.(interface{ Close() }); ok {
		c.Close()
	}
}
