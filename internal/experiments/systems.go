// Package experiments implements one reusable driver per table and figure
// of the paper's evaluation (§1, §4, §5, §6, Appendices B–C). The
// cmd/cpma-bench and cmd/fgraph-bench binaries and the root bench_test.go
// all call into this package, so the scaled-down benchmark defaults and the
// full-scale command-line runs share one code path.
package experiments

import (
	"fmt"

	"repro/internal/cpma"
	"repro/internal/pactree"
	"repro/internal/pma"
	"repro/internal/ptree"
	"repro/internal/rma"
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
	return SetMaker{Name: "PMA", New: func() Set { return pma.New(nil) }}
}

// CPMAMaker returns the CPMA.
func CPMAMaker() SetMaker {
	return SetMaker{Name: "CPMA", New: func() Set { return cpma.New(nil) }}
}

// PTreeMaker returns the P-tree (PAM) baseline.
func PTreeMaker() SetMaker {
	return SetMaker{Name: "P-tree", New: func() Set { return ptreeSet{ptree.New()} }}
}

// UPaCMaker returns the uncompressed PaC-tree baseline.
func UPaCMaker() SetMaker {
	return SetMaker{Name: "U-PaC", New: func() Set { return pactree.New(&pactree.Options{Compressed: false}) }}
}

// CPaCMaker returns the compressed PaC-tree baseline.
func CPaCMaker() SetMaker {
	return SetMaker{Name: "C-PaC", New: func() Set { return pactree.New(&pactree.Options{Compressed: true}) }}
}

// ShardedMaker returns the concurrent sharded CPMA front-end at a given
// shard count. It is not part of AllSetMakers (the paper's tables compare
// single-writer structures); ComparisonSetMakers, the shards experiments,
// and ad-hoc comparisons use it. Through the blocking Set interface its
// batches are ticketed (enqueue + wait), so it measures the pipeline's
// overhead, not its coalescing win — ShardAsyncIngest measures that.
// Drivers close the returned sets (closeSet) to stop the writer
// goroutines.
func ShardedMaker(shards int) SetMaker {
	return SetMaker{
		Name: fmt.Sprintf("Shard-%d", shards),
		New:  func() Set { return shard.New(shards, nil) },
	}
}

// AllSetMakers returns the five systems in the paper's column order.
func AllSetMakers() []SetMaker {
	return []SetMaker{PMAMaker(), CPMAMaker(), UPaCMaker(), CPaCMaker(), PTreeMaker()}
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

// ptreeSet adapts ptree.Tree, which lacks RangeSum's exact signature set.
type ptreeSet struct{ *ptree.Tree }

func (p ptreeSet) RangeSum(start, end uint64) (uint64, int) { return p.Tree.RangeSum(start, end) }

// RMASet adapts the serial RMA baseline (insert-only; Table 4).
type RMASet struct{ *rma.RMA }

// NewRMASet returns a fresh RMA.
func NewRMASet() RMASet { return RMASet{rma.New(0)} }
