// Package pma implements the uncompressed batch-parallel Packed Memory
// Array of paper §3–4: a sorted array with constant-factor slack, an
// implicit binary tree of density bounds, point updates, cache-friendly
// range maps, and the paper's three-phase parallel batch insert/delete
// (recursive batch merge → work-efficient counting → parallel
// redistribution).
//
// Keys are uint64; the value 0 is reserved as the empty-cell sentinel, as in
// the reference implementation.
package pma

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/pmatree"
)

// Options configures a PMA. The zero value selects the defaults used in the
// paper's evaluation (growing factor 1.2, point updates below batch size
// 100, full rebuild for batches of at least n/10).
type Options struct {
	// GrowthFactor is the multiplicative growing factor applied when the
	// root density bound is violated (paper Appendix C). Must be > 1.
	GrowthFactor float64
	// LeafSize fixes the number of cells per leaf (power of two). 0 selects
	// Θ(log n) automatically on each rebuild.
	LeafSize int
	// PointThreshold is the batch size below which InsertBatch/RemoveBatch
	// fall back to point updates (paper §4: "if k is small, point updates
	// are more efficient").
	PointThreshold int
}

func (o Options) withDefaults() Options {
	if o.GrowthFactor <= 1 {
		o.GrowthFactor = 1.2
	}
	if o.PointThreshold <= 0 {
		o.PointThreshold = 100
	}
	return o
}

// rebuildFraction r makes batches of size >= r*n rebuild the whole
// structure with a two-finger merge (paper §4: k >= n/10).
const rebuildFraction = 0.1

// minCells is the smallest array the PMA shrinks to.
const minCells = 32

// PMA is an uncompressed batch-parallel Packed Memory Array storing a set of
// nonzero uint64 keys in sorted order. Batch operations parallelize
// internally; a PMA supports one writer at a time (batch-parallel, not
// concurrent — paper §2).
type PMA struct {
	cells    []uint64 // leaves*leafSize cells; 0 = empty; leaves packed left
	counts   []int32  // elements per leaf
	overflow [][]uint64
	tree     *pmatree.Tree
	leafLog2 uint
	leaves   int
	n        int
	opt      Options
}

// New returns an empty PMA. opts may be nil for defaults.
func New(opts *Options) *PMA {
	var o Options
	if opts != nil {
		o = *opts
	}
	p := &PMA{opt: o.withDefaults()}
	p.rebuildFrom(nil)
	return p
}

// FromSorted builds a PMA from a sorted, duplicate-free slice of nonzero
// keys. The slice is not retained.
func FromSorted(keys []uint64, opts *Options) *PMA {
	p := New(opts)
	if len(keys) > 0 {
		if keys[0] == 0 {
			panic("pma: key 0 is reserved")
		}
		p.rebuildFrom(keys)
	}
	return p
}

// Len returns the number of keys stored.
func (p *PMA) Len() int { return p.n }

// Capacity returns the total number of cells.
func (p *PMA) Capacity() int { return len(p.cells) }

// LeafSize returns the current number of cells per leaf.
func (p *PMA) LeafSize() int { return 1 << p.leafLog2 }

// Leaves returns the current number of leaves.
func (p *PMA) Leaves() int { return p.leaves }

// SizeBytes returns the memory footprint of the structure: the cell array
// plus per-leaf metadata (the quantity the paper's get_size reports).
func (p *PMA) SizeBytes() uint64 {
	return uint64(8*len(p.cells) + 4*len(p.counts))
}

func (p *PMA) base(leaf int) int    { return leaf << p.leafLog2 }
func (p *PMA) head(leaf int) uint64 { return p.cells[leaf<<p.leafLog2] }
func (p *PMA) leafLen(leaf int) int { return int(p.counts[leaf]) }
func (p *PMA) used(leaf int) int    { return int(p.counts[leaf]) }
func (p *PMA) leafUpperUnits() int  { return p.tree.UpperUnits(pmatree.Node{Level: 0, Index: 0}) }

// autoLeafSize picks a power-of-two leaf size of Θ(log n) cells.
func autoLeafSize(cells int) int {
	ls := int(bitutil.CeilPow2(uint64(bitutil.Max(8, bitutil.Log2Ceil(uint64(cells)+1)))))
	if ls > 256 {
		ls = 256
	}
	return ls
}

// capacityFor grows the capacity by the growing factor until n elements fit
// under the root's upper density bound, mirroring how repeated root
// violations would grow the array.
func (p *PMA) capacityFor(n int) int {
	c := minCells
	upper := pmatree.DefaultBounds().UpperRoot
	for float64(n) > upper*float64(c) {
		next := int(float64(c) * p.opt.GrowthFactor)
		if next <= c {
			next = c + 1
		}
		c = next
	}
	return c
}

// rebuildFrom replaces the whole structure with a fresh array holding the
// given sorted, duplicate-free keys, spread evenly across leaves.
func (p *PMA) rebuildFrom(all []uint64) {
	cellsNeeded := p.capacityFor(len(all))
	leafSize := p.opt.LeafSize
	if leafSize <= 0 {
		leafSize = autoLeafSize(cellsNeeded)
	}
	leafSize = int(bitutil.CeilPow2(uint64(leafSize)))
	leaves := bitutil.Max(1, bitutil.CeilDiv(cellsNeeded, leafSize))
	p.leafLog2 = uint(bitutil.Log2Ceil(uint64(leafSize)))
	p.leaves = leaves
	p.cells = make([]uint64, leaves<<p.leafLog2)
	p.counts = make([]int32, leaves)
	p.overflow = nil
	p.tree = pmatree.New(leaves, leafSize, pmatree.DefaultBounds())
	p.n = len(all)
	p.scatter(all, 0, leaves)
}

// scatter distributes the sorted run evenly over leaves [loLeaf, hiLeaf),
// packing each leaf to the left and zeroing its tail. Counts are updated;
// any overflow buffers in the range are released.
func (p *PMA) scatter(run []uint64, loLeaf, hiLeaf int) {
	nl := hiLeaf - loLeaf
	share := len(run) / nl
	rem := len(run) % nl
	forLeaves(nl, func(i int) {
		leaf := loLeaf + i
		cnt := share
		off := i * share
		if i < rem {
			cnt++
			off += i
		} else {
			off += rem
		}
		base := p.base(leaf)
		copy(p.cells[base:base+cnt], run[off:off+cnt])
		clearCells(p.cells[base+cnt : base+(1<<p.leafLog2)])
		p.counts[leaf] = int32(cnt)
		if p.overflow != nil {
			p.overflow[leaf] = nil
		}
	})
}

func clearCells(c []uint64) {
	for i := range c {
		c[i] = 0
	}
}

// gather packs the elements of leaves [loLeaf, hiLeaf) — including any
// overflow buffers — into a new sorted slice.
func (p *PMA) gather(loLeaf, hiLeaf int) []uint64 {
	nl := hiLeaf - loLeaf
	offsets := make([]int, nl+1)
	for i := 0; i < nl; i++ {
		offsets[i+1] = offsets[i] + p.leafLen(loLeaf+i)
	}
	buf := make([]uint64, offsets[nl])
	forLeaves(nl, func(i int) {
		leaf := loLeaf + i
		dst := buf[offsets[i]:offsets[i+1]]
		if p.overflow != nil && p.overflow[leaf] != nil {
			copy(dst, p.overflow[leaf])
		} else {
			base := p.base(leaf)
			copy(dst, p.cells[base:base+len(dst)])
		}
	})
	return buf
}

// redistribute evens out the occupancy of a planned region.
func (p *PMA) redistribute(r pmatree.Region) {
	run := p.gather(r.LoLeaf, r.HiLeaf)
	p.scatter(run, r.LoLeaf, r.HiLeaf)
}

// CheckInvariants verifies the structural invariants; tests call it after
// every mutation batch. It returns a descriptive error on the first
// violation found.
func (p *PMA) CheckInvariants() error {
	if p.leaves != len(p.counts) || p.leaves<<p.leafLog2 != len(p.cells) {
		return fmt.Errorf("pma: geometry mismatch")
	}
	total := 0
	var prev uint64
	for leaf := 0; leaf < p.leaves; leaf++ {
		cnt := p.leafLen(leaf)
		if cnt < 0 || cnt > p.LeafSize() {
			return fmt.Errorf("pma: leaf %d count %d out of range", leaf, cnt)
		}
		if p.overflow != nil && p.overflow[leaf] != nil {
			return fmt.Errorf("pma: leaf %d has undrained overflow", leaf)
		}
		base := p.base(leaf)
		for i := 0; i < cnt; i++ {
			v := p.cells[base+i]
			if v == 0 {
				return fmt.Errorf("pma: leaf %d cell %d zero within count", leaf, i)
			}
			if v <= prev {
				return fmt.Errorf("pma: order violation at leaf %d cell %d (%d <= %d)", leaf, i, v, prev)
			}
			prev = v
		}
		for i := cnt; i < p.LeafSize(); i++ {
			if p.cells[base+i] != 0 {
				return fmt.Errorf("pma: leaf %d cell %d nonzero past count", leaf, i)
			}
		}
		total += cnt
	}
	if total != p.n {
		return fmt.Errorf("pma: n=%d but leaves hold %d", p.n, total)
	}
	return nil
}
