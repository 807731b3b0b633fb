// Package rma implements the serial comparator of paper Table 4: a PMA with
// the Rewired-Memory-Array-style batch insert of De Leo & Boncz [31] —
// sorted batch applied by local merges, one leaf segment at a time, with a
// fresh root-to-leaf search per segment and an immediate uncached rebalance
// walk whenever a leaf fills.
//
// The actual RMA's memory-rewiring trick is an OS-level optimization
// orthogonal to the batch algorithm and unavailable in pure Go; what
// Table 4 isolates — and what this package reproduces — is the algorithmic
// gap: no work sharing between segments and no skipped redistribution
// levels, which is exactly what the paper's batch algorithm adds.
package rma

import (
	"fmt"
	"slices"

	"repro/internal/bitutil"
	"repro/internal/pmatree"
)

const minCells = 32

// RMA is a serial packed memory array supporting point updates and the
// segment-wise serial batch insert described above.
type RMA struct {
	cells    []uint64
	counts   []int32
	tree     *pmatree.Tree
	leafLog2 uint
	leaves   int
	n        int
	growth   float64
}

// New returns an empty RMA with the given growing factor (<=1 selects 1.2).
func New(growth float64) *RMA {
	if growth <= 1 {
		growth = 1.2
	}
	r := &RMA{growth: growth}
	r.rebuildFrom(nil)
	return r
}

// Len returns the number of stored keys.
func (r *RMA) Len() int { return r.n }

func (r *RMA) leafSize() int        { return 1 << r.leafLog2 }
func (r *RMA) base(leaf int) int    { return leaf << r.leafLog2 }
func (r *RMA) head(leaf int) uint64 { return r.cells[leaf<<r.leafLog2] }
func (r *RMA) used(leaf int) int    { return int(r.counts[leaf]) }

func (r *RMA) rebuildFrom(all []uint64) {
	bounds := pmatree.DefaultBounds()
	cells := minCells
	for float64(len(all)) > bounds.UpperRoot*float64(cells) {
		next := int(float64(cells) * r.growth)
		if next <= cells {
			next = cells + 1
		}
		cells = next
	}
	ls := int(bitutil.CeilPow2(uint64(bitutil.Max(8, bitutil.Log2Ceil(uint64(cells)+1)))))
	if ls > 256 {
		ls = 256
	}
	leaves := bitutil.Max(1, bitutil.CeilDiv(cells, ls))
	r.leafLog2 = uint(bitutil.Log2Ceil(uint64(ls)))
	r.leaves = leaves
	r.cells = make([]uint64, leaves<<r.leafLog2)
	r.counts = make([]int32, leaves)
	r.tree = pmatree.New(leaves, ls, bounds)
	r.n = len(all)
	r.scatter(all, 0, leaves)
}

func (r *RMA) scatter(run []uint64, loLeaf, hiLeaf int) {
	nl := hiLeaf - loLeaf
	share := len(run) / nl
	rem := len(run) % nl
	off := 0
	for i := 0; i < nl; i++ {
		cnt := share
		if i < rem {
			cnt++
		}
		base := r.base(loLeaf + i)
		copy(r.cells[base:base+cnt], run[off:off+cnt])
		for j := cnt; j < r.leafSize(); j++ {
			r.cells[base+j] = 0
		}
		r.counts[loLeaf+i] = int32(cnt)
		off += cnt
	}
}

func (r *RMA) gather(loLeaf, hiLeaf int) []uint64 {
	out := make([]uint64, 0, r.n)
	for leaf := loLeaf; leaf < hiLeaf; leaf++ {
		base := r.base(leaf)
		out = append(out, r.cells[base:base+r.used(leaf)]...)
	}
	return out
}

// findLeaf returns the leaf x belongs to (see cpma.findLeaf), or -1 if empty.
func (r *RMA) findLeaf(x uint64) int {
	res := -1
	lo, hi := 0, r.leaves-1
	for lo <= hi {
		mid := int(uint(lo+hi) >> 1)
		j := mid
		for j >= lo && r.head(j) == 0 {
			j--
		}
		if j < lo {
			lo = mid + 1
			continue
		}
		if r.head(j) <= x {
			res = j
			lo = mid + 1
		} else {
			hi = j - 1
		}
	}
	if res == -1 {
		for j := 0; j < r.leaves; j++ {
			if r.head(j) != 0 {
				return j
			}
		}
	}
	return res
}

func (r *RMA) searchLeaf(leaf int, x uint64) (int, bool) {
	base := r.base(leaf)
	lo, hi := 0, r.used(leaf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch v := r.cells[base+mid]; {
		case v < x:
			lo = mid + 1
		case v > x:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Has reports membership.
func (r *RMA) Has(x uint64) bool {
	if x == 0 || r.n == 0 {
		return false
	}
	_, found := r.searchLeaf(r.findLeaf(x), x)
	return found
}

// Insert adds one key serially.
func (r *RMA) Insert(x uint64) bool {
	if x == 0 {
		panic("rma: key 0 is reserved")
	}
	for {
		leaf := r.findLeaf(x)
		if leaf == -1 {
			leaf = 0
		}
		pos, found := r.searchLeaf(leaf, x)
		if found {
			return false
		}
		cnt := r.used(leaf)
		if cnt == r.leafSize() {
			r.rebalance(leaf)
			continue
		}
		base := r.base(leaf)
		copy(r.cells[base+pos+1:base+cnt+1], r.cells[base+pos:base+cnt])
		r.cells[base+pos] = x
		r.counts[leaf] = int32(cnt + 1)
		r.n++
		if cnt+1 > r.tree.UpperUnits(pmatree.Node{Level: 0, Index: leaf}) {
			r.rebalance(leaf)
		}
		return true
	}
}

// rebalance is the uncached walk-up redistribution of point inserts.
func (r *RMA) rebalance(leaf int) {
	plan := r.tree.WalkUp(r.used, leaf, true, false)
	if plan.Grow {
		r.rebuildFrom(r.gather(0, r.leaves))
		return
	}
	for _, reg := range plan.Redistribute {
		run := r.gather(reg.LoLeaf, reg.HiLeaf)
		r.scatter(run, reg.LoLeaf, reg.HiLeaf)
	}
}

// InsertBatch applies a batch with RMA-style serial local merges: each
// outer iteration re-searches the target leaf from the root, merges the
// segment of the batch that fits, and rebalances immediately — no shared
// searches, no counting cache, no skipped levels.
func (r *RMA) InsertBatch(keys []uint64, sorted bool) int {
	if len(keys) == 0 {
		return 0
	}
	batch := slices.Clone(keys)
	if !sorted {
		slices.Sort(batch)
	}
	batch = slices.Compact(batch)
	if batch[0] == 0 {
		panic("rma: key 0 is reserved")
	}
	if r.n == 0 {
		r.rebuildFrom(batch)
		return len(batch)
	}
	added := 0
	i := 0
	for i < len(batch) {
		leaf := r.findLeaf(batch[i])
		if leaf == -1 {
			leaf = 0
		}
		// Extent of the batch destined for this leaf under the current
		// layout: everything below the next non-empty leaf head.
		bound := ^uint64(0)
		for j := leaf + 1; j < r.leaves; j++ {
			if h := r.head(j); h != 0 {
				bound = h
				break
			}
		}
		j := i
		for j < len(batch) && batch[j] < bound {
			j++
		}
		free := r.leafSize() - r.used(leaf)
		if free == 0 {
			r.rebalance(leaf)
			continue // layout changed; re-search this segment
		}
		take := j - i
		if take > free {
			take = free
		}
		added += r.mergeIntoLeaf(leaf, batch[i:i+take])
		i += take
		if r.used(leaf) > r.tree.UpperUnits(pmatree.Node{Level: 0, Index: leaf}) {
			r.rebalance(leaf)
		}
	}
	return added
}

// mergeIntoLeaf merges a run (all belonging to this leaf's key range, small
// enough to fit) into the leaf, returning the number of new keys.
func (r *RMA) mergeIntoLeaf(leaf int, run []uint64) int {
	base := r.base(leaf)
	cnt := r.used(leaf)
	merged := make([]uint64, 0, cnt+len(run))
	a := r.cells[base : base+cnt]
	i, j := 0, 0
	fresh := 0
	for i < len(a) && j < len(run) {
		switch {
		case a[i] < run[j]:
			merged = append(merged, a[i])
			i++
		case a[i] > run[j]:
			merged = append(merged, run[j])
			j++
			fresh++
		default:
			merged = append(merged, a[i])
			i++
			j++
		}
	}
	merged = append(merged, a[i:]...)
	fresh += len(run) - j
	merged = append(merged, run[j:]...)
	copy(r.cells[base:base+len(merged)], merged)
	for k := len(merged); k < r.leafSize(); k++ {
		r.cells[base+k] = 0
	}
	r.counts[leaf] = int32(len(merged))
	r.n += fresh
	return fresh
}

// Keys returns all keys in ascending order.
func (r *RMA) Keys() []uint64 {
	return r.gather(0, r.leaves)
}

// Sum returns the sum of all keys (serial scan).
func (r *RMA) Sum() uint64 {
	var s uint64
	for leaf := 0; leaf < r.leaves; leaf++ {
		base := r.base(leaf)
		for i := 0; i < r.used(leaf); i++ {
			s += r.cells[base+i]
		}
	}
	return s
}

// CheckInvariants verifies sortedness and counts.
func (r *RMA) CheckInvariants() error {
	total := 0
	var prev uint64
	for leaf := 0; leaf < r.leaves; leaf++ {
		cnt := r.used(leaf)
		base := r.base(leaf)
		for i := 0; i < cnt; i++ {
			v := r.cells[base+i]
			if v == 0 || v <= prev {
				return fmt.Errorf("rma: order violation at leaf %d pos %d", leaf, i)
			}
			prev = v
		}
		for i := cnt; i < r.leafSize(); i++ {
			if r.cells[base+i] != 0 {
				return fmt.Errorf("rma: dirt past count in leaf %d", leaf)
			}
		}
		total += cnt
	}
	if total != r.n {
		return fmt.Errorf("rma: n=%d but leaves hold %d", r.n, total)
	}
	return nil
}
