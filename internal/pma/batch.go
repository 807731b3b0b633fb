package pma

import (
	"sort"
	"sync/atomic"

	"repro/internal/parallel"
)

// mergeForkGrain is the batch size above which the recursive batch merge
// forks its three-way work (leaf merge, left recursion, right recursion).
const mergeForkGrain = 2048

// InsertBatch inserts a batch of keys and returns the number of keys that
// were not already present. If sorted is false the batch is sorted (in a
// copy) first; duplicates inside the batch are removed either way.
//
// This is the paper's parallel batch-insert algorithm (§4): point inserts
// for tiny batches, a full two-finger rebuild merge for huge ones, and the
// three-phase merge/count/redistribute algorithm in between.
func (p *PMA) InsertBatch(keys []uint64, sorted bool) int {
	batch := p.prepareBatch(keys, sorted)
	if len(batch) == 0 {
		return 0
	}
	switch {
	case p.n == 0:
		p.rebuildFrom(batch)
		return len(batch)
	case len(batch) <= p.opt.PointThreshold:
		added := 0
		for _, x := range batch {
			if p.Insert(x) {
				added++
			}
		}
		return added
	case float64(len(batch)) >= rebuildFraction*float64(p.n):
		return p.rebuildMerge(batch)
	default:
		return p.batchMerge(batch)
	}
}

// RemoveBatch removes a batch of keys and returns the number of keys that
// were present. Batch deletes are symmetric to inserts (§4) but never
// overflow leaves, and the counting phase checks lower density bounds.
func (p *PMA) RemoveBatch(keys []uint64, sorted bool) int {
	batch := p.prepareBatch(keys, sorted)
	if len(batch) == 0 || p.n == 0 {
		return 0
	}
	if len(batch) <= p.opt.PointThreshold {
		removed := 0
		for _, x := range batch {
			if p.Remove(x) {
				removed++
			}
		}
		return removed
	}
	dirty := parallel.NewBitset(p.leaves)
	var removed atomic.Int64
	p.removeRange(batch, 0, p.leaves-1, dirty, &removed)
	p.n -= int(removed.Load())
	if len(p.cells) > minCells {
		plan := p.tree.Count(p.used, dirty.Indices(), false, true)
		p.applyPlan(plan)
	}
	return int(removed.Load())
}

// prepareBatch normalizes a batch: sorted, duplicate-free, nonzero keys.
func (p *PMA) prepareBatch(keys []uint64, sorted bool) []uint64 {
	if len(keys) == 0 {
		return nil
	}
	var batch []uint64
	if sorted {
		batch = parallel.DedupSorted(keys)
	} else {
		batch = parallel.DedupSorted(parallel.SortedCopy(keys))
	}
	if len(batch) > 0 && batch[0] == 0 {
		panic("pma: key 0 is reserved")
	}
	return batch
}

// batchMerge runs the three phases of the parallel batch insert.
func (p *PMA) batchMerge(batch []uint64) int {
	if p.overflow == nil {
		p.overflow = make([][]uint64, p.leaves)
	}
	dirty := parallel.NewBitset(p.leaves)
	var added atomic.Int64

	// Phase 1: recursive parallel batch merge.
	p.mergeRange(batch, 0, p.leaves-1, dirty, &added)
	p.n += int(added.Load())

	// Phase 2: work-efficient parallel counting.
	plan := p.tree.Count(p.used, dirty.Indices(), true, false)

	// Phase 3: parallel redistribution (or growth).
	p.applyPlan(plan)
	return int(added.Load())
}

// applyPlan in batch.go context must drain overflow buffers; gather already
// understands them, and the planner guarantees every overflowed leaf is
// covered by a redistribution region or by a rebuild.

// mergeRange implements the recursive batch-merge phase (paper §4): search
// for the batch median's target leaf within [loLeaf, hiLeaf], find the
// extent of the batch destined for that leaf, then in parallel merge that
// extent into the leaf and recurse on the left and right remainders.
//
// The leaf-range bounds guarantee that no search performed by this call
// probes a leaf owned by a concurrently forked merge, so the phase is safe
// without locks.
func (p *PMA) mergeRange(batch []uint64, loLeaf, hiLeaf int, dirty *parallel.Bitset, added *atomic.Int64) {
	if len(batch) == 0 {
		return
	}
	if loLeaf > hiLeaf {
		panic("pma: batch elements with no target leaf range")
	}
	mid := batch[len(batch)/2]
	leaf := p.leafForIn(mid, loLeaf, hiLeaf)
	var lo, hi int
	if leaf == -1 {
		// No non-empty leaf with head <= mid in range.
		first := p.firstNonEmptyIn(loLeaf, hiLeaf)
		if first == -1 {
			// The whole range is empty: the parent guaranteed every batch
			// element sorts between the surrounding leaves, so park the run
			// in the middle leaf; redistribution will spread it.
			p.mergeLeaf((loLeaf+hiLeaf)/2, batch, dirty, added)
			return
		}
		// Elements preceding the first head merge into that leaf.
		leaf = first
		lo = 0
	} else if leaf == loLeaf {
		// No room to recurse left: elements below this head belong at the
		// front of the range's first leaf.
		lo = 0
	} else {
		h := p.head(leaf)
		lo = sort.Search(len(batch), func(i int) bool { return batch[i] >= h })
	}
	upper := p.nextHeadIn(leaf, hiLeaf)
	hi = lo + sort.Search(len(batch)-lo, func(i int) bool { return batch[lo+i] >= upper })

	sub, left, right := batch[lo:hi], batch[:lo], batch[hi:]
	if len(batch) <= mergeForkGrain {
		p.mergeLeaf(leaf, sub, dirty, added)
		p.mergeRange(left, loLeaf, leaf-1, dirty, added)
		p.mergeRange(right, leaf+1, hiLeaf, dirty, added)
		return
	}
	parallel.Do3(
		func() { p.mergeLeaf(leaf, sub, dirty, added) },
		func() { p.mergeRange(left, loLeaf, leaf-1, dirty, added) },
		func() { p.mergeRange(right, leaf+1, hiLeaf, dirty, added) },
	)
}

// mergeLeaf merges a sorted run of batch keys into one leaf. If the merged
// result exceeds the leaf's physical capacity it is kept out-of-place in the
// overflow buffer with its size recorded in the leaf count (paper Figure 4);
// the redistribution phase drains it.
func (p *PMA) mergeLeaf(leaf int, sub []uint64, dirty *parallel.Bitset, added *atomic.Int64) {
	if len(sub) == 0 {
		return
	}
	dirty.Set(leaf)
	base := p.base(leaf)
	cnt := p.leafLen(leaf)
	leafSize := p.LeafSize()
	if cnt == 0 {
		if len(sub) <= leafSize {
			copy(p.cells[base:base+len(sub)], sub)
		} else {
			p.overflow[leaf] = append([]uint64(nil), sub...)
		}
		p.counts[leaf] = int32(len(sub))
		added.Add(int64(len(sub)))
		return
	}
	merged, fresh := parallel.MergeDedup(p.cells[base:base+cnt], sub)
	if len(merged) <= leafSize {
		copy(p.cells[base:base+len(merged)], merged)
		clearCells(p.cells[base+len(merged) : base+leafSize])
	} else {
		p.overflow[leaf] = merged
	}
	p.counts[leaf] = int32(len(merged))
	added.Add(int64(fresh))
}

// rebuildMerge handles batches of size Ω(n): gather everything, two-finger
// merge with the batch in parallel, and rebuild the array (paper §4: "if k
// is large, the optimal algorithm is to rebuild the entire data structure
// with a linear two-finger merge").
func (p *PMA) rebuildMerge(batch []uint64) int {
	all := p.gather(0, p.leaves)
	merged, fresh := parallel.MergeDedup(all, batch)
	p.rebuildFrom(merged)
	return fresh
}

// removeRange is the delete-side analogue of mergeRange.
func (p *PMA) removeRange(batch []uint64, loLeaf, hiLeaf int, dirty *parallel.Bitset, removed *atomic.Int64) {
	if len(batch) == 0 || loLeaf > hiLeaf {
		return
	}
	mid := batch[len(batch)/2]
	leaf := p.leafForIn(mid, loLeaf, hiLeaf)
	var lo, hi int
	if leaf == -1 {
		first := p.firstNonEmptyIn(loLeaf, hiLeaf)
		if first == -1 {
			return // nothing stored in this range, nothing to delete
		}
		leaf = first
		lo = 0
	} else if leaf == loLeaf {
		lo = 0
	} else {
		h := p.head(leaf)
		lo = sort.Search(len(batch), func(i int) bool { return batch[i] >= h })
	}
	upper := p.nextHeadIn(leaf, hiLeaf)
	hi = lo + sort.Search(len(batch)-lo, func(i int) bool { return batch[lo+i] >= upper })

	sub, left, right := batch[lo:hi], batch[:lo], batch[hi:]
	if len(batch) <= mergeForkGrain {
		p.removeLeaf(leaf, sub, dirty, removed)
		p.removeRange(left, loLeaf, leaf-1, dirty, removed)
		p.removeRange(right, leaf+1, hiLeaf, dirty, removed)
		return
	}
	parallel.Do3(
		func() { p.removeLeaf(leaf, sub, dirty, removed) },
		func() { p.removeRange(left, loLeaf, leaf-1, dirty, removed) },
		func() { p.removeRange(right, leaf+1, hiLeaf, dirty, removed) },
	)
}

// removeLeaf deletes the keys of sub present in the leaf with a two-finger
// difference. Deletes never overflow (paper §6: "deletes do not have to
// allocate temporary space as they will never overflow the PMA leaves").
func (p *PMA) removeLeaf(leaf int, sub []uint64, dirty *parallel.Bitset, removed *atomic.Int64) {
	if len(sub) == 0 {
		return
	}
	base := p.base(leaf)
	cnt := p.leafLen(leaf)
	w := 0
	j := 0
	dropped := 0
	for i := 0; i < cnt; i++ {
		v := p.cells[base+i]
		for j < len(sub) && sub[j] < v {
			j++
		}
		if j < len(sub) && sub[j] == v {
			dropped++
			continue
		}
		p.cells[base+w] = v
		w++
	}
	if dropped == 0 {
		return
	}
	clearCells(p.cells[base+w : base+cnt])
	p.counts[leaf] = int32(w)
	dirty.Set(leaf)
	removed.Add(int64(dropped))
}
