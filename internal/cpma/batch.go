package cpma

import (
	"sort"
	"sync/atomic"

	"repro/internal/parallel"
)

// This is the paper's parallel batch-update algorithm (§4), the same for
// both leaf formats (§5: "the batch-update algorithm in the CPMA is
// identical to the batch-update algorithm for PMAs described in Section
// 4"): only the per-leaf merge and the redistribution go through the
// format.

// mergeForkGrain is the batch size above which the recursive batch merge
// forks its three-way work (leaf merge, left recursion, right recursion).
const mergeForkGrain = 2048

// InsertBatch inserts a batch of keys, returning how many were new. If
// sorted is false the batch is sorted in a copy first; duplicates within
// the batch are removed either way. Tiny batches become point inserts,
// batches of Ω(n) a full two-finger rebuild merge, and the rest run the
// three-phase merge/count/redistribute algorithm.
func (c *CPMA) InsertBatch(keys []uint64, sorted bool) int {
	batch := c.prepareBatch(keys, sorted)
	if len(batch) == 0 {
		return 0
	}
	switch {
	case c.n == 0:
		c.rebuildFrom(batch)
		return len(batch)
	case len(batch) <= c.opt.PointThreshold:
		added := 0
		for _, x := range batch {
			if c.Insert(x) {
				added++
			}
		}
		return added
	case float64(len(batch)) >= rebuildFraction*float64(c.n):
		return c.rebuildMerge(batch)
	default:
		return c.batchMerge(batch)
	}
}

// RemoveBatch removes a batch of keys, returning how many were present.
// Batch deletes are symmetric to inserts (§4) but never overflow leaves,
// and the counting phase checks lower density bounds.
func (c *CPMA) RemoveBatch(keys []uint64, sorted bool) int {
	batch := c.prepareBatch(keys, sorted)
	if len(batch) == 0 || c.n == 0 {
		return 0
	}
	if len(batch) <= c.opt.PointThreshold {
		removed := 0
		for _, x := range batch {
			if c.Remove(x) {
				removed++
			}
		}
		return removed
	}
	touched := parallel.NewBitset(c.leaves)
	var removed atomic.Int64
	c.removeRange(batch, 0, c.leaves-1, touched, &removed)
	c.n -= int(removed.Load())
	if c.Capacity() > c.f.minCapacity() {
		plan := c.tree.Count(c.usedOf, touched.Indices(), false, true)
		c.applyPlan(plan)
	}
	return int(removed.Load())
}

// prepareBatch normalizes a batch: sorted, duplicate-free, nonzero keys.
func (c *CPMA) prepareBatch(keys []uint64, sorted bool) []uint64 {
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
		panic("cpma: key 0 is reserved")
	}
	return batch
}

// batchMerge runs the three phases of the parallel batch insert.
func (c *CPMA) batchMerge(batch []uint64) int {
	if c.overflow == nil {
		c.overflow = make([][]uint64, c.leaves)
	}
	touched := parallel.NewBitset(c.leaves)
	var added atomic.Int64

	// Phase 1: recursive parallel batch merge.
	c.mergeRange(batch, 0, c.leaves-1, touched, &added)
	c.n += int(added.Load())

	// Phase 2: work-efficient parallel counting. An overflowed leaf always
	// violates its bound, so the plan covers it with a redistribution
	// region or a rebuild, and gatherElems drains its buffer.
	plan := c.tree.Count(c.usedOf, touched.Indices(), true, false)

	// Phase 3: parallel redistribution (or growth).
	c.applyPlan(plan)
	return int(added.Load())
}

// rebuildMerge handles batches of size Ω(n): gather everything, two-finger
// merge with the batch in parallel, and rebuild the array (paper §4: "if k
// is large, the optimal algorithm is to rebuild the entire data structure
// with a linear two-finger merge").
func (c *CPMA) rebuildMerge(batch []uint64) int {
	all := c.gatherElems(0, c.leaves)
	merged, fresh := parallel.MergeDedup(all, batch)
	c.rebuildFrom(merged)
	return fresh
}

// mergeRange implements the recursive batch-merge phase (paper §4): search
// for the batch median's target leaf within [loLeaf, hiLeaf], find the
// extent of the batch destined for that leaf, then in parallel merge that
// extent into the leaf and recurse on the left and right remainders.
//
// The leaf-range bounds guarantee that no search performed by this call
// probes a leaf owned by a concurrently forked merge, so the phase is safe
// without locks.
func (c *CPMA) mergeRange(batch []uint64, loLeaf, hiLeaf int, touched *parallel.Bitset, added *atomic.Int64) {
	if len(batch) == 0 {
		return
	}
	if loLeaf > hiLeaf {
		panic("cpma: batch elements with no target leaf range")
	}
	mid := batch[len(batch)/2]
	leaf := c.leafForIn(mid, loLeaf, hiLeaf)
	var lo, hi int
	if leaf == -1 {
		// No non-empty leaf with head <= mid in range.
		first := c.firstNonEmptyIn(loLeaf, hiLeaf)
		if first == -1 {
			// The whole range is empty: the parent guaranteed every batch
			// element sorts between the surrounding leaves, so park the run
			// in the middle leaf; redistribution will spread it.
			c.mergeLeaf((loLeaf+hiLeaf)/2, batch, touched, added)
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
		h := c.head(leaf)
		lo = sort.Search(len(batch), func(i int) bool { return batch[i] >= h })
	}
	upper := c.nextHeadIn(leaf, hiLeaf)
	hi = lo + sort.Search(len(batch)-lo, func(i int) bool { return batch[lo+i] >= upper })

	sub, left, right := batch[lo:hi], batch[:lo], batch[hi:]
	if len(batch) <= mergeForkGrain {
		c.mergeLeaf(leaf, sub, touched, added)
		c.mergeRange(left, loLeaf, leaf-1, touched, added)
		c.mergeRange(right, leaf+1, hiLeaf, touched, added)
		return
	}
	parallel.Do3(
		func() { c.mergeLeaf(leaf, sub, touched, added) },
		func() { c.mergeRange(left, loLeaf, leaf-1, touched, added) },
		func() { c.mergeRange(right, leaf+1, hiLeaf, touched, added) },
	)
}

// inPlaceMerge is the largest run mergeLeaf splices into a leaf key by
// key, as point inserts do, instead of decoding and re-encoding the leaf.
const inPlaceMerge = 2

// mergeLeaf merges a sorted batch run into a leaf. A run of at most
// inPlaceMerge keys that the leaf has slack for is spliced in place.
// Otherwise: decode, merge, re-encode if the bytes fit, or else keep the
// merged run out-of-place in the overflow buffer with its encoded size
// recorded for the counting phase (Figure 4).
func (c *CPMA) mergeLeaf(leaf int, sub []uint64, touched *parallel.Bitset, added *atomic.Int64) {
	if len(sub) == 0 {
		return
	}
	touched.Set(leaf)
	if len(sub) <= inPlaceMerge && c.usedOf(leaf)+len(sub)*c.f.slack <= c.LeafBytes() {
		fresh := 0
		for _, x := range sub {
			if c.leafInsert(leaf, x) {
				fresh++
			}
		}
		added.Add(int64(fresh))
		return
	}
	ec := c.ecntOf(leaf)
	var merged []uint64
	fresh := 0
	if ec == 0 {
		merged, fresh = sub, len(sub)
	} else {
		cur := c.f.decode(make([]uint64, 0, ec), c.leafData(leaf), c.usedOf(leaf))
		merged, fresh = parallel.MergeDedup(cur, sub)
	}
	size := c.f.runSize(merged)
	st := c.leafW(leaf)
	if size <= c.LeafBytes() {
		w := c.f.encode(st.data, merged)
		clearBytes(st.data[w:])
	} else {
		// Overflow: the bytes stay put until the counting phase
		// redistributes the leaf, which writes this slab anyway, so
		// unsharing it here copies nothing extra.
		if ec == 0 {
			merged = append([]uint64(nil), sub...)
		}
		c.overflow[leaf] = merged
	}
	st.used, st.ecnt = int32(size), int32(len(merged))
	added.Add(int64(fresh))
}

// removeRange is the delete-side analogue of mergeRange.
func (c *CPMA) removeRange(batch []uint64, loLeaf, hiLeaf int, touched *parallel.Bitset, removed *atomic.Int64) {
	if len(batch) == 0 || loLeaf > hiLeaf {
		return
	}
	mid := batch[len(batch)/2]
	leaf := c.leafForIn(mid, loLeaf, hiLeaf)
	var lo, hi int
	if leaf == -1 {
		first := c.firstNonEmptyIn(loLeaf, hiLeaf)
		if first == -1 {
			return // nothing stored in this range, nothing to delete
		}
		leaf = first
		lo = 0
	} else if leaf == loLeaf {
		lo = 0
	} else {
		h := c.head(leaf)
		lo = sort.Search(len(batch), func(i int) bool { return batch[i] >= h })
	}
	upper := c.nextHeadIn(leaf, hiLeaf)
	hi = lo + sort.Search(len(batch)-lo, func(i int) bool { return batch[lo+i] >= upper })

	sub, left, right := batch[lo:hi], batch[:lo], batch[hi:]
	if len(batch) <= mergeForkGrain {
		c.removeLeaf(leaf, sub, touched, removed)
		c.removeRange(left, loLeaf, leaf-1, touched, removed)
		c.removeRange(right, leaf+1, hiLeaf, touched, removed)
		return
	}
	parallel.Do3(
		func() { c.removeLeaf(leaf, sub, touched, removed) },
		func() { c.removeRange(left, loLeaf, leaf-1, touched, removed) },
		func() { c.removeRange(right, leaf+1, hiLeaf, touched, removed) },
	)
}

// removeLeaf deletes keys of sub present in the leaf with a two-finger
// difference over the decoded run. Deletes never overflow (paper §6:
// "deletes do not have to allocate temporary space as they will never
// overflow the PMA leaves"): deletion never grows the encoding, so the
// result always re-encodes in place.
func (c *CPMA) removeLeaf(leaf int, sub []uint64, touched *parallel.Bitset, removed *atomic.Int64) {
	if len(sub) == 0 || c.usedOf(leaf) == 0 {
		return
	}
	cur := c.f.decode(make([]uint64, 0, c.ecntOf(leaf)), c.leafData(leaf), c.usedOf(leaf))
	w := 0
	j := 0
	dropped := 0
	for _, v := range cur {
		for j < len(sub) && sub[j] < v {
			j++
		}
		if j < len(sub) && sub[j] == v {
			dropped++
			continue
		}
		cur[w] = v
		w++
	}
	if dropped == 0 {
		return
	}
	touched.Set(leaf)
	removed.Add(int64(dropped))
	st := c.leafW(leaf)
	size := 0
	if w > 0 {
		size = c.f.encode(st.data, cur[:w])
	}
	clearBytes(st.data[size:st.used])
	st.used, st.ecnt = int32(size), int32(w)
}
