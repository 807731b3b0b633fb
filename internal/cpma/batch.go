package cpma

import (
	"sort"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/parallel"
)

// The batch-update algorithm below is identical to the uncompressed PMA's
// (paper §5: "the batch-update algorithm in the CPMA is identical to the
// batch-update algorithm for PMAs described in Section 4") — only the
// per-leaf merge and the redistribution work on byte codes.

const mergeForkGrain = 2048

// InsertBatch inserts a batch of keys, returning how many were new. If
// sorted is false the batch is sorted in a copy first; duplicates within
// the batch are removed either way.
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
	dirty := parallel.NewBitset(c.leaves)
	var removed atomic.Int64
	c.removeRange(batch, 0, c.leaves-1, dirty, &removed)
	c.n -= int(removed.Load())
	if c.Capacity() > minCapacity {
		plan := c.tree.Count(c.usedOf, dirty.Indices(), false, true)
		c.applyPlan(plan)
	}
	return int(removed.Load())
}

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

func (c *CPMA) batchMerge(batch []uint64) int {
	if c.overflow == nil {
		c.overflow = make([][]uint64, c.leaves)
	}
	dirty := parallel.NewBitset(c.leaves)
	var added atomic.Int64

	c.mergeRange(batch, 0, c.leaves-1, dirty, &added)
	c.n += int(added.Load())

	plan := c.tree.Count(c.usedOf, dirty.Indices(), true, false)
	c.applyPlan(plan)
	return int(added.Load())
}

func (c *CPMA) rebuildMerge(batch []uint64) int {
	all := c.gatherElems(0, c.leaves)
	merged, fresh := parallel.MergeDedup(all, batch)
	c.rebuildFrom(merged)
	return fresh
}

// mergeRange mirrors pma.mergeRange; see that implementation for the
// leaf-range ownership argument that makes the recursion lock-free.
func (c *CPMA) mergeRange(batch []uint64, loLeaf, hiLeaf int, dirty *parallel.Bitset, added *atomic.Int64) {
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
		first := c.firstNonEmptyIn(loLeaf, hiLeaf)
		if first == -1 {
			c.mergeLeaf((loLeaf+hiLeaf)/2, batch, dirty, added)
			return
		}
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
		c.mergeLeaf(leaf, sub, dirty, added)
		c.mergeRange(left, loLeaf, leaf-1, dirty, added)
		c.mergeRange(right, leaf+1, hiLeaf, dirty, added)
		return
	}
	parallel.Do3(
		func() { c.mergeLeaf(leaf, sub, dirty, added) },
		func() { c.mergeRange(left, loLeaf, leaf-1, dirty, added) },
		func() { c.mergeRange(right, leaf+1, hiLeaf, dirty, added) },
	)
}

// mergeLeaf merges a sorted batch run into a compressed leaf: decode, merge,
// re-encode if the bytes fit, otherwise keep the merged run out-of-place
// with its encoded size recorded for the counting phase (Figure 4).
func (c *CPMA) mergeLeaf(leaf int, sub []uint64, dirty *parallel.Bitset, added *atomic.Int64) {
	if len(sub) == 0 {
		return
	}
	dirty.Set(leaf)
	ec := c.ecntOf(leaf)
	var merged []uint64
	fresh := 0
	if ec == 0 {
		merged, fresh = sub, len(sub)
	} else {
		cur := codec.DecodeRun(make([]uint64, 0, ec), c.leafData(leaf), c.usedOf(leaf))
		merged, fresh = parallel.MergeDedup(cur, sub)
	}
	size := codec.SizeOfRun(merged)
	if size <= c.LeafBytes() {
		ld := c.leafDataW(leaf)
		w := codec.EncodeRun(ld, merged)
		clearBytes(ld[w:])
	} else {
		// Overflow: the slab is untouched (the counting phase redistributes
		// it later), so only the metadata changes — no unshare needed.
		if ec == 0 {
			merged = append([]uint64(nil), sub...)
		}
		c.overflow[leaf] = merged
	}
	c.setLeafMeta(leaf, int32(size), int32(len(merged)))
	added.Add(int64(fresh))
}

func (c *CPMA) removeRange(batch []uint64, loLeaf, hiLeaf int, dirty *parallel.Bitset, removed *atomic.Int64) {
	if len(batch) == 0 || loLeaf > hiLeaf {
		return
	}
	mid := batch[len(batch)/2]
	leaf := c.leafForIn(mid, loLeaf, hiLeaf)
	var lo, hi int
	if leaf == -1 {
		first := c.firstNonEmptyIn(loLeaf, hiLeaf)
		if first == -1 {
			return
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
		c.removeLeaf(leaf, sub, dirty, removed)
		c.removeRange(left, loLeaf, leaf-1, dirty, removed)
		c.removeRange(right, leaf+1, hiLeaf, dirty, removed)
		return
	}
	parallel.Do3(
		func() { c.removeLeaf(leaf, sub, dirty, removed) },
		func() { c.removeRange(left, loLeaf, leaf-1, dirty, removed) },
		func() { c.removeRange(right, leaf+1, hiLeaf, dirty, removed) },
	)
}

// removeLeaf deletes keys of sub present in the leaf with a two-finger
// difference over the decoded run. Deletion never grows the encoding, so
// the result always re-encodes in place.
func (c *CPMA) removeLeaf(leaf int, sub []uint64, dirty *parallel.Bitset, removed *atomic.Int64) {
	if len(sub) == 0 || c.usedOf(leaf) == 0 {
		return
	}
	cur := codec.DecodeRun(make([]uint64, 0, c.ecntOf(leaf)), c.leafData(leaf), c.usedOf(leaf))
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
	dirty.Set(leaf)
	removed.Add(int64(dropped))
	ld := c.leafDataW(leaf)
	if w == 0 {
		clearBytes(ld[:c.usedOf(leaf)])
		c.setLeafMeta(leaf, 0, 0)
		return
	}
	size := codec.EncodeRun(ld, cur[:w])
	clearBytes(ld[size:c.usedOf(leaf)])
	c.setLeafMeta(leaf, int32(size), int32(w))
}
