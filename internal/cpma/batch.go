package cpma

import (
	"sort"

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

// Insert adds x, returning false if already present. A point update is a
// one-key batch: the batch path's per-leaf step runs the paper's point
// insert (§3: search, place, count, redistribute), splicing the key in
// with the single pass of Figure 6 when the leaf has the slack for it. The
// key goes in the set's one-key scratch, so Insert allocates nothing that
// the batch path does not.
func (c *CPMA) Insert(x uint64) bool {
	c.key[0] = x
	return c.InsertBatch(c.key[:], true) == 1
}

// Remove deletes x, returning false if absent. Like Insert, it is a
// one-key batch.
func (c *CPMA) Remove(x uint64) bool {
	if x == 0 {
		return false // never present, and a batch holding it panics
	}
	c.key[0] = x
	return c.RemoveBatch(c.key[:], true) == 1
}

// InsertBatch inserts a batch of keys, returning how many were new. The
// batch goes through parallel.SortedSet: an unsorted one becomes a sorted,
// duplicate-free copy (its repeat filter drops repeats before the sort),
// a sorted one with repeats a deduplicated copy, and a strictly increasing
// one is used as it is, uncopied — no update keeps a batch slice past the
// call (mergeLeaf copies a run it parks). A batch into an empty set builds it,
// a batch of Ω(n) keys runs a full two-finger rebuild merge, and every
// other batch, however small, runs the three-phase
// merge/count/redistribute algorithm.
func (c *CPMA) InsertBatch(keys []uint64, sorted bool) int {
	batch := parallel.SortedSet(keys, sorted)
	switch {
	case len(batch) == 0:
		return 0
	case c.n == 0:
		c.rebuildFrom(batch)
		return len(batch)
	case float64(len(batch)) >= rebuildFraction*float64(c.n):
		return c.rebuildMerge(batch)
	default:
		return c.batchUpdate(batch, true)
	}
}

// RemoveBatch removes a batch of keys, returning how many were present.
// The batch is normalized as InsertBatch's is. Batch deletes are symmetric
// to inserts (§4) but never overflow leaves, and the counting phase checks
// lower density bounds.
func (c *CPMA) RemoveBatch(keys []uint64, sorted bool) int {
	batch := parallel.SortedSet(keys, sorted)
	if len(batch) == 0 || c.n == 0 {
		return 0
	}
	return c.batchUpdate(batch, false)
}

// batchUpdate runs the three phases of the parallel batch insert, or of
// the batch remove if insert is false, and returns how many keys it added
// or removed.
func (c *CPMA) batchUpdate(batch []uint64, insert bool) int {
	c.batchRecords()

	// Phase 1: recursive parallel batch merge (or remove). It lists the
	// leaves it wrote in order, in place of the paper's thread-safe set of
	// modified leaves; each of them took at least one key.
	dirty, changed := c.batchRange(batch, 0, c.leaves-1, insert, c.dirty[:0])
	c.dirty = dirty
	if insert {
		c.n += changed
	} else {
		c.n -= changed
	}

	// Phases 2 and 3: counting, then redistribution (or growth). An
	// overflowed leaf always violates its bound, so the plan covers it with
	// a redistribution region or a rebuild, and gatherElems drains its
	// buffer.
	c.rebalanceLeaves(dirty, insert)
	return changed
}

// InsertBatchRMA inserts a batch the way the Rewired Memory Array of De
// Leo & Boncz (paper [31]) does, the serial comparator of paper Table 4.
// It applies the sorted batch one leaf segment at a time: a fresh search
// for the segment's first key, a merge into that leaf, and at once the
// counting and redistribution for that one leaf, so no search or counting
// work is shared between segments. It returns how many keys were new, and
// leaves the same keys as InsertBatch.
func (c *CPMA) InsertBatchRMA(keys []uint64, sorted bool) int {
	batch := parallel.SortedSet(keys, sorted)
	if len(batch) == 0 {
		return 0
	}
	if c.n == 0 {
		c.rebuildFrom(batch)
		return len(batch)
	}
	added := 0
	dirty := []int{0}
	for len(batch) > 0 {
		// The set is not empty, so findLeaf finds a leaf, and the next
		// head is above batch[0]: every segment takes at least one key.
		leaf := c.findLeaf(batch[0])
		end := len(batch)
		if upper, ok := c.nextHeadIn(leaf, c.leaves-1); ok {
			end = sort.Search(len(batch), func(i int) bool { return batch[i] >= upper })
		}
		c.batchRecords()
		fresh := c.mergeLeaf(leaf, batch[:end])
		c.n += fresh
		added += fresh
		dirty[0] = leaf
		c.rebalanceLeaves(dirty, true)
		batch = batch[end:]
	}
	return added
}

// rebalanceLeaves runs the work-efficient parallel counting over the
// leaves a batch wrote (dirty, ascending), on the sizes it recorded for
// them in c.sizes (or the bytes of a leaf a remove emptied), checking
// upper bounds after inserts and lower ones after removes, and executes
// the plan in parallel. It is the only way an update redistributes.
// Redistribution drops the records of the leaves it rewrites; this drops
// the sizes of the rest. None of those overflowed: an overflowed leaf
// breaks its bound, so the plan rewrote it.
func (c *CPMA) rebalanceLeaves(dirty []int, insert bool) {
	// A minimum-capacity array accepts sparseness.
	if insert || c.Capacity() > c.f.minCapacity() {
		// Count's callback escapes to its parallel loop: build it only for
		// a violation, so an update that breaks no bound allocates nothing.
		if i, _ := c.tree.FirstViolator(c.usedOf, dirty, insert, !insert); i >= 0 {
			c.applyPlan(c.tree.Count(c.usedOf, dirty[i:], insert, !insert))
		}
	}
	if c.sizes != nil { // nil after a rebuild, which dropped them all
		for _, leaf := range dirty {
			c.sizes[leaf] = 0
		}
	}
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

// batchRange implements the recursive phase of both batch updates (paper
// §4): search for the batch median's target leaf within [loLeaf, hiLeaf],
// find the extent of the batch destined for that leaf, then in parallel
// apply that extent to the leaf (mergeLeaf, or removeLeaf if insert is
// false) and recurse on the left and right remainders. It appends the
// leaves it wrote to dirty and returns it with how many keys it added or
// removed.
//
// The dirty list is deterministic: it is ascending and the same at every
// GOMAXPROCS, as a forked call joins its branches' lists as left, self,
// right. Each leaf is applied once, from bytes no other branch writes, so
// the leaves end the same however the branches are scheduled.
//
// The leaf-range bounds guarantee that no search performed by this call
// probes a leaf owned by a concurrently forked apply, so the phase is safe
// without locks.
func (c *CPMA) batchRange(batch []uint64, loLeaf, hiLeaf int, insert bool, dirty []int) ([]int, int) {
	if len(batch) == 0 {
		return dirty, 0
	}
	if loLeaf > hiLeaf {
		panic("cpma: batch elements with no target leaf range")
	}
	mid := len(batch) / 2
	leaf := c.leafForIn(batch[mid], loLeaf, hiLeaf)
	lo, hi := 0, len(batch)
	switch {
	case leaf == -1:
		// No non-empty leaf with head <= the median in range: elements
		// preceding the first head go to that leaf. If the whole range is
		// empty, the parent guaranteed every element sorts between the
		// surrounding leaves, so the run goes to the middle leaf (an insert
		// parks it there; redistribution will spread it).
		if leaf = c.firstNonEmptyIn(loLeaf, hiLeaf); leaf == -1 {
			return c.editLeaf((loLeaf+hiLeaf)/2, batch, insert, dirty)
		}
	case leaf > loLeaf:
		// Elements below this head recurse left; at loLeaf there is no
		// room to, and they belong at the front of the range's first leaf.
		// The median is at or above the head.
		h := c.head(leaf)
		lo = sort.Search(mid, func(i int) bool { return batch[i] >= h })
	}
	// The median is below the next head, so only the elements after it can
	// reach it; a run of one or two keys never reads the next leaf.
	if mid+1 < len(batch) {
		if upper, ok := c.nextHeadIn(leaf, hiLeaf); ok {
			hi = mid + 1 + sort.Search(len(batch)-mid-1, func(i int) bool { return batch[mid+1+i] >= upper })
		}
	}

	sub, left, right := batch[lo:hi], batch[:lo], batch[hi:]
	if len(batch) <= mergeForkGrain {
		var nl, n, nr int
		dirty, nl = c.batchRange(left, loLeaf, leaf-1, insert, dirty)
		dirty, n = c.editLeaf(leaf, sub, insert, dirty)
		dirty, nr = c.batchRange(right, leaf+1, hiLeaf, insert, dirty)
		return dirty, nl + n + nr
	}
	var l, self, r []int
	var nl, n, nr int
	parallel.Do3(
		func() { l, nl = c.batchRange(left, loLeaf, leaf-1, insert, dirty) },
		func() { self, n = c.editLeaf(leaf, sub, insert, nil) },
		func() { r, nr = c.batchRange(right, leaf+1, hiLeaf, insert, nil) },
	)
	return append(append(l, self...), r...), nl + n + nr
}

// editLeaf applies a batch run to a leaf and appends the leaf to dirty if
// that left a batch record: a merge of any keys records the leaf's size,
// a remove only if it removed one. It returns dirty and how many keys
// the run added or removed.
func (c *CPMA) editLeaf(leaf int, sub []uint64, insert bool, dirty []int) ([]int, int) {
	if len(sub) == 0 {
		return dirty, 0
	}
	if insert {
		return append(dirty, leaf), c.mergeLeaf(leaf, sub)
	}
	n := c.removeLeaf(leaf, sub)
	if n > 0 {
		dirty = append(dirty, leaf)
	}
	return dirty, n
}

// inPlaceMerge is the largest run mergeLeaf and removeLeaf splice into or
// out of a leaf key by key with leafInsert and leafRemove, the point
// update's place step (and all of a one-key batch's), instead of decoding
// and re-encoding the leaf.
const inPlaceMerge = 2

// mergeLeaf merges a sorted batch run into a leaf. A run of at most
// inPlaceMerge keys that the leaf has slack for is spliced in place.
// Otherwise: decode, merge, re-encode if the bytes fit, or else keep the
// merged run out-of-place in the overflow buffer (Figure 4). Either way the
// leaf's new encoded size is recorded in c.sizes for the counting phase.
// It returns how many keys of sub were new.
func (c *CPMA) mergeLeaf(leaf int, sub []uint64) int {
	fresh := 0
	// The room asked for the first key covers them all: an insert grows a
	// leaf by at most the slack.
	for len(sub) <= inPlaceMerge && len(sub) > 0 {
		u, ok := c.leafInsert(leaf, sub[0], len(sub)*c.f.slack)
		if u == noRoom {
			break
		}
		if c.sizes[leaf] = int32(u); ok {
			fresh++
		}
		sub = sub[1:]
	}
	if len(sub) == 0 {
		return fresh
	}
	ld := c.leafData(leaf)
	u := c.f.used(ld)
	var merged []uint64
	if u == 0 {
		merged = sub
		fresh += len(sub)
	} else {
		cur := c.f.decode(make([]uint64, 0, c.f.count(ld, u)), ld, u)
		var n int
		merged, n = parallel.MergeDedup(cur, sub)
		fresh += n
	}
	size := c.f.runSize(merged)
	// On overflow the bytes stay put until the counting phase redistributes
	// the leaf, which writes this slab anyway, so unsharing it here copies
	// nothing extra.
	ld = c.leafW(leaf)
	if size <= c.LeafBytes() {
		clearBytes(ld[c.f.encode(ld, merged):])
		merged = nil
	} else if u == 0 {
		merged = append([]uint64(nil), sub...)
	}
	c.sizes[leaf], c.overflow[leaf] = int32(size), merged
	return fresh
}

// removeLeaf deletes the keys of sub present in the leaf. Deletes never
// overflow (paper §6: "deletes do not have to allocate temporary space as
// they will never overflow the PMA leaves"), so, by mergeLeaf's rule, a
// run of at most inPlaceMerge keys is spliced out key by key with
// leafRemove, and a longer one is a two-finger difference over the
// decoded run, which always re-encodes in place. It returns how many keys
// it removed; it writes the leaf and records its size only if that is not
// zero.
func (c *CPMA) removeLeaf(leaf int, sub []uint64) int {
	if len(sub) <= inPlaceMerge {
		dropped := 0
		for _, x := range sub {
			if u := c.leafRemove(leaf, x); u >= 0 {
				c.sizes[leaf] = int32(u) // 0, no record, if the leaf emptied
				dropped++
			}
		}
		return dropped
	}
	ld := c.leafData(leaf)
	u := c.f.used(ld)
	if u == 0 {
		return 0
	}
	cur := c.f.decode(make([]uint64, 0, c.f.count(ld, u)), ld, u)
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
		return 0
	}
	ld = c.leafW(leaf)
	size := 0
	if w > 0 {
		size = c.f.encode(ld, cur[:w])
	}
	clearBytes(ld[size:u])
	c.sizes[leaf] = int32(size) // 0, no record, if the leaf emptied
	return dropped
}
