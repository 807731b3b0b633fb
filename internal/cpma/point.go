package cpma

import (
	"repro/internal/pmatree"
)

// leafForIn returns the last non-empty leaf in [lo, hi] whose head is <= x,
// or -1. The binary search probes uncompressed leaf heads (§5: "the
// uncompressed head allows for efficient searching"), walking left over
// empty leaves, the classic PMA search.
func (c *CPMA) leafForIn(x uint64, lo, hi int) int {
	res := -1
	for lo <= hi {
		mid := int(uint(lo+hi) >> 1)
		j := mid
		h := c.head(j)
		for h == 0 && j > lo {
			j--
			h = c.head(j)
		}
		switch {
		case h == 0:
			lo = mid + 1
		case h <= x:
			res = j
			lo = mid + 1
		default:
			hi = j - 1
		}
	}
	return res
}

// firstNonEmptyIn returns the first non-empty leaf in [lo, hi], or -1.
func (c *CPMA) firstNonEmptyIn(lo, hi int) int {
	for j := lo; j <= hi; j++ {
		if c.head(j) != 0 {
			return j
		}
	}
	return -1
}

// nextHeadIn returns the head of the first non-empty leaf in (leaf, hi];
// ok is false when the rest of the range is empty.
func (c *CPMA) nextHeadIn(leaf, hi int) (h uint64, ok bool) {
	for j := leaf + 1; j <= hi; j++ {
		if h := c.head(j); h != 0 {
			return h, true
		}
	}
	return 0, false
}

// findLeaf locates the leaf a key belongs to for point operations.
// Returns -1 iff the CPMA is empty.
func (c *CPMA) findLeaf(x uint64) int {
	leaf := c.leafForIn(x, 0, c.leaves-1)
	if leaf == -1 {
		leaf = c.firstNonEmptyIn(0, c.leaves-1)
	}
	return leaf
}

// Has reports whether x is in the set.
func (c *CPMA) Has(x uint64) bool {
	if x == 0 || c.n == 0 {
		return false
	}
	return c.leafHas(c.findLeaf(x), x)
}

// Next returns the smallest key >= x (the paper's search operation).
func (c *CPMA) Next(x uint64) (uint64, bool) {
	if c.n == 0 {
		return 0, false
	}
	leaf := c.findLeaf(x)
	if v, _, _, ok := c.leafSeek(leaf, x); ok {
		return v, true
	}
	for j := leaf + 1; j < c.leaves; j++ {
		if h := c.head(j); h != 0 {
			return h, true
		}
	}
	return 0, false
}

// Min returns the smallest key.
func (c *CPMA) Min() (uint64, bool) {
	if c.n == 0 {
		return 0, false
	}
	return c.head(c.firstNonEmptyIn(0, c.leaves-1)), true
}

// Max returns the largest key.
func (c *CPMA) Max() (uint64, bool) {
	if c.n == 0 {
		return 0, false
	}
	for j := c.leaves - 1; j >= 0; j-- {
		if c.head(j) == 0 {
			continue
		}
		var last uint64
		c.leafIter(j, func(v uint64) bool { last = v; return true })
		return last, true
	}
	return 0, false
}

// Insert adds x, returning false if already present. Point inserts follow
// the paper's four steps: search, place, count, redistribute (§3, Figure
// 3); in the compressed format the place step is a single pass over the
// leaf's codes (§5, Figure 6). The count step is the batch counting on the
// one dirty leaf, run only when that leaf breaks its bound.
func (c *CPMA) Insert(x uint64) bool {
	if x == 0 {
		panic("cpma: key 0 is reserved")
	}
	for {
		leaf := c.findLeaf(x)
		if leaf == -1 {
			leaf = 0
		}
		u, fresh := c.leafInsert(leaf, x, c.f.slack)
		if u == noRoom {
			// Not enough slack for the worst-case growth: rebalance first
			// (such a leaf always violates its byte-density bound).
			c.rebalanceLeaves([]int{leaf}, true)
			continue
		}
		if !fresh {
			return false
		}
		c.n++
		if u > c.tree.UpperUnits(pmatree.Node{Level: 0, Index: leaf}) {
			c.rebalanceLeaves([]int{leaf}, true)
		}
		return true
	}
}

// Remove deletes x, returning false if absent. Like Insert, it counts and
// redistributes only when the leaf falls below its bound.
func (c *CPMA) Remove(x uint64) bool {
	if x == 0 || c.n == 0 {
		return false
	}
	leaf := c.findLeaf(x)
	u := c.leafRemove(leaf, x)
	if u < 0 {
		return false
	}
	c.n--
	if u < c.tree.LowerUnits(pmatree.Node{Level: 0, Index: leaf}) {
		c.rebalanceLeaves([]int{leaf}, false)
	}
	return true
}
