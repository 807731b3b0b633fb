package cpma

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

// findLeaf locates the leaf a key belongs to, for probes, scans and
// InsertBatchRMA's segments. Returns -1 iff the CPMA is empty.
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
