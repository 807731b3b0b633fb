package cpma

import (
	"repro/internal/codec"
	"repro/internal/parallel"
)

// Map applies f to every key in ascending order, stopping early when f
// returns false; reports whether the scan completed.
func (c *CPMA) Map(f func(uint64) bool) bool {
	for leaf := 0; leaf < c.leaves; leaf++ {
		if !c.leafIter(leaf, f) {
			return false
		}
	}
	return true
}

// ParallelMap applies f to every key with leaf-level parallelism; ordering
// is guaranteed only within a leaf. f must be safe for concurrent calls.
func (c *CPMA) ParallelMap(f func(uint64)) {
	forLeaves(c.leaves, func(leaf int) {
		c.leafIter(leaf, func(v uint64) bool { f(v); return true })
	})
}

// MapRange applies f to keys in [start, end) in ascending order — one
// search, then a contiguous decode (paper's range_map). Stops early when f
// returns false, and reports whether it did not.
func (c *CPMA) MapRange(start, end uint64, f func(uint64) bool) bool {
	if c.n == 0 || start >= end {
		return true
	}
	done := true
	c.mapFrom(start, func(v uint64) bool {
		if v >= end {
			return false
		}
		done = f(v)
		return done
	})
	return done
}

// MapRangeLength applies f to at most length keys starting from the first
// key >= start; returns the number visited.
func (c *CPMA) MapRangeLength(start uint64, length int, f func(uint64) bool) int {
	if c.n == 0 || length <= 0 {
		return 0
	}
	visited := 0
	c.mapFrom(start, func(v uint64) bool {
		if !f(v) {
			return false
		}
		visited++
		return visited < length
	})
	return visited
}

// mapFrom applies g to the keys >= start in ascending order until g
// returns false. The set must not be empty.
func (c *CPMA) mapFrom(start uint64, g func(uint64) bool) {
	leaf := c.findLeaf(start)
	if _, off, prev, ok := c.leafSeek(leaf, start); ok && !c.leafIterFrom(leaf, off, prev, g) {
		return
	}
	for leaf++; leaf < c.leaves && c.leafIter(leaf, g); leaf++ {
	}
}

// LeafMap applies f to the keys of one leaf in ascending order until f
// returns false, reporting whether the whole leaf was visited. Combined
// with Leaves it gives clients (notably F-Graph's vertex-index builder)
// leaf-granular parallel access to the flat layout.
func (c *CPMA) LeafMap(leaf int, f func(uint64) bool) bool {
	return c.leafIter(leaf, f)
}

// LeafMapPos is LeafMap that also passes f the byte offset at which each
// key is stored, where LeafMapFrom can resume the walk. It steps the codes
// itself: deriving the offsets in a callback over leafIter (codec.Len of
// each delta) took ~1.4x as long in BenchmarkFGraphIndexBuild, the one
// caller's loop.
func (c *CPMA) LeafMapPos(leaf int, f func(k uint64, off int) bool) bool {
	if c.f.raw {
		off := -8
		return c.leafIter(leaf, func(k uint64) bool { off += 8; return f(k, off) })
	}
	ld := c.leafData(leaf)
	v := codec.Head(ld)
	if v == 0 {
		return true
	}
	if !f(v, 0) {
		return false
	}
	for off := codec.HeadBytes; off < len(ld); {
		d, n := codec.Step(ld, off)
		if d == 0 {
			break
		}
		v += d
		if !f(v, off) {
			return false
		}
		off += n
	}
	return true
}

// LeafMapFrom resumes LeafMap at a byte offset from LeafMapPos: it applies
// f to the leaf's keys stored from off on, where prev is the key stored
// before them, until f returns false. Keys are prev plus their deltas, mod
// 2^64, so a caller that knows only the low bits of prev gets the same
// low bits of every key (F-Graph's neighbor cursors keep 32).
func (c *CPMA) LeafMapFrom(leaf, off int, prev uint64, f func(uint64) bool) bool {
	return c.leafIterFrom(leaf, off, prev, f)
}

// Sum returns the sum (mod 2^64) of all keys with leaf-level parallelism.
func (c *CPMA) Sum() uint64 {
	return parallel.ReduceSum(c.leaves, 4, c.leafSum)
}

// RangeSum sums keys in [start, end).
func (c *CPMA) RangeSum(start, end uint64) (sum uint64, count int) {
	c.MapRange(start, end, func(v uint64) bool {
		sum += v
		count++
		return true
	})
	return sum, count
}

// Keys returns all keys in ascending order; primarily for tests.
func (c *CPMA) Keys() []uint64 {
	out := make([]uint64, 0, c.n)
	c.Map(func(v uint64) bool {
		out = append(out, v)
		return true
	})
	return out
}
