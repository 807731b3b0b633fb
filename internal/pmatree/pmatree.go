// Package pmatree implements the implicit binary tree that a Packed Memory
// Array defines over its leaves (paper §3) together with the work-efficient
// parallel counting algorithm for batch updates (paper §4, Figure 5).
//
// The tree is purely arithmetic: a node is a (level, index) pair whose region
// is a contiguous range of leaves. Count, the one planner in this package,
// decides which regions must be redistributed after a batch update; a
// point update is a one-key batch there, so its climb up the tree (§3) is
// the counting algorithm on a single dirty leaf. internal/cpma, its only
// client, owns the actual data movement. Occupancy is measured in abstract
// "units" (bytes for both of cpma's leaf formats), so the planner knows
// nothing of leaf layout.
package pmatree

import (
	"cmp"
	"slices"

	"repro/internal/bitutil"
	"repro/internal/parallel"
)

// Bounds holds the density thresholds at the two ends of the implicit tree.
// Upper bounds tighten toward the root (growth pressure), lower bounds
// tighten toward the root as well (shrink pressure); intermediate levels are
// linearly interpolated, following the classic PMA analysis [16, 50].
type Bounds struct {
	UpperLeaf float64 // max density allowed in a leaf (level 0)
	UpperRoot float64 // max density allowed at the root
	LowerLeaf float64 // min density allowed in a leaf
	LowerRoot float64 // min density allowed at the root
}

// DefaultBounds are the thresholds used across the repository: leaves may
// fill to 0.9 (the paper's examples use a 0.9 leaf bound), the root to 0.7;
// deletions keep the root at least 0.3 full and leaves at least 0.1.
func DefaultBounds() Bounds {
	return Bounds{UpperLeaf: 0.9, UpperRoot: 0.7, LowerLeaf: 0.1, LowerRoot: 0.3}
}

// Tree is the implicit PMA tree over a fixed number of leaves, each with a
// fixed capacity in units. It is immutable; PMA resizes build a new Tree.
type Tree struct {
	leaves  int
	leafCap int
	height  int
	bounds  Bounds
}

// New returns the implicit tree for the given leaf count and per-leaf
// capacity. leaves may be any positive number (growth factors other than 2
// produce non-power-of-two leaf counts); right-edge nodes simply cover fewer
// leaves.
func New(leaves, leafCap int, b Bounds) *Tree {
	if leaves < 1 || leafCap < 1 {
		panic("pmatree: leaves and leafCap must be positive")
	}
	return &Tree{
		leaves:  leaves,
		leafCap: leafCap,
		height:  bitutil.Log2Ceil(uint64(leaves)),
		bounds:  b,
	}
}

// Node identifies a region of the implicit tree: level 0 is the leaves, and
// node (l, i) covers leaves [i<<l, min((i+1)<<l, leaves)).
type Node struct {
	Level int
	Index int
}

// leafRange returns the half-open leaf range [lo, hi) covered by n.
func (t *Tree) leafRange(n Node) (lo, hi int) {
	lo = n.Index << uint(n.Level)
	hi = lo + 1<<uint(n.Level)
	if hi > t.leaves {
		hi = t.leaves
	}
	return lo, hi
}

// upper returns the maximum allowed density for a node at the given level.
func (t *Tree) upper(level int) float64 {
	if t.height == 0 {
		return t.bounds.UpperRoot
	}
	frac := float64(level) / float64(t.height)
	return t.bounds.UpperLeaf + (t.bounds.UpperRoot-t.bounds.UpperLeaf)*frac
}

// lower returns the minimum allowed density for a node at the given level.
func (t *Tree) lower(level int) float64 {
	if t.height == 0 {
		return t.bounds.LowerRoot
	}
	frac := float64(level) / float64(t.height)
	return t.bounds.LowerLeaf + (t.bounds.LowerRoot-t.bounds.LowerLeaf)*frac
}

// upperUnits returns the unit budget of node n under its upper bound.
func (t *Tree) upperUnits(n Node) int {
	lo, hi := t.leafRange(n)
	return int(t.upper(n.Level) * float64((hi-lo)*t.leafCap))
}

// lowerUnits returns the minimum units node n may hold under its lower bound.
func (t *Tree) lowerUnits(n Node) int {
	lo, hi := t.leafRange(n)
	return int(t.lower(n.Level) * float64((hi-lo)*t.leafCap))
}

// Region is a planner result: a maximal node whose covered leaves must be
// redistributed, along with its cached occupancy.
type Region struct {
	Node
	LoLeaf int // first covered leaf
	HiLeaf int // one past the last covered leaf
	Used   int // total occupied units across the covered leaves
}

// Plan is the outcome of the counting phase.
type Plan struct {
	// Redistribute lists the maximal in-bound ancestors whose regions must
	// be redistributed. Regions are disjoint.
	Redistribute []Region
	// Grow is set when the root violates its upper bound: the structure must
	// be rebuilt at a larger capacity.
	Grow bool
	// Shrink is set when the root violates its lower bound.
	Shrink bool
	// RootUsed is the total occupied units; only valid when Grow or Shrink
	// is set or when the root itself was counted.
	RootUsed int
}

// Count runs the work-efficient parallel counting algorithm (paper §4).
//
// dirty lists, ascending, the leaves modified by the batch-merge phase
// (one leaf for a point update). used reports the occupied units of a
// leaf and may exceed the leaf capacity for overflowed leaves.
// checkUpper/checkLower select which bound violations escalate (inserts
// use upper, deletes lower; both may be set). When no dirty leaf violates, Count returns an
// empty plan without allocating.
//
// Levels are processed serially from the leaves to the root. The dirty
// leaves are counted serially, as the update knows their sizes; the nodes
// of every level above are counted in parallel, and each level's counts
// are kept for the next, so no region is counted twice (Lemma 2). A node
// within its bounds that was reached because a child violated becomes a
// redistribution root; nested roots are filtered so the returned regions
// are maximal and disjoint.
func (t *Tree) Count(used func(leaf int) int, dirty []int, checkUpper, checkLower bool) Plan {
	// Most batches leave every dirty leaf in bounds: find that out before
	// allocating anything.
	first, firstUsed := t.FirstViolator(used, dirty, checkUpper, checkLower)
	if first < 0 {
		return Plan{}
	}
	// Level 0: the dirty leaves from the first violator on. The leaves
	// before it are in bounds, and a parent that needs them counts them.
	cur := make([]counted, 1, len(dirty)-first)
	cur[0] = counted{dirty[first], firstUsed}
	for _, leaf := range dirty[first+1:] {
		cur = append(cur, counted{leaf, used(leaf)})
	}
	var candidates []Region
	var next []counted
	for level := 0; len(cur) > 0; level++ {
		// The parents of this level's violators, ascending and distinct,
		// are the next level's nodes. A node above the leaves that is
		// within its bounds is a candidate region.
		next = next[:0]
		for _, c := range cur {
			n := Node{level, c.index}
			over := checkUpper && c.units > t.upperUnits(n)
			under := checkLower && c.units < t.lowerUnits(n)
			switch {
			case !over && !under:
				if level > 0 {
					lo, hi := t.leafRange(n)
					candidates = append(candidates, Region{Node: n, LoLeaf: lo, HiLeaf: hi, Used: c.units})
				}
			case level == t.height:
				// A rebuild supersedes every regional redistribution.
				return Plan{Grow: over, Shrink: under && !over, RootUsed: c.units}
			case len(next) == 0 || next[len(next)-1].index != c.index>>1:
				next = append(next, counted{index: c.index >> 1})
			}
		}
		// Count them: a child counted at this level is cached, and the
		// other is summed leaf by leaf, so no region is counted twice.
		parallel.For(len(next), 8, func(i int) {
			for child := 2 * next[i].index; child <= 2*next[i].index+1; child++ {
				if j, ok := slices.BinarySearchFunc(cur, child, byIndex); ok {
					next[i].units += cur[j].units
					continue
				}
				lo, hi := t.leafRange(Node{level, child}) // empty past the right edge
				for leaf := lo; leaf < hi; leaf++ {
					next[i].units += used(leaf)
				}
			}
		})
		cur, next = next, cur
	}

	// Keep the maximal candidates. Regions of the tree nest or are
	// disjoint, so in order of first leaf, ancestors first, each one lies
	// inside the last one kept or starts past its end.
	slices.SortFunc(candidates, func(a, b Region) int {
		return cmp.Or(cmp.Compare(a.LoLeaf, b.LoLeaf), cmp.Compare(b.Level, a.Level))
	})
	var plan Plan
	end := 0
	for _, r := range candidates {
		if r.LoLeaf >= end {
			plan.Redistribute = append(plan.Redistribute, r)
			end = r.HiLeaf
		}
	}
	return plan
}

// counted is a node of one level of the count and its occupied units.
type counted struct{ index, units int }

func byIndex(c counted, index int) int { return cmp.Compare(c.index, index) }

// FirstViolator returns the index in dirty of the first leaf that breaks
// the bound selected, and its units, or -1. It keeps no reference to
// used, so a caller can check a dirty list with a method value for free,
// and build Count's callback, which escapes, only when there is something
// to plan.
func (t *Tree) FirstViolator(used func(leaf int) int, dirty []int, checkUpper, checkLower bool) (int, int) {
	for i, leaf := range dirty {
		u := used(leaf)
		if checkUpper && u > t.upperUnits(Node{0, leaf}) || checkLower && u < t.lowerUnits(Node{0, leaf}) {
			return i, u
		}
	}
	return -1, 0
}
