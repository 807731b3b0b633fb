// Package pmatree implements the implicit binary tree that a Packed Memory
// Array defines over its leaves (paper §3) together with the work-efficient
// parallel counting algorithm for batch updates (paper §4, Figure 5).
//
// The tree is purely arithmetic: a node is a (level, index) pair whose region
// is a contiguous range of leaves. The planner in this package decides which
// regions must be redistributed after a batch merge; internal/cpma, its only
// client, owns the actual data movement. Occupancy is measured in abstract
// "units" (bytes for both of cpma's leaf formats), so the planner knows
// nothing of leaf layout.
package pmatree

import (
	"sort"

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

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return t.leaves }

// LeafCap returns the per-leaf capacity in units.
func (t *Tree) LeafCap() int { return t.leafCap }

// Height returns the height of the implicit tree (0 for a single leaf).
func (t *Tree) Height() int { return t.height }

// Node identifies a region of the implicit tree: level 0 is the leaves, and
// node (l, i) covers leaves [i<<l, min((i+1)<<l, leaves)).
type Node struct {
	Level int
	Index int
}

// Root returns the root node.
func (t *Tree) Root() Node { return Node{Level: t.height, Index: 0} }

// Parent returns the parent of n.
func (t *Tree) Parent(n Node) Node {
	return Node{Level: n.Level + 1, Index: n.Index >> 1}
}

// LeafRange returns the half-open leaf range [lo, hi) covered by n.
func (t *Tree) LeafRange(n Node) (lo, hi int) {
	lo = n.Index << uint(n.Level)
	hi = lo + 1<<uint(n.Level)
	if hi > t.leaves {
		hi = t.leaves
	}
	return lo, hi
}

// Upper returns the maximum allowed density for a node at the given level.
func (t *Tree) Upper(level int) float64 {
	if t.height == 0 {
		return t.bounds.UpperRoot
	}
	frac := float64(level) / float64(t.height)
	return t.bounds.UpperLeaf + (t.bounds.UpperRoot-t.bounds.UpperLeaf)*frac
}

// Lower returns the minimum allowed density for a node at the given level.
func (t *Tree) Lower(level int) float64 {
	if t.height == 0 {
		return t.bounds.LowerRoot
	}
	frac := float64(level) / float64(t.height)
	return t.bounds.LowerLeaf + (t.bounds.LowerRoot-t.bounds.LowerLeaf)*frac
}

// UpperUnits returns the unit budget of node n under its upper bound.
func (t *Tree) UpperUnits(n Node) int {
	lo, hi := t.LeafRange(n)
	return int(t.Upper(n.Level) * float64((hi-lo)*t.leafCap))
}

// LowerUnits returns the minimum units node n may hold under its lower bound.
func (t *Tree) LowerUnits(n Node) int {
	lo, hi := t.LeafRange(n)
	return int(t.Lower(n.Level) * float64((hi-lo)*t.leafCap))
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

// walkUp implements the point-update rebalance walk: starting from a leaf,
// climb until a node within its bounds is found. used must report occupied
// units per leaf. Returns the region to redistribute, or grow/shrink at the
// root. Exposed for the PMA/CPMA point-update paths.
func (t *Tree) WalkUp(used func(leaf int) int, leaf int, checkUpper, checkLower bool) Plan {
	n := Node{Level: 0, Index: leaf}
	// [clo, chi) are the leaves counted so far: each level adds only the
	// leaves its child did not cover, so used runs once per leaf.
	clo, chi, total := leaf, leaf, 0
	for {
		lo, hi := t.LeafRange(n)
		for i := lo; i < clo; i++ {
			total += used(i)
		}
		for i := chi; i < hi; i++ {
			total += used(i)
		}
		clo, chi = lo, hi
		over := checkUpper && total > t.UpperUnits(n)
		under := checkLower && total < t.LowerUnits(n)
		if !over && !under {
			if n.Level == 0 {
				// The touched leaf is already within bounds: nothing to do.
				return Plan{}
			}
			return Plan{Redistribute: []Region{{Node: n, LoLeaf: lo, HiLeaf: hi, Used: total}}}
		}
		if n.Level == t.height {
			return Plan{Grow: over, Shrink: under && !over, RootUsed: total}
		}
		n = t.Parent(n)
	}
}

// Count runs the work-efficient parallel counting algorithm (paper §4).
//
// dirty lists the leaves modified by the batch-merge phase. used reports the
// occupied units of a leaf and may exceed LeafCap for overflowed leaves.
// checkUpper/checkLower select which bound violations escalate (inserts use
// upper, deletes lower; both may be set).
//
// Levels are processed serially from the leaves to the root; all nodes of a
// level are counted in parallel, and every count is cached so no region is
// counted twice (Lemma 2). A node within its bounds that was reached because
// a child violated becomes a redistribution root; nested roots are filtered
// so the returned regions are maximal and disjoint.
func (t *Tree) Count(used func(leaf int) int, dirty []int, checkUpper, checkLower bool) Plan {
	if len(dirty) == 0 {
		return Plan{}
	}
	var plan Plan
	candidates := make(map[Node]Region)

	// cache[l] maps node index -> occupied units for counted nodes at level l.
	cache := make([]map[int]int, t.height+1)
	cache[0] = make(map[int]int, len(dirty))

	// Level 0: count the dirty leaves (in parallel) and find violators.
	leafUsed := make([]int, len(dirty))
	parallel.For(len(dirty), 64, func(i int) {
		leafUsed[i] = used(dirty[i])
	})
	next := make(map[int]bool)
	for i, leaf := range dirty {
		cache[0][leaf] = leafUsed[i]
		over := checkUpper && leafUsed[i] > t.UpperUnits(Node{0, leaf})
		under := checkLower && leafUsed[i] < t.LowerUnits(Node{0, leaf})
		if over || under {
			if t.height == 0 {
				return Plan{Grow: over, Shrink: under && !over, RootUsed: leafUsed[i]}
			}
			next[leaf>>1] = true
		}
	}

	// countRegion sums the units of an uncounted region by scanning its
	// leaves; used exactly once per region thanks to the caches.
	countRegion := func(n Node) int {
		lo, hi := t.LeafRange(n)
		total := 0
		for i := lo; i < hi; i++ {
			total += used(i)
		}
		return total
	}

	for level := 1; level <= t.height && len(next) > 0; level++ {
		nodes := make([]int, 0, len(next))
		for idx := range next {
			nodes = append(nodes, idx)
		}
		sort.Ints(nodes)
		next = make(map[int]bool)
		counts := make([]int, len(nodes))
		prev := cache[level-1]
		parallel.For(len(nodes), 8, func(i int) {
			idx := nodes[i]
			total := 0
			for _, c := range []int{2 * idx, 2*idx + 1} {
				child := Node{level - 1, c}
				clo, chi := t.LeafRange(child)
				if clo >= chi {
					continue // right edge: child has no leaves
				}
				if v, ok := prev[c]; ok {
					total += v
				} else {
					total += countRegion(child)
				}
			}
			counts[i] = total
		})
		cache[level] = make(map[int]int, len(nodes))
		for i, idx := range nodes {
			cache[level][idx] = counts[i]
			n := Node{level, idx}
			over := checkUpper && counts[i] > t.UpperUnits(n)
			under := checkLower && counts[i] < t.LowerUnits(n)
			switch {
			case !over && !under:
				lo, hi := t.LeafRange(n)
				candidates[n] = Region{Node: n, LoLeaf: lo, HiLeaf: hi, Used: counts[i]}
			case level == t.height:
				plan.Grow = over
				plan.Shrink = under && !over
				plan.RootUsed = counts[i]
			default:
				next[idx>>1] = true
			}
		}
	}

	if plan.Grow || plan.Shrink {
		// A rebuild supersedes every regional redistribution.
		return Plan{Grow: plan.Grow, Shrink: plan.Shrink, RootUsed: plan.RootUsed}
	}

	// Keep only maximal candidates: drop any whose ancestor is also chosen.
	for n, r := range candidates {
		covered := false
		for a := t.Parent(n); a.Level <= t.height; a = t.Parent(a) {
			if _, ok := candidates[a]; ok {
				covered = true
				break
			}
			if a.Level == t.height {
				break
			}
		}
		if !covered {
			plan.Redistribute = append(plan.Redistribute, r)
		}
	}
	sort.Slice(plan.Redistribute, func(i, j int) bool {
		return plan.Redistribute[i].LoLeaf < plan.Redistribute[j].LoLeaf
	})
	return plan
}
