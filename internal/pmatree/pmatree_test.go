package pmatree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLeafRange(t *testing.T) {
	tr := New(10, 8, DefaultBounds())
	cases := []struct {
		node           Node
		wantLo, wantHi int
	}{
		{Node{0, 0}, 0, 1},
		{Node{0, 9}, 9, 10},
		{Node{1, 0}, 0, 2},
		{Node{1, 4}, 8, 10},
		{Node{2, 2}, 8, 10}, // right edge truncation
		{Node{3, 1}, 8, 10}, // deeper truncation
		{Node{4, 0}, 0, 10}, // root covers everything
	}
	for _, c := range cases {
		lo, hi := tr.leafRange(c.node)
		if lo != c.wantLo || hi != c.wantHi {
			t.Errorf("leafRange(%v) = [%d,%d), want [%d,%d)", c.node, lo, hi, c.wantLo, c.wantHi)
		}
	}
	if tr.height != 4 {
		t.Errorf("height = %d, want 4", tr.height)
	}
}

func TestBoundsMonotone(t *testing.T) {
	tr := New(1024, 32, DefaultBounds())
	for l := 1; l <= tr.height; l++ {
		if tr.upper(l) > tr.upper(l-1) {
			t.Errorf("upper not non-increasing at level %d", l)
		}
		if tr.lower(l) < tr.lower(l-1) {
			t.Errorf("lower not non-decreasing at level %d", l)
		}
	}
	if tr.upper(0) != 0.9 || tr.upper(tr.height) != 0.7 {
		t.Errorf("endpoint bounds wrong: %f %f", tr.upper(0), tr.upper(tr.height))
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr := New(1, 16, DefaultBounds())
	if tr.height != 0 {
		t.Fatalf("height = %d", tr.height)
	}
	used := func(int) int { return 14 } // density 0.875 > UpperRoot 0.7
	plan := tr.Count(used, []int{0}, true, false)
	if !plan.Grow {
		t.Fatal("expected Grow for over-full single leaf")
	}
	used = func(int) int { return 8 }
	plan = tr.Count(used, []int{0}, true, false)
	if plan.Grow || len(plan.Redistribute) != 0 {
		t.Fatalf("expected empty plan, got %+v", plan)
	}
}

func TestCountEscalatesToInBoundAncestor(t *testing.T) {
	// 8 leaves of capacity 10. Leaf 3 is overfull; its sibling region has
	// plenty of space, so the parent (level 1, index 1) should be the
	// redistribution root.
	tr := New(8, 10, DefaultBounds())
	occ := []int{5, 5, 5, 10, 5, 5, 5, 5}
	plan := tr.Count(func(i int) int { return occ[i] }, []int{3}, true, false)
	if plan.Grow || plan.Shrink {
		t.Fatalf("unexpected grow/shrink: %+v", plan)
	}
	if len(plan.Redistribute) != 1 {
		t.Fatalf("want 1 region, got %+v", plan.Redistribute)
	}
	r := plan.Redistribute[0]
	if r.Level != 1 || r.Index != 1 || r.LoLeaf != 2 || r.HiLeaf != 4 || r.Used != 15 {
		t.Fatalf("bad region %+v", r)
	}
}

func TestCountOverflowedLeafEscalatesFurther(t *testing.T) {
	// Leaf 3 overflowed to 25 units (capacity 10): level-1 node (2,3) holds
	// 30/20 units — violating. Level-2 node (leaves 0-3) holds 40/40 > bound.
	// Root (leaves 0-7) holds 60/80 = 0.75 > 0.7 -> grow.
	tr := New(8, 10, DefaultBounds())
	occ := []int{5, 5, 5, 25, 5, 5, 5, 5}
	plan := tr.Count(func(i int) int { return occ[i] }, []int{3}, true, false)
	if !plan.Grow {
		t.Fatalf("expected grow, got %+v", plan)
	}
	if plan.RootUsed != 60 {
		t.Fatalf("RootUsed = %d, want 60", plan.RootUsed)
	}
}

func TestCountLowerBoundShrink(t *testing.T) {
	tr := New(8, 10, DefaultBounds())
	occ := []int{1, 0, 0, 0, 0, 0, 0, 0}
	plan := tr.Count(func(i int) int { return occ[i] }, []int{0, 1, 2, 3}, false, true)
	if !plan.Shrink {
		t.Fatalf("expected shrink, got %+v", plan)
	}
}

func TestCountMergesSiblingViolations(t *testing.T) {
	// Two violating leaves under the same grandparent produce one maximal
	// region, not two nested/overlapping ones.
	tr := New(16, 10, DefaultBounds())
	occ := make([]int, 16)
	for i := range occ {
		occ[i] = 2
	}
	occ[4], occ[5] = 10, 10 // both leaves of node (1,2) violate
	plan := tr.Count(func(i int) int { return occ[i] }, []int{4, 5}, true, false)
	if len(plan.Redistribute) != 1 {
		t.Fatalf("want one region, got %+v", plan.Redistribute)
	}
	r := plan.Redistribute[0]
	if r.LoLeaf > 4 || r.HiLeaf < 6 {
		t.Fatalf("region %+v does not cover both dirty leaves", r)
	}
	// Verify the region is in bounds at its own level.
	if r.Used > tr.upperUnits(r.Node) {
		t.Fatalf("chosen region violates its own bound: %+v", r)
	}
}

func TestCountRegionsDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		leaves := 3 + r.Intn(60)
		cap := 8 + r.Intn(64)
		tr := New(leaves, cap, DefaultBounds())
		occ := make([]int, leaves)
		for i := range occ {
			occ[i] = r.Intn(cap + 1)
		}
		var dirty []int
		for i := 0; i < leaves; i++ {
			if r.Intn(3) == 0 {
				occ[i] = cap + r.Intn(cap) // simulate overflow
				dirty = append(dirty, i)
			}
		}
		if len(dirty) == 0 {
			dirty = []int{0}
		}
		plan := tr.Count(func(i int) int { return occ[i] }, dirty, true, false)
		if plan.Grow || plan.Shrink {
			return true
		}
		// regions must be sorted, disjoint, and within their own bounds
		last := -1
		for _, reg := range plan.Redistribute {
			if reg.LoLeaf <= last {
				return false
			}
			if reg.Used > tr.upperUnits(reg.Node) {
				return false
			}
			sum := 0
			for i := reg.LoLeaf; i < reg.HiLeaf; i++ {
				sum += occ[i]
			}
			if sum != reg.Used {
				return false
			}
			last = reg.HiLeaf - 1
		}
		// every overflowed dirty leaf must be covered by some region
		for _, d := range dirty {
			if occ[d] <= int(tr.upper(0)*float64(cap)) {
				continue
			}
			covered := false
			for _, reg := range plan.Redistribute {
				if d >= reg.LoLeaf && d < reg.HiLeaf {
					covered = true
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The TestWalkUp tests pin the point update's climb up the tree (§3): Count
// on a one-leaf dirty list.

func TestWalkUpMatchesPointSemantics(t *testing.T) {
	tr := New(8, 10, DefaultBounds())
	occ := []int{5, 5, 5, 10, 5, 5, 5, 5}
	plan := tr.Count(func(i int) int { return occ[i] }, []int{3}, true, false)
	if len(plan.Redistribute) != 1 {
		t.Fatalf("want one region, got %+v", plan)
	}
	r := plan.Redistribute[0]
	if r.LoLeaf != 2 || r.HiLeaf != 4 {
		t.Fatalf("bad region %+v", r)
	}
	// An in-bounds leaf yields an empty plan.
	plan = tr.Count(func(i int) int { return occ[i] }, []int{0}, true, false)
	if len(plan.Redistribute) != 0 || plan.Grow || plan.Shrink {
		t.Fatalf("expected empty plan, got %+v", plan)
	}
}

func TestWalkUpGrowAtRoot(t *testing.T) {
	tr := New(4, 10, DefaultBounds())
	occ := []int{10, 10, 10, 10}
	plan := tr.Count(func(i int) int { return occ[i] }, []int{1}, true, false)
	if !plan.Grow || plan.RootUsed != 40 {
		t.Fatalf("expected grow with RootUsed 40, got %+v", plan)
	}
}

func TestWalkUpShrink(t *testing.T) {
	tr := New(4, 10, DefaultBounds())
	occ := []int{0, 1, 0, 0}
	plan := tr.Count(func(i int) int { return occ[i] }, []int{0}, false, true)
	if !plan.Shrink {
		t.Fatalf("expected shrink, got %+v", plan)
	}
}

// TestWalkUpCountsEachLeafOnce: a climb that reaches the root on a
// non-power-of-two tree asks for each leaf's units once, and still sums
// them all.
func TestWalkUpCountsEachLeafOnce(t *testing.T) {
	tr := New(11, 10, DefaultBounds())
	calls := make([]int, 11)
	plan := tr.Count(func(i int) int { calls[i]++; return 10 }, []int{6}, true, false)
	if !plan.Grow || plan.RootUsed != 110 {
		t.Fatalf("expected grow with RootUsed 110, got %+v", plan)
	}
	for i, n := range calls {
		if n != 1 {
			t.Fatalf("leaf %d counted %d times", i, n)
		}
	}
}
