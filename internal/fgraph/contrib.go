package fgraph

// The §6 vertex index and the three kernels that read it (Degree,
// Neighbors and the PageRank flat scan), shared by the single-CPMA Graph
// and the sharded View.
//
// The flat scan ("PR can be cast as a straightforward pass through the
// data structure") is restated so its result is layout-independent. It
// assigns every vertex's whole run to exactly one task, the one owning the
// leaf where the run starts, which then scans forward across leaf (and
// shard) boundaries until the run ends. Each acc[src] is one sequential
// left-to-right sum in ascending key order, written once: bit-identical to
// a per-vertex Neighbors pull, and therefore identical across leaf sizes,
// shard counts and schedules. The index's cursors already name the leaf
// where each run starts, so ownership costs no pass of its own.

import (
	"sync/atomic"

	"repro/internal/cpma"
	"repro/internal/parallel"
)

// leafSpan presents an ordered sequence of CPMAs as one flat, globally
// numbered leaf array. For the single-CPMA graph the sequence has one
// element; for a view over a range-partitioned snapshot it is the frozen
// shard handles in shard (= key) order, so the concatenated leaves hold
// every edge key in ascending order.
type leafSpan struct {
	sets []*cpma.CPMA
	off  []int // off[i] is the global id of sets[i]'s leaf 0
	n    int   // total leaves
}

func newLeafSpan(sets []*cpma.CPMA) leafSpan {
	off := make([]int, len(sets))
	n := 0
	for i, set := range sets {
		off[i] = n
		n += set.Leaves()
	}
	return leafSpan{sets: sets, off: off, n: n}
}

// locate maps a global leaf id to (set index, local leaf).
func (ls leafSpan) locate(leaf int) (int, int) {
	// Linear from the back: set counts are small (shards), and callers scan
	// forward so the common case is the last set checked.
	i := len(ls.off) - 1
	for ls.off[i] > leaf {
		i--
	}
	return i, leaf - ls.off[i]
}

// leafMap applies f to the keys of global leaf `leaf` in ascending order
// until f returns false.
func (ls leafSpan) leafMap(leaf int, f func(uint64) bool) {
	i, l := ls.locate(leaf)
	ls.sets[i].LeafMapFrom(l, 0, 0, f)
}

const noCursor = ^uint64(0)

// vertexIndex is the per-vertex index of §6 over a leaf span: each
// vertex's degree and a cursor to its first edge key. A cursor packs
// globalLeaf<<32 | the byte offset of the key in its leaf (noCursor marks
// degree-0 vertices), and prev holds the low 32 bits of the key stored
// before it, so a neighbor scan resumes the leaf's walk there
// (cpma.LeafMapFrom) instead of decoding the leaf from its head.
// Destinations are the low 32 bits of a key, so they come out exact. The
// index is immutable once built and safe for concurrent use.
type vertexIndex struct {
	ls      leafSpan
	deg     []int32
	cursors []uint64
	prev    []uint32
}

// buildIndex reconstructs the vertex index over sets with one parallel
// pass: the §6 index rebuild, shared by the single-CPMA graph and the
// sharded view (where the pass covers every frozen shard's leaves under
// one global numbering, so the per-shard builds run in parallel for free).
func buildIndex(sets []*cpma.CPMA, nv int) *vertexIndex {
	ix := &vertexIndex{ls: newLeafSpan(sets), deg: make([]int32, nv), cursors: make([]uint64, nv), prev: make([]uint32, nv)}
	for i := range ix.cursors {
		ix.cursors[i] = noCursor
	}
	parallel.For(ix.ls.n, 4, func(leaf int) {
		var prev uint64
		runSrc := uint32(0)
		runCount := int32(0)
		i, l := ix.ls.locate(leaf)
		ix.ls.sets[i].LeafMapPos(l, func(k uint64, off int) bool {
			src := uint32(k >> 32)
			if off == 0 || src != runSrc {
				if runCount > 0 {
					atomic.AddInt32(&ix.deg[runSrc], runCount)
				}
				runSrc, runCount = src, 0
				cursorMin(&ix.cursors[src], uint64(leaf)<<32|uint64(off))
				if off > 0 {
					// Only the leaf where src's run starts sees it past
					// offset 0, so this write has no rival.
					ix.prev[src] = uint32(prev)
				}
			}
			runCount++
			prev = k
			return true
		})
		if runCount > 0 {
			atomic.AddInt32(&ix.deg[runSrc], runCount)
		}
	})
	return ix
}

func cursorMin(addr *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(addr)
		if v >= old {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, v) {
			return
		}
	}
}

// Degree returns the out-degree of v.
func (ix *vertexIndex) Degree(v uint32) int { return int(ix.deg[v]) }

// Neighbors applies f to the destinations of v's stored edges in ascending
// order until f returns false, walking the leaf span from v's cursor
// (across shard boundaries when v's key range straddles one).
func (ix *vertexIndex) Neighbors(v uint32, f func(u uint32) bool) {
	cur := ix.cursors[v]
	if cur == noCursor {
		return
	}
	leaf, off := int(cur>>32), int(uint32(cur))
	remaining := int(ix.deg[v])
	for l := leaf; remaining > 0 && l < ix.ls.n; l, off = l+1, 0 {
		i, ll := ix.ls.locate(l)
		ix.ls.sets[i].LeafMapFrom(ll, off, uint64(ix.prev[v]), func(k uint64) bool {
			remaining--
			if !f(uint32(k)) {
				remaining = 0
				return false
			}
			return remaining > 0
		})
	}
}

// AccumulateContrib implements graph.ContribScanner with the deterministic
// flat scan: for every source vertex s with at least one stored edge,
// acc[s] = sum of w[dst] over s's edges in ascending key order, written
// exactly once by the task owning the leaf where s's run starts. Entries
// for vertices without edges are not touched.
func (ix *vertexIndex) AccumulateContrib(w, acc []float64) {
	ls := ix.ls
	parallel.For(ls.n, 4, func(leaf int) {
		var curSrc uint32
		sum := 0.0
		active := false   // current run is owned by this task
		skipping := false // leading continuation run, owned by an earlier leaf
		first := true
		ls.leafMap(leaf, func(k uint64) bool {
			src := uint32(k >> 32)
			if first {
				first = false
				curSrc = src
				// A run starts in exactly the leaf its cursor names.
				if int(ix.cursors[src]>>32) != leaf {
					skipping = true
					return true
				}
				active, sum = true, w[uint32(k)]
				return true
			}
			if src == curSrc {
				if !skipping {
					sum += w[uint32(k)]
				}
				return true
			}
			if active {
				acc[curSrc] = sum // run ended inside this leaf
			}
			skipping = false
			active, curSrc, sum = true, src, w[uint32(k)]
			return true
		})
		if !active {
			return // empty leaf, or entirely a continuation run
		}
		// The leaf's last run may continue into the following leaves (and
		// across shard handles); this task owns it to its end.
		for l := leaf + 1; l < ls.n; l++ {
			done := false
			ls.leafMap(l, func(k uint64) bool {
				if uint32(k>>32) != curSrc {
					done = true
					return false
				}
				sum += w[uint32(k)]
				return true
			})
			if done {
				break
			}
		}
		acc[curSrc] = sum
	})
}
