// Package graph implements the Ligra-style VertexSubset/EdgeMap framework
// [66] and the paper's three evaluation kernels — PageRank, connected
// components, and single-source betweenness centrality (§6) — over a small
// Graph interface that F-Graph, the C-PaC graph, and the Aspen stand-in all
// implement ("all systems run the same algorithms via the Ligra interface").
package graph

import (
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// Graph is the adjacency interface the kernels run against. Graphs are
// undirected and store each edge in both directions.
type Graph interface {
	// NumVertices returns the size of the vertex-id space.
	NumVertices() int
	// NumEdges returns the number of stored (directed) edges.
	NumEdges() int64
	// Degree returns the out-degree of v.
	Degree(v uint32) int
	// Neighbors applies f to the out-neighbors of v in ascending order
	// until f returns false.
	Neighbors(v uint32, f func(u uint32) bool)
}

// ContribScanner is an optional fast path for PageRank-style kernels: one
// flat pass over the stored edges computing, for every source vertex s with
// at least one edge, acc[s] = sum of w[d] over s's neighbors d. F-Graph
// implements it with a single scan of its CPMA (§6: PR "can be cast as a
// straightforward pass through the data structure") and the sharded view
// with one scan per frozen shard.
//
// The contract is deterministic and layout-independent: each acc[s] must be
// the sequential left-to-right sum of w[d] in ascending d order, written
// exactly once (entries for vertices without edges are left untouched).
// That makes the scanner path bit-identical to a per-vertex Neighbors pull
// — and therefore bit-identical across storage layouts, shard counts, and
// schedules — which the streaming-graph differential harness relies on.
// Implementations parallelize by run ownership (one task owns all of a
// vertex's edges) rather than by CAS-merging partial sums, whose grouping
// would depend on leaf boundaries. An implementation may rely on its
// graph's per-vertex index (F-Graph takes run ownership from its cursors):
// PageRank reads every Degree before it scans, so the index is current.
type ContribScanner interface {
	AccumulateContrib(w []float64, acc []float64)
}

// vertexSubset is a Ligra frontier: sparse (vertex list) or dense (bitmap).
type vertexSubset struct {
	n      int
	sparse []uint32 // valid when dense == nil
	dense  []bool
	size   int
}

// newSparse builds a frontier from an explicit vertex list.
func newSparse(n int, vs []uint32) vertexSubset {
	return vertexSubset{n: n, sparse: vs, size: len(vs)}
}

// newDense builds a frontier from a bitmap; size is recomputed.
func newDense(marks []bool) vertexSubset {
	size := 0
	for _, m := range marks {
		if m {
			size++
		}
	}
	return vertexSubset{n: len(marks), dense: marks, size: size}
}

// all returns the full frontier over n vertices.
func all(n int) vertexSubset {
	marks := make([]bool, n)
	for i := range marks {
		marks[i] = true
	}
	return vertexSubset{n: n, dense: marks, size: n}
}

// empty reports whether the frontier has no vertices.
func (f vertexSubset) empty() bool { return f.size == 0 }

// forEach applies fn to every frontier vertex (parallel).
func (f vertexSubset) forEach(fn func(v uint32)) {
	if f.dense != nil {
		parallel.For(f.n, 1024, func(i int) {
			if f.dense[i] {
				fn(uint32(i))
			}
		})
		return
	}
	parallel.For(len(f.sparse), 256, func(i int) { fn(f.sparse[i]) })
}

// toDense materializes the bitmap form.
func (f vertexSubset) toDense() []bool {
	if f.dense != nil {
		return f.dense
	}
	marks := make([]bool, f.n)
	for _, v := range f.sparse {
		marks[v] = true
	}
	return marks
}

// edgeMap is Ligra's edge traversal: from each frontier vertex s, visit
// edges (s, d) with cond(d) true and apply update(s, d); d joins the output
// frontier when update returns true. update must be atomic: it may be
// called concurrently for the same d. Direction (sparse push vs dense pull)
// follows Ligra's threshold heuristic.
func edgeMap(g Graph, frontier vertexSubset, update func(s, d uint32) bool, cond func(d uint32) bool) vertexSubset {
	if denseRound(g, frontier) {
		return edgeMapDense(g, frontier, update, cond)
	}
	return edgeMapSparse(g, frontier, update, cond)
}

// denseRound is Ligra's direction heuristic: a round goes dense when
// |frontier| + out-degree(frontier) > edges/20.
func denseRound(g Graph, frontier vertexSubset) bool {
	var outDeg int64
	frontier.forEach(func(v uint32) {
		atomic.AddInt64(&outDeg, int64(g.Degree(v)))
	})
	return int64(frontier.size)+outDeg > g.NumEdges()/20
}

// edgeMapPush is edgeMap without the pull direction: update runs only
// along stored edges s→d, so it is exact on directed graphs. A frontier
// past the dense threshold walks its bitmap and marks a dense output
// instead of claiming and collecting a sparse list.
func edgeMapPush(g Graph, frontier vertexSubset, update func(s, d uint32) bool) vertexSubset {
	always := func(uint32) bool { return true }
	if !denseRound(g, frontier) {
		return edgeMapSparse(g, frontier, update, always)
	}
	n := g.NumVertices()
	in := frontier.toDense()
	marks := make([]uint32, n)
	parallel.For(n, 64, func(i int) {
		if !in[i] {
			return
		}
		g.Neighbors(uint32(i), func(d uint32) bool {
			if update(uint32(i), d) && atomic.LoadUint32(&marks[d]) == 0 {
				atomic.StoreUint32(&marks[d], 1)
			}
			return true
		})
	})
	out := make([]bool, n)
	parallel.For(n, 2048, func(i int) { out[i] = marks[i] != 0 })
	return newDense(out)
}

// edgeMapDense pulls: every vertex d with cond(d) scans its in-neighbors
// (graphs are symmetric, so out-neighbors) for frontier members.
func edgeMapDense(g Graph, frontier vertexSubset, update func(s, d uint32) bool, cond func(d uint32) bool) vertexSubset {
	n := g.NumVertices()
	in := frontier.toDense()
	out := make([]bool, n)
	parallel.For(n, 64, func(i int) {
		d := uint32(i)
		if !cond(d) {
			return
		}
		g.Neighbors(d, func(s uint32) bool {
			if in[s] && update(s, d) {
				out[d] = true
			}
			return cond(d)
		})
	})
	return newDense(out)
}

// edgeMapSparse pushes from each frontier vertex; output vertices are
// deduplicated with an atomic claim array.
func edgeMapSparse(g Graph, frontier vertexSubset, update func(s, d uint32) bool, cond func(d uint32) bool) vertexSubset {
	n := g.NumVertices()
	claimed := make([]int32, n)
	var mu chunkedAppender
	frontier.forEach(func(s uint32) {
		var local []uint32
		g.Neighbors(s, func(d uint32) bool {
			if cond(d) && update(s, d) {
				if atomic.CompareAndSwapInt32(&claimed[d], 0, 1) {
					local = append(local, d)
				}
			}
			return true
		})
		if len(local) > 0 {
			mu.append(local)
		}
	})
	return newSparse(n, mu.collect())
}

// chunkedAppender gathers per-task slices under a lock; contention is one
// lock acquisition per frontier vertex with output, not per edge.
type chunkedAppender struct {
	mu     sync.Mutex
	chunks [][]uint32
	total  int
}

func (c *chunkedAppender) append(chunk []uint32) {
	c.mu.Lock()
	c.chunks = append(c.chunks, chunk)
	c.total += len(chunk)
	c.mu.Unlock()
}

func (c *chunkedAppender) collect() []uint32 {
	out := make([]uint32, 0, c.total)
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

// atomicAddFloat64 adds delta to *addr with a CAS loop.
func atomicAddFloat64(addr *uint64, delta float64) {
	for {
		old := atomic.LoadUint64(addr)
		new := floatBits(bitsFloat(old) + delta)
		if atomic.CompareAndSwapUint64(addr, old, new) {
			return
		}
	}
}

// writeMinUint32 lowers *addr to v, reporting whether it changed.
func writeMinUint32(addr *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, v) {
			return true
		}
	}
}
