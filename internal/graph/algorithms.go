package graph

import (
	"math"
	"sync/atomic"

	"repro/internal/parallel"
)

func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
func floatBits(f float64) uint64 { return math.Float64bits(f) }

// PageRank runs the paper's PR benchmark: a fixed number of pull-based
// iterations with damping 0.85 ("the PR implementation runs for a fixed
// number (10) of iterations"). Graphs implementing ContribScanner (F-Graph
// and the sharded view) use a flat edge scan per iteration; others pull per
// vertex. The two paths are bit-identical by the ContribScanner contract
// (each vertex's contributions summed sequentially in ascending neighbor
// order), so PR vectors are reproducible across storage layouts and shard
// counts — the streaming differential harness compares them bytewise.
func PageRank(g Graph, iters int) []float64 {
	n := g.NumVertices()
	if iters <= 0 {
		iters = 10
	}
	deg := make([]float64, n)
	parallel.For(n, 256, func(i int) { deg[i] = float64(g.Degree(uint32(i))) })

	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	acc := make([]float64, n)
	scanner, hasScanner := g.(ContribScanner)
	base := 0.15 / float64(n)

	for it := 0; it < iters; it++ {
		parallel.For(n, 1024, func(i int) {
			if deg[i] > 0 {
				contrib[i] = rank[i] / deg[i]
			} else {
				contrib[i] = 0
			}
		})
		if hasScanner {
			// The scanner writes acc[v] only for vertices with edges;
			// zero the rest so isolated vertices keep a clean slate.
			parallel.For(n, 2048, func(i int) { acc[i] = 0 })
			scanner.AccumulateContrib(contrib, acc)
		} else {
			parallel.For(n, 64, func(i int) {
				sum := 0.0
				g.Neighbors(uint32(i), func(u uint32) bool {
					sum += contrib[u]
					return true
				})
				acc[i] = sum
			})
		}
		parallel.For(n, 1024, func(i int) {
			rank[i] = base + 0.85*acc[i]
		})
	}
	return rank
}

// ConnectedComponents labels every vertex v with the minimum id of any
// vertex that reaches v along stored edges (v included), by frontier-based
// min-label propagation (Ligra's CC). Labels travel only forward along
// each stored edge s→d, so the fixpoint is unique: the result does not
// depend on frontier direction switches or on races within a round. On a
// symmetric graph (every edge stored both ways) a label is the minimum id
// of the vertex's component. On a directed graph, such as a streaming
// F-Graph view of one-way R-MAT edges, it is the minimum over the vertex's
// ancestors, not a weakly-connected-component label.
func ConnectedComponents(g Graph) []uint32 {
	n := g.NumVertices()
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	frontier := all(n)
	for !frontier.empty() {
		frontier = edgeMapPush(g, frontier, func(s, d uint32) bool {
			return writeMinUint32(&labels[d], atomic.LoadUint32(&labels[s]))
		})
	}
	return labels
}

// BC computes single-source betweenness centrality contributions from src
// (Brandes' algorithm with a level-synchronous frontier BFS, as in Ligra's
// BC): a forward sparse/dense traversal accumulating shortest-path counts,
// then a backward sweep accumulating dependencies.
func BC(g Graph, src uint32) []float64 {
	n := g.NumVertices()
	sigma := make([]uint64, n) // float64 bits, updated with CAS adds
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	sigma[src] = floatBits(1)

	var levels []vertexSubset
	frontier := newSparse(n, []uint32{src})
	cur := int32(0)
	for !frontier.empty() {
		levels = append(levels, frontier)
		next := cur + 1
		frontier = edgeMap(g, frontier,
			func(s, d uint32) bool {
				// Runs only while cond(d) holds, i.e. d is unvisited or
				// already placed in the next level; both accumulate sigma.
				first := atomic.CompareAndSwapInt32(&depth[d], -1, next)
				if atomic.LoadInt32(&depth[d]) == next {
					atomicAddFloat64(&sigma[d], bitsFloat(atomic.LoadUint64(&sigma[s])))
				}
				return first
			},
			func(d uint32) bool {
				dd := atomic.LoadInt32(&depth[d])
				return dd == -1 || dd == next
			},
		)
		cur = next
	}

	// Backward dependency accumulation, level by level from the deepest.
	delta := make([]float64, n)
	for l := len(levels) - 2; l >= 0; l-- {
		lv := levels[l]
		lv.forEach(func(v uint32) {
			sv := bitsFloat(sigma[v])
			if sv == 0 {
				return
			}
			d := 0.0
			g.Neighbors(v, func(u uint32) bool {
				if depth[u] == depth[v]+1 {
					su := bitsFloat(sigma[u])
					if su > 0 {
						d += sv / su * (1 + delta[u])
					}
				}
				return true
			})
			delta[v] = d
		})
	}
	delta[src] = 0
	return delta
}

// BFS returns the BFS depth of every vertex from src (-1 if unreachable),
// using the direction-switching edgeMap — the building block of the
// frontier-based kernels.
func BFS(g Graph, src uint32) []int32 {
	n := g.NumVertices()
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	frontier := newSparse(n, []uint32{src})
	for d := int32(1); !frontier.empty(); d++ {
		dd := d
		frontier = edgeMap(g, frontier,
			func(s, u uint32) bool {
				return atomic.CompareAndSwapInt32(&depth[u], -1, dd)
			},
			func(u uint32) bool { return atomic.LoadInt32(&depth[u]) == -1 },
		)
	}
	return depth
}
