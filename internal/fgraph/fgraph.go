// Package fgraph implements F-Graph (paper §6): a dynamic-graph system
// storing the whole graph — vertices and edges — in a single batch-parallel
// CPMA. Edges are 64-bit keys with the source in the upper 32 bits and the
// destination in the lower 32; delta compression elides the source in all
// but the first edge per leaf, so the vertex array of CSR disappears
// entirely ("the F in F-Graph comes from the musical key of F, which has
// one flat").
//
// Per-vertex access is restored on demand by BuildIndex, which reconstructs
// a cursor (leaf, offset) and the degree for every vertex with one parallel
// pass over the CPMA leaves — the "fixed cost to reconstruct the vertex
// array of offsets" the paper measures inside each algorithm's runtime.
// PageRank reads every degree from it, and its flat scan (contrib.go)
// takes run ownership from the cursors.
//
// Two flavors share those kernels:
//
//   - Graph (this file) is the paper's phased single-CPMA system: one
//     writer, mutations and analytics strictly alternating.
//   - Sharded (sharded.go) stripes the edge keys across a range-partitioned
//     concurrent shard.Sharded and serves analytics from immutable epoch-
//     snapshot Views (view.go) while edge batches keep streaming through
//     the async ingest pipeline — no phasing.
//
// # Edge (0,0)
//
// Key 0 is reserved by the CPMA (and the sharded pipeline panics on it),
// and edge (0,0) — a self-loop on vertex 0 — packs to exactly key 0. The
// two flavors resolve the collision differently: Graph drops the edge
// silently (workload.EdgeKeys filters it, matching Symmetrize, which drops
// every self-loop), while Sharded rejects any batch containing it with
// ErrEdgeZeroZero before enqueueing — an async pipeline cannot afford a
// deferred panic in a writer goroutine. All other vertex-0 edges ((0, k)
// and (k, 0), k != 0) are ordinary keys in both flavors.
package fgraph

import (
	"errors"

	"repro/internal/cpma"
	"repro/internal/graph"
	"repro/internal/workload"
)

// ErrEdgeZeroZero is returned by the Sharded mutation paths when a batch
// contains the edge (0,0), which packs to the reserved key 0 and cannot be
// stored. Self-loops carry no information for the undirected kernels
// (Symmetrize drops them all), so callers typically filter rather than
// handle.
var ErrEdgeZeroZero = errors.New("fgraph: edge (0,0) packs to reserved key 0 and cannot be stored")

// Graph is a dynamic undirected graph on a single CPMA. One writer at a
// time; batch updates and algorithms are phased, as in the paper.
type Graph struct {
	set *cpma.CPMA
	nv  int
	ix  *vertexIndex // nil from a mutation until the next BuildIndex
}

// New returns an empty graph over a vertex-id space of numVertices.
func New(numVertices int, opts *cpma.Options) *Graph {
	return &Graph{set: cpma.New(opts), nv: numVertices}
}

// FromEdges builds a graph from a (typically symmetrized) edge list.
func FromEdges(numVertices int, edges []workload.Edge, opts *cpma.Options) *Graph {
	g := New(numVertices, opts)
	g.InsertEdges(edges)
	return g
}

// InsertEdges adds a batch of directed edges (undirected graphs pass both
// directions, e.g. via workload.Symmetrize), returning the number of edges
// that were new. Duplicates are absorbed by the set semantics; the edge
// (0,0) is dropped (see the package documentation).
func (g *Graph) InsertEdges(edges []workload.Edge) int {
	g.ix = nil
	return g.set.InsertBatch(workload.EdgeKeys(edges), false)
}

// DeleteEdges removes a batch of directed edges, returning how many were
// present.
func (g *Graph) DeleteEdges(edges []workload.Edge) int {
	g.ix = nil
	return g.set.RemoveBatch(workload.EdgeKeys(edges), false)
}

// NumVertices returns the vertex-id space.
func (g *Graph) NumVertices() int { return g.nv }

// NumEdges returns the number of stored directed edges.
func (g *Graph) NumEdges() int64 { return int64(g.set.Len()) }

// SizeBytes returns the memory footprint of the graph container (just the
// CPMA — there is no vertex array).
func (g *Graph) SizeBytes() uint64 { return g.set.SizeBytes() }

// Set exposes the underlying CPMA (read-only use).
func (g *Graph) Set() *cpma.CPMA { return g.set }

// BuildIndex reconstructs the per-vertex cursors and degrees with one
// parallel pass over the CPMA leaves. Degree, Neighbors and
// AccumulateContrib read the index, so it must be rebuilt after any
// mutation; the paper includes this cost in every algorithm's measured
// time.
func (g *Graph) BuildIndex() { g.ix = buildIndex([]*cpma.CPMA{g.set}, g.nv) }

// EnsureIndex rebuilds the index if a mutation invalidated it. Must be
// called from a single goroutine before parallel per-vertex access.
func (g *Graph) EnsureIndex() {
	if g.ix == nil {
		g.BuildIndex()
	}
}

// Degree returns the out-degree of v. The index must be current (a stale
// one is nil, and reading it panics).
func (g *Graph) Degree(v uint32) int { return g.ix.Degree(v) }

// Neighbors applies f to the destinations of v's stored edges in ascending
// order until f returns false. The index must be current.
func (g *Graph) Neighbors(v uint32, f func(u uint32) bool) { g.ix.Neighbors(v, f) }

// AccumulateContrib implements graph.ContribScanner with the deterministic
// flat scan (contrib.go): acc[src] is the sequential ascending-order sum of
// w[dst], bit-identical to a Neighbors pull and to the sharded view's scan
// of the same edge set. The index must be current.
func (g *Graph) AccumulateContrib(w, acc []float64) { g.ix.AccumulateContrib(w, acc) }

// Interface conformance checks.
var (
	_ graph.Graph          = (*Graph)(nil)
	_ graph.ContribScanner = (*Graph)(nil)
)
