// Package treegraph implements the tree-based dynamic-graph baselines of
// paper §6: a per-vertex edge tree — a blocked, optionally compressed
// PaC-tree — reached through a vertex table. The two baselines, C-PaC and
// Aspen, are presets of one Config that differ in block size and
// per-vertex overhead.
package treegraph

import (
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/pactree"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// Config selects the edge-block representation and the modeled per-vertex
// cost of the host system's vertex tree.
type Config struct {
	Name            string
	BlockMax        int  // max edges per leaf block of the edge trees
	Compressed      bool // delta-byte-code blocks
	VertexNodeBytes int  // modeled per-vertex overhead of the vertex tree
}

// CPaC is the C-PaC baseline: the CPAM library's graph mode, one
// compressed PaC edge tree per vertex (block size 256, the library
// default) under a vertex tree modeled at 32 bytes per vertex.
var CPaC = Config{Name: "C-PaC", BlockMax: 256, Compressed: true, VertexNodeBytes: 32}

// Aspen is the Aspen baseline: compressed purely-functional C-trees [36],
// modeled with smaller edge chunks than C-PaC (so more per-edge overhead,
// matching the paper's Table 7 where Aspen uses ~1.5-1.9x the space of
// C-PaC) under a heavier vertex tree (48 bytes per vertex: C-tree vertex
// entries carry the vertex id, edge-structure pointer, and tree linkage).
var Aspen = Config{Name: "Aspen", BlockMax: 64, Compressed: true, VertexNodeBytes: 48}

// Graph is an undirected dynamic graph stored as one edge tree per vertex.
// Single writer; batch updates parallelize across vertices.
type Graph struct {
	cfg   Config
	verts []*pactree.Tree
	m     int64
}

// New returns an empty graph over numVertices ids.
func New(numVertices int, cfg Config) *Graph {
	return &Graph{cfg: cfg, verts: make([]*pactree.Tree, numVertices)}
}

// FromEdges builds a graph from a symmetrized edge list.
func FromEdges(numVertices int, edges []workload.Edge, cfg Config) *Graph {
	g := New(numVertices, cfg)
	g.InsertEdges(edges)
	return g
}

// edge trees store dst+1 because key 0 is reserved by the set containers.

// InsertEdges applies a batch of directed edges grouped by source: each
// distinct source's destinations are multi-inserted into its edge tree,
// sources in parallel (the batch-update style of C-PaC and Aspen). Returns
// the number of new edges.
func (g *Graph) InsertEdges(edges []workload.Edge) int {
	return g.update(edges, func(t *pactree.Tree, dsts []uint64) int {
		return t.InsertBatch(dsts, true)
	})
}

// DeleteEdges removes a batch of directed edges, returning how many were
// present.
func (g *Graph) DeleteEdges(edges []workload.Edge) int {
	n := g.update(edges, func(t *pactree.Tree, dsts []uint64) int {
		return -t.RemoveBatch(dsts, true)
	})
	return -n
}

func (g *Graph) update(edges []workload.Edge, apply func(t *pactree.Tree, dsts []uint64) int) int {
	if len(edges) == 0 {
		return 0
	}
	keys := parallel.SortedCopy(workload.EdgeKeys(edges))
	keys = parallel.DedupSorted(keys)
	// Partition into per-source runs.
	type run struct{ lo, hi int }
	var runs []run
	for lo := 0; lo < len(keys); {
		src := keys[lo] >> 32
		hi := lo + sort.Search(len(keys)-lo, func(i int) bool { return keys[lo+i]>>32 != src })
		runs = append(runs, run{lo, hi})
		lo = hi
	}
	var delta atomic.Int64
	parallel.For(len(runs), 1, func(i int) {
		r := runs[i]
		src := uint32(keys[r.lo] >> 32)
		dsts := make([]uint64, 0, r.hi-r.lo)
		for _, k := range keys[r.lo:r.hi] {
			dsts = append(dsts, uint64(uint32(k))+1)
		}
		t := g.verts[src]
		if t == nil {
			t = pactree.New(&pactree.Options{BlockMax: g.cfg.BlockMax, Compressed: g.cfg.Compressed})
			g.verts[src] = t
		}
		delta.Add(int64(apply(t, dsts)))
	})
	g.m += delta.Load()
	return int(delta.Load())
}

// NumVertices returns the vertex-id space.
func (g *Graph) NumVertices() int { return len(g.verts) }

// NumEdges returns the number of stored directed edges.
func (g *Graph) NumEdges() int64 { return g.m }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) int {
	if t := g.verts[v]; t != nil {
		return t.Len()
	}
	return 0
}

// Neighbors applies f to the out-neighbors of v in ascending order until f
// returns false.
func (g *Graph) Neighbors(v uint32, f func(u uint32) bool) {
	t := g.verts[v]
	if t == nil {
		return
	}
	t.Map(func(k uint64) bool { return f(uint32(k - 1)) })
}

// SizeBytes reports the modeled footprint: edge trees plus the host
// system's vertex-tree overhead.
func (g *Graph) SizeBytes() uint64 {
	var total atomic.Uint64
	parallel.For(len(g.verts), 512, func(i int) {
		if t := g.verts[i]; t != nil {
			total.Add(t.SizeBytes())
		}
	})
	return total.Load() + uint64(len(g.verts)*g.cfg.VertexNodeBytes)
}

// Name returns the configured system name.
func (g *Graph) Name() string { return g.cfg.Name }

var _ graph.Graph = (*Graph)(nil)
