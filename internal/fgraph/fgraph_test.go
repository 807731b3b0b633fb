package fgraph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

func ring(n int) []workload.Edge {
	var edges []workload.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, workload.Edge{Src: uint32(i), Dst: uint32((i + 1) % n)})
	}
	return workload.Symmetrize(edges)
}

func TestBuildAndDegrees(t *testing.T) {
	g := FromEdges(10, ring(10), nil)
	g.EnsureIndex()
	if g.NumEdges() != 20 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	for v := uint32(0); v < 10; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("Degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestNeighborsSortedAndComplete(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	nv := 200
	adj := make(map[uint32]map[uint32]bool)
	var edges []workload.Edge
	for i := 0; i < 3000; i++ {
		a, b := uint32(r.Intn(nv)), uint32(r.Intn(nv))
		if a == b {
			continue
		}
		edges = append(edges, workload.Edge{Src: a, Dst: b})
		if adj[a] == nil {
			adj[a] = map[uint32]bool{}
		}
		if adj[b] == nil {
			adj[b] = map[uint32]bool{}
		}
		adj[a][b] = true
		adj[b][a] = true
	}
	g := FromEdges(nv, workload.Symmetrize(edges), nil)
	g.EnsureIndex()
	for v := uint32(0); v < uint32(nv); v++ {
		var got []uint32
		g.Neighbors(v, func(u uint32) bool {
			got = append(got, u)
			return true
		})
		want := make([]uint32, 0, len(adj[v]))
		for u := range adj[v] {
			want = append(want, u)
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%d): got %v, want %v", v, got, want)
		}
		if g.Degree(v) != len(want) {
			t.Fatalf("Degree(%d) = %d, want %d", v, g.Degree(v), len(want))
		}
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	g := FromEdges(5, workload.Symmetrize([]workload.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}}), nil)
	g.EnsureIndex()
	calls := 0
	g.Neighbors(0, func(uint32) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Fatalf("early stop after %d calls", calls)
	}
}

func TestInsertDeleteEdges(t *testing.T) {
	g := New(8, nil)
	added := g.InsertEdges(workload.Symmetrize([]workload.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}))
	if added != 4 {
		t.Fatalf("added = %d", added)
	}
	// Duplicate insert adds nothing.
	if again := g.InsertEdges(workload.Symmetrize([]workload.Edge{{Src: 1, Dst: 2}})); again != 0 {
		t.Fatalf("duplicate added = %d", again)
	}
	removed := g.DeleteEdges(workload.Symmetrize([]workload.Edge{{Src: 2, Dst: 3}, {Src: 6, Dst: 7}}))
	if removed != 2 {
		t.Fatalf("removed = %d", removed)
	}
	g.EnsureIndex()
	if g.Degree(2) != 1 || g.Degree(3) != 0 {
		t.Fatalf("degrees after delete: %d %d", g.Degree(2), g.Degree(3))
	}
}

func TestIndexInvalidation(t *testing.T) {
	g := FromEdges(4, ring(4), nil)
	g.EnsureIndex()
	g.InsertEdges([]workload.Edge{{Src: 0, Dst: 2}})
	if g.ix != nil {
		t.Fatal("index should be stale after mutation")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on stale index access")
		}
	}()
	g.Degree(0)
}

func TestAccumulateContribMatchesNeighbors(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	nv := 300
	var edges []workload.Edge
	for i := 0; i < 5000; i++ {
		a, b := uint32(r.Intn(nv)), uint32(r.Intn(nv))
		if a != b {
			edges = append(edges, workload.Edge{Src: a, Dst: b})
		}
	}
	g := FromEdges(nv, workload.Symmetrize(edges), nil)
	g.EnsureIndex()
	w := make([]float64, nv)
	for i := range w {
		w[i] = r.Float64()
	}
	acc := make([]float64, nv)
	g.AccumulateContrib(w, acc)
	for v := 0; v < nv; v++ {
		want := 0.0
		g.Neighbors(uint32(v), func(u uint32) bool {
			want += w[u]
			return true
		})
		// The flat scan sums each vertex's run sequentially in ascending
		// order — the same order as the Neighbors pull — so the match is
		// exact, not approximate.
		if acc[v] != want {
			t.Fatalf("contrib[%d] = %g, want %g (not bit-identical)", v, acc[v], want)
		}
	}
}

func TestAlgorithmsRunOnFGraph(t *testing.T) {
	// A ring has uniform PR, one component, and known BC values.
	n := 64
	g := FromEdges(n, ring(n), nil)
	g.EnsureIndex()
	rank := graph.PageRank(g, 10)
	for i := 1; i < n; i++ {
		if math.Abs(rank[i]-rank[0]) > 1e-12 {
			t.Fatalf("ring PR not uniform: %g vs %g", rank[i], rank[0])
		}
	}
	labels := graph.ConnectedComponents(g)
	for i := range labels {
		if labels[i] != 0 {
			t.Fatalf("labels[%d] = %d", i, labels[i])
		}
	}
	bc := graph.BC(g, 0)
	if bc[0] != 0 {
		t.Fatal("BC of source must be 0")
	}
	// Symmetry of the ring around the source.
	for i := 1; i < n/2; i++ {
		if math.Abs(bc[i]-bc[n-i]) > 1e-9 {
			t.Fatalf("BC asymmetry at %d: %g vs %g", i, bc[i], bc[n-i])
		}
	}
}

func TestLargeRMATGraphConsistency(t *testing.T) {
	rng := workload.NewRNG(7)
	edges := workload.Symmetrize(workload.RMAT(rng, 50_000, 12, workload.DefaultRMAT()))
	g := FromEdges(1<<12, edges, nil)
	g.EnsureIndex()
	// Sum of degrees equals stored edges.
	total := 0
	for v := 0; v < g.NumVertices(); v++ {
		total += g.Degree(uint32(v))
	}
	if int64(total) != g.NumEdges() {
		t.Fatalf("degree sum %d != edges %d", total, g.NumEdges())
	}
}
