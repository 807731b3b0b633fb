package fgraph

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// TestVertexZeroEdges is the regression test for the edge-(0,0) hole:
// src=0,dst=0 packs to key 0, which the sharded pipeline reserves. All
// other vertex-0 edges must behave as ordinary edges in both flavors.
func TestVertexZeroEdges(t *testing.T) {
	edges := []workload.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 0, Dst: 5}, {Src: 5, Dst: 0},
		{Src: 2, Dst: 3},
	}

	check := func(t *testing.T, g graph.Graph) {
		t.Helper()
		if g.Degree(0) != 2 {
			t.Fatalf("Degree(0) = %d, want 2", g.Degree(0))
		}
		var nbrs []uint32
		g.Neighbors(0, func(u uint32) bool { nbrs = append(nbrs, u); return true })
		if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 5 {
			t.Fatalf("Neighbors(0) = %v, want [1 5]", nbrs)
		}
		if g.Degree(1) != 1 || g.Degree(5) != 1 {
			t.Fatalf("degrees of vertex-0 peers: %d %d", g.Degree(1), g.Degree(5))
		}
	}

	t.Run("single", func(t *testing.T) {
		// Graph silently drops (0,0), keeping every other edge.
		g := FromEdges(8, append([]workload.Edge{{Src: 0, Dst: 0}}, edges...), nil)
		if g.NumEdges() != int64(len(edges)) {
			t.Fatalf("NumEdges = %d, want %d ((0,0) should be dropped)", g.NumEdges(), len(edges))
		}
		g.EnsureIndex()
		check(t, g)
	})

	t.Run("sharded", func(t *testing.T) {
		g := NewSharded(8, 2, nil)
		defer g.Close()
		// A batch containing (0,0) is rejected whole, before enqueue.
		err := g.InsertEdges(append([]workload.Edge{{Src: 0, Dst: 0}}, edges...))
		if !errors.Is(err, ErrEdgeZeroZero) {
			t.Fatalf("InsertEdges with (0,0): err = %v, want ErrEdgeZeroZero", err)
		}
		if err := g.DeleteEdges([]workload.Edge{{Src: 0, Dst: 0}}); !errors.Is(err, ErrEdgeZeroZero) {
			t.Fatalf("DeleteEdges with (0,0): err = %v", err)
		}
		g.Flush()
		if g.NumEdges() != 0 {
			t.Fatalf("rejected batches must enqueue nothing; NumEdges = %d", g.NumEdges())
		}
		if err := g.InsertEdges(edges); err != nil {
			t.Fatalf("InsertEdges: %v", err)
		}
		g.Flush()
		check(t, g.View())
	})
}

// TestShardedMatchesSingleAfterFlush checks the basic equivalence: the same
// edge sequence through the async sharded pipeline and the phased
// single-CPMA graph yields byte-identical structure and algorithm results
// once flushed.
func TestShardedMatchesSingleAfterFlush(t *testing.T) {
	const scale = 10
	nv := 1 << scale
	r := workload.NewRNG(42)
	edges := workload.Symmetrize(workload.RMAT(r, 20000, scale, workload.DefaultRMAT()))

	ref := FromEdges(nv, edges, nil)
	ref.EnsureIndex()

	for _, shards := range []int{1, 4} {
		g := NewSharded(nv, shards, nil)
		// Feed in several async batches to exercise the pipeline.
		for i := 0; i < len(edges); i += 4096 {
			end := i + 4096
			if end > len(edges) {
				end = len(edges)
			}
			if err := g.InsertEdges(edges[i:end]); err != nil {
				t.Fatalf("shards=%d InsertEdges: %v", shards, err)
			}
		}
		g.Flush()
		v := g.View()
		if v.NumEdges() != ref.NumEdges() {
			t.Fatalf("shards=%d: NumEdges %d vs %d", shards, v.NumEdges(), ref.NumEdges())
		}
		if v.LagKeys() != 0 {
			t.Fatalf("shards=%d: LagKeys %d after Flush", shards, v.LagKeys())
		}
		wantKeys := ref.Set().Keys()
		gotKeys := v.Snapshot().Keys()
		if len(wantKeys) != len(gotKeys) {
			t.Fatalf("shards=%d: key counts %d vs %d", shards, len(gotKeys), len(wantKeys))
		}
		for i := range wantKeys {
			if wantKeys[i] != gotKeys[i] {
				t.Fatalf("shards=%d: key[%d] = %#x, want %#x", shards, i, gotKeys[i], wantKeys[i])
			}
		}
		for u := 0; u < nv; u++ {
			if v.Degree(uint32(u)) != ref.Degree(uint32(u)) {
				t.Fatalf("shards=%d: Degree(%d) %d vs %d", shards, u, v.Degree(uint32(u)), ref.Degree(uint32(u)))
			}
		}
		wantBFS := graph.BFS(ref, 0)
		gotBFS := graph.BFS(v, 0)
		wantPR := graph.PageRank(ref, 10)
		gotPR := graph.PageRank(v, 10)
		wantCC := graph.ConnectedComponents(ref)
		gotCC := graph.ConnectedComponents(v)
		for i := 0; i < nv; i++ {
			if gotBFS[i] != wantBFS[i] {
				t.Fatalf("shards=%d: BFS[%d] %d vs %d", shards, i, gotBFS[i], wantBFS[i])
			}
			if gotPR[i] != wantPR[i] {
				t.Fatalf("shards=%d: PR[%d] not bit-identical: %g vs %g", shards, i, gotPR[i], wantPR[i])
			}
			if gotCC[i] != wantCC[i] {
				t.Fatalf("shards=%d: CC[%d] %d vs %d", shards, i, gotCC[i], wantCC[i])
			}
		}
		g.Close()
		// Views outlive Close.
		if v.Degree(0) != ref.Degree(0) {
			t.Fatal("view unusable after Close")
		}
	}
}
