package treegraph

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

func cfg() Config {
	return Config{Name: "test", BlockMax: 32, Compressed: true, VertexNodeBytes: 32}
}

func TestInsertAndNeighbors(t *testing.T) {
	edges := workload.Symmetrize([]workload.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}})
	g := FromEdges(4, edges, cfg())
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	var got []uint32
	g.Neighbors(0, func(u uint32) bool {
		got = append(got, u)
		return true
	})
	if !slices.Equal(got, []uint32{1, 2}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if g.Degree(3) != 0 {
		t.Fatal("isolated vertex degree != 0")
	}
}

func TestDeleteEdges(t *testing.T) {
	edges := workload.Symmetrize([]workload.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	g := FromEdges(4, edges, cfg())
	removed := g.DeleteEdges(workload.Symmetrize([]workload.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}))
	if removed != 2 {
		t.Fatalf("removed = %d", removed)
	}
	if g.NumEdges() != 2 || g.Degree(0) != 0 {
		t.Fatalf("NumEdges=%d Degree(0)=%d", g.NumEdges(), g.Degree(0))
	}
}

func TestZeroDestinationEdge(t *testing.T) {
	// dst 0 must survive the +1 key shift.
	g := FromEdges(3, []workload.Edge{{Src: 1, Dst: 0}}, cfg())
	var got []uint32
	g.Neighbors(1, func(u uint32) bool {
		got = append(got, u)
		return true
	})
	if !slices.Equal(got, []uint32{0}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
}

func TestAgreesWithFGraphOnAlgorithms(t *testing.T) {
	rng := workload.NewRNG(11)
	edges := workload.Symmetrize(workload.RMAT(rng, 20_000, 10, workload.DefaultRMAT()))
	nv := 1 << 10
	tg := FromEdges(nv, edges, cfg())

	// Reference adjacency.
	adj := make(map[uint32]map[uint32]bool)
	for _, e := range edges {
		if adj[e.Src] == nil {
			adj[e.Src] = map[uint32]bool{}
		}
		adj[e.Src][e.Dst] = true
	}
	total := 0
	for v := 0; v < nv; v++ {
		total += tg.Degree(uint32(v))
		if len(adj[uint32(v)]) != tg.Degree(uint32(v)) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
	if int64(total) != tg.NumEdges() {
		t.Fatalf("degree sum %d != NumEdges %d", total, tg.NumEdges())
	}

	labels := graph.ConnectedComponents(tg)
	rank := graph.PageRank(tg, 5)
	if len(labels) != nv || len(rank) != nv {
		t.Fatal("algorithm output sizes wrong")
	}
	sum := 0.0
	for _, x := range rank {
		sum += x
	}
	if math.Abs(sum-1) > 0.2 {
		t.Fatalf("PR mass = %f", sum)
	}
}

func TestSizeBytesGrowsWithEdges(t *testing.T) {
	small := FromEdges(100, workload.Symmetrize([]workload.Edge{{Src: 1, Dst: 2}}), cfg())
	rng := workload.NewRNG(3)
	big := FromEdges(100, workload.Symmetrize(workload.RMAT(rng, 5000, 6, workload.DefaultRMAT())), cfg())
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("SizeBytes not monotone: %d vs %d", big.SizeBytes(), small.SizeBytes())
	}
}

// TestPresets checks the two baseline presets end to end: names, edges,
// degrees, neighbors, and deletes.
func TestPresets(t *testing.T) {
	t.Run("Aspen", func(t *testing.T) {
		edges := workload.Symmetrize([]workload.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
		g := FromEdges(4, edges, Aspen)
		if g.Name() != "Aspen" {
			t.Fatalf("Name = %s", g.Name())
		}
		if g.NumEdges() != 4 || g.Degree(1) != 2 {
			t.Fatalf("edges=%d deg(1)=%d", g.NumEdges(), g.Degree(1))
		}
	})
	t.Run("C-PaC", func(t *testing.T) {
		edges := workload.Symmetrize([]workload.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 3}})
		g := FromEdges(4, edges, CPaC)
		if g.Name() != "C-PaC" {
			t.Fatalf("Name = %s", g.Name())
		}
		var got []uint32
		g.Neighbors(0, func(u uint32) bool {
			got = append(got, u)
			return true
		})
		if !slices.Equal(got, []uint32{1, 3}) {
			t.Fatalf("Neighbors(0) = %v", got)
		}
		removed := g.DeleteEdges(workload.Symmetrize([]workload.Edge{{Src: 0, Dst: 1}}))
		if removed != 2 || g.NumEdges() != 2 {
			t.Fatalf("removed=%d edges=%d", removed, g.NumEdges())
		}
	})
}

// TestAspenUsesMoreSpaceThanCPaC: the paper's Table 7 has Aspen at
// ~1.5-1.9x the space of C-PaC — smaller chunks plus a heavier vertex tree.
func TestAspenUsesMoreSpaceThanCPaC(t *testing.T) {
	rng := workload.NewRNG(1)
	edges := workload.Symmetrize(workload.RMAT(rng, 60_000, 11, workload.DefaultRMAT()))
	a := FromEdges(1<<11, edges, Aspen)
	c := FromEdges(1<<11, edges, CPaC)
	if a.SizeBytes() <= c.SizeBytes() {
		t.Fatalf("Aspen %d bytes should exceed C-PaC %d bytes", a.SizeBytes(), c.SizeBytes())
	}
}
