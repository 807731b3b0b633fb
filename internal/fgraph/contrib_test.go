package fgraph

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// contribVertices is the vertex-id space of the ownership fuzz graphs:
// wide enough that the hub's run, one short code per edge, fills more
// than two 512 B leaves.
const contribVertices = 4096

// contribEdges builds a random directed edge set: up to 600 source
// vertices with 1 to 16 random out-edges each, plus hub with 1200 or more
// edges to distinct destinations. The edge (0,0) is left out, since a
// sharded graph refuses it.
func contribEdges(seed uint64, sources, hub, hubDeg uint16) []workload.Edge {
	r := workload.NewRNG(seed)
	var edges []workload.Edge
	add := func(src, dst uint32) {
		if src != 0 || dst != 0 {
			edges = append(edges, workload.Edge{Src: src, Dst: dst})
		}
	}
	for range 1 + int(sources)%600 {
		src := uint32(r.Intn(contribVertices))
		for range 1 + r.Intn(16) {
			add(src, uint32(r.Intn(contribVertices)))
		}
	}
	h := uint32(hub) % contribVertices
	deg := 1200 + int(hubDeg)%(contribVertices-1200)
	for d := 0; d < contribVertices; d++ {
		if r.Intn(contribVertices) < deg {
			add(h, uint32(d))
		}
	}
	return edges
}

// FuzzFGraphContrib checks run ownership: AccumulateContrib on a Graph and
// on a View of the same edges equals each one's per-vertex Neighbors pull
// bit for bit, and touches no vertex without edges. The hub's run spans
// several leaves, and a View's shard boundary can fall inside a run after
// a rebalance move.
func FuzzFGraphContrib(f *testing.F) {
	// Seed 1 holds a run that starts exactly at a leaf head right after
	// another run ends the previous leaf (TestContribSeedLayouts).
	f.Add(uint64(1), uint16(599), uint16(1365), uint16(2800), uint8(2), true)
	f.Add(uint64(2), uint16(40), uint16(7), uint16(0), uint8(0), false)
	f.Add(uint64(3), uint16(300), uint16(4095), uint16(1500), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed uint64, sources, hub, hubDeg uint16, shards uint8, move bool) {
		edges := contribEdges(seed, sources, hub, hubDeg)
		g := FromEdges(contribVertices, edges, nil)
		g.EnsureIndex()
		sg := NewSharded(contribVertices, 1+int(shards)%5, nil)
		defer sg.Close()
		if err := sg.InsertEdges(edges); err != nil {
			t.Fatal(err)
		}
		sg.Flush()
		if move {
			sg.Set().RebalanceOnce()
		}
		v := sg.View()
		if v.NumEdges() != g.NumEdges() {
			t.Fatalf("view holds %d edges, graph %d", v.NumEdges(), g.NumEdges())
		}

		// Weights of many magnitudes, so a sum taken in another order or
		// grouping differs in its bits.
		r := workload.NewRNG(^seed)
		w := make([]float64, contribVertices)
		for i := range w {
			w[i] = math.Ldexp(r.Float64()+0.5, r.Intn(40)-20)
		}
		for name, gr := range map[string]interface {
			graph.Graph
			graph.ContribScanner
		}{"graph": g, "view": v} {
			acc := make([]float64, contribVertices)
			for i := range acc {
				acc[i] = -1
			}
			gr.AccumulateContrib(w, acc)
			for u := range uint32(contribVertices) {
				want := -1.0
				if gr.Degree(u) > 0 {
					want = 0
					gr.Neighbors(u, func(d uint32) bool { want += w[d]; return true })
				}
				if math.Float64bits(acc[u]) != math.Float64bits(want) {
					t.Fatalf("%s: contrib[%d] = %v, want the pull's %v", name, u, acc[u], want)
				}
			}
		}
	})
}

// TestContribSeedLayouts pins what FuzzFGraphContrib's first seed covers:
// the hub's run spans at least 3 leaves, a run starts exactly at a leaf
// head right after another run ends the previous leaf, and on 3 shards a
// rebalance move puts a shard boundary inside a run.
func TestContribSeedLayouts(t *testing.T) {
	edges := contribEdges(1, 599, 1365, 2800)
	g := FromEdges(contribVertices, edges, nil)
	g.EnsureIndex()
	ls := g.ix.ls
	hubLeaves, headStarts := 0, 0
	for l := 0; l < ls.n; l++ {
		var head uint64
		hasHub := false
		ls.leafMap(l, func(k uint64) bool {
			if head == 0 {
				head = k
			}
			hasHub = hasHub || k>>32 == 1365
			return true
		})
		if hasHub {
			hubLeaves++
		}
		prevEnds := false
		if l > 0 {
			ls.leafMap(l-1, func(uint64) bool { prevEnds = true; return false })
		}
		if prevEnds && head != 0 && g.ix.cursors[head>>32] == uint64(l)<<32 {
			headStarts++
		}
	}
	if hubLeaves < 3 || headStarts == 0 {
		t.Fatalf("hub run spans %d leaves, %d runs start at a leaf head after a run", hubLeaves, headStarts)
	}

	sg := NewSharded(contribVertices, 3, nil)
	defer sg.Close()
	if err := sg.InsertEdges(edges); err != nil {
		t.Fatal(err)
	}
	sg.Flush()
	if sg.Set().RebalanceOnce() == 0 {
		t.Fatal("no rebalance move")
	}
	split := false
	sets := sg.View().Snapshot().ShardSets()
	for i := 1; i < len(sets); i++ {
		last, _ := sets[i-1].Max()
		first, ok := sets[i].Min()
		split = split || ok && last>>32 == first>>32
	}
	if !split {
		t.Fatal("no shard boundary inside a run")
	}
}
