package graph

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sliceGraph is a simple adjacency-list reference implementation.
type sliceGraph struct {
	adj [][]uint32
	m   int64
}

func newSliceGraph(n int, edges [][2]uint32) *sliceGraph {
	g := &sliceGraph{adj: make([][]uint32, n)}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
		g.m += 2
	}
	for _, a := range g.adj {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	}
	return g
}

func (g *sliceGraph) NumVertices() int    { return len(g.adj) }
func (g *sliceGraph) NumEdges() int64     { return g.m }
func (g *sliceGraph) Degree(v uint32) int { return len(g.adj[v]) }
func (g *sliceGraph) Neighbors(v uint32, f func(u uint32) bool) {
	for _, u := range g.adj[v] {
		if !f(u) {
			return
		}
	}
}

// pathGraph: 0-1-2-...-n-1.
func pathGraph(n int) *sliceGraph {
	var edges [][2]uint32
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]uint32{uint32(i), uint32(i + 1)})
	}
	return newSliceGraph(n, edges)
}

func TestVertexSubset(t *testing.T) {
	s := newSparse(10, []uint32{1, 3, 5})
	if s.size != 3 || s.empty() {
		t.Fatal("sparse subset wrong")
	}
	d := newDense([]bool{true, false, true})
	if d.size != 2 || d.empty() {
		t.Fatal("dense subset wrong")
	}
	if all(5).size != 5 {
		t.Fatal("all wrong")
	}
}

func TestEdgeMapBFSLevels(t *testing.T) {
	// BFS on a path must advance one level per round in both directions
	// of the push/pull heuristic.
	directions := []struct {
		name string
		step func(Graph, vertexSubset, func(s, d uint32) bool, func(d uint32) bool) vertexSubset
	}{{"dense", edgeMapDense}, {"sparse", edgeMapSparse}}
	for _, dir := range directions {
		g := pathGraph(50)
		depth := make([]int32, 50)
		for i := range depth {
			depth[i] = -1
		}
		depth[0] = 0
		frontier := newSparse(50, []uint32{0})
		round := int32(0)
		for !frontier.empty() {
			round++
			r := round
			frontier = dir.step(g, frontier,
				func(s, d uint32) bool {
					if depth[d] == -1 {
						depth[d] = r
						return true
					}
					return false
				},
				func(d uint32) bool { return depth[d] == -1 },
			)
		}
		for i, dep := range depth {
			if dep != int32(i) {
				t.Fatalf("%s: depth[%d] = %d, want %d", dir.name, i, dep, i)
			}
		}
	}
}

func randomGraph(r *rand.Rand, n, m int) *sliceGraph {
	seen := map[[2]uint32]bool{}
	var edges [][2]uint32
	for len(edges) < m {
		a, b := uint32(r.Intn(n)), uint32(r.Intn(n))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]uint32{a, b}] {
			continue
		}
		seen[[2]uint32{a, b}] = true
		edges = append(edges, [2]uint32{a, b})
	}
	return newSliceGraph(n, edges)
}

func TestConnectedComponents(t *testing.T) {
	// Two disjoint cliques plus isolated vertices.
	var edges [][2]uint32
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]uint32{uint32(i), uint32(j)})
			edges = append(edges, [2]uint32{uint32(10 + i), uint32(10 + j)})
		}
	}
	g := newSliceGraph(20, edges)
	labels := ConnectedComponents(g)
	for i := 0; i < 5; i++ {
		if labels[i] != 0 {
			t.Fatalf("labels[%d] = %d, want 0", i, labels[i])
		}
		if labels[10+i] != 10 {
			t.Fatalf("labels[%d] = %d, want 10", 10+i, labels[10+i])
		}
	}
	for i := 5; i < 10; i++ {
		if labels[i] != uint32(i) {
			t.Fatalf("isolated labels[%d] = %d", i, labels[i])
		}
	}
}

func TestConnectedComponentsRandomAgainstUnionFind(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := randomGraph(r, 500, 700)
	labels := ConnectedComponents(g)
	// Reference: BFS components.
	ref := make([]int, 500)
	for i := range ref {
		ref[i] = -1
	}
	comp := 0
	for s := 0; s < 500; s++ {
		if ref[s] != -1 {
			continue
		}
		stack := []uint32{uint32(s)}
		ref[s] = comp
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.adj[v] {
				if ref[u] == -1 {
					ref[u] = comp
					stack = append(stack, u)
				}
			}
		}
		comp++
	}
	// Same partition: labels equal iff ref equal.
	for i := 0; i < 500; i++ {
		for j := i + 1; j < 500; j += 37 {
			if (labels[i] == labels[j]) != (ref[i] == ref[j]) {
				t.Fatalf("partition mismatch at %d,%d", i, j)
			}
		}
	}
}

// TestConnectedComponentsDirected pins CC's contract on one-way edges:
// every label is the minimum id that reaches the vertex, whatever the mix
// of dense and sparse rounds. A descending path (i+1 → i) keeps frontiers
// small for many rounds after the dense first one; random extra edges add
// shortcuts that race the path within a round.
func TestConnectedComponentsDirected(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 300 + r.Intn(300)
		g := &sliceGraph{adj: make([][]uint32, n)}
		add := func(a, b int) {
			g.adj[a] = append(g.adj[a], uint32(b))
			g.m++
		}
		for i := 0; i+1 < n; i++ {
			add(i+1, i)
		}
		for e := r.Intn(3 * n); e > 0; e-- {
			if a, b := r.Intn(n), r.Intn(n); a != b {
				add(a, b)
			}
		}
		for _, a := range g.adj {
			slices.Sort(a)
		}
		// Reference: search forward from each id in ascending order; the
		// first search to reach a vertex carries the smallest ancestor.
		want := make([]uint32, n)
		seen := make([]bool, n)
		for u := 0; u < n; u++ {
			if seen[u] {
				continue
			}
			seen[u] = true
			stack := []uint32{uint32(u)}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				want[v] = uint32(u)
				for _, d := range g.adj[v] {
					if !seen[d] {
						seen[d] = true
						stack = append(stack, d)
					}
				}
			}
		}
		if got := ConnectedComponents(g); !slices.Equal(got, want) {
			t.Fatalf("trial %d: labels differ from the minimum-ancestor reference", trial)
		}
	}
}

func TestPageRankStar(t *testing.T) {
	// Star graph: the center must carry the highest rank, leaves equal.
	var edges [][2]uint32
	for i := 1; i < 10; i++ {
		edges = append(edges, [2]uint32{0, uint32(i)})
	}
	g := newSliceGraph(10, edges)
	rank := PageRank(g, 10)
	sum := 0.0
	for _, x := range rank {
		sum += x
	}
	if math.Abs(sum-1) > 0.05 {
		t.Fatalf("ranks sum to %f", sum)
	}
	for i := 1; i < 10; i++ {
		if rank[0] <= rank[i] {
			t.Fatalf("center rank %f <= leaf rank %f", rank[0], rank[i])
		}
		if math.Abs(rank[i]-rank[1]) > 1e-12 {
			t.Fatal("leaf ranks differ")
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := randomGraph(r, 200, 600)
	got := PageRank(g, 10)
	// Reference: straightforward dense iteration.
	n := 200
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < 10; it++ {
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.adj[v] {
				sum += rank[u] / float64(len(g.adj[u]))
			}
			next[v] = 0.15/float64(n) + 0.85*sum
		}
		rank = next
	}
	for i := range rank {
		if math.Abs(got[i]-rank[i]) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want %g", i, got[i], rank[i])
		}
	}
}

// bcReference is a serial Brandes implementation.
func bcReference(g *sliceGraph, src uint32) []float64 {
	n := g.NumVertices()
	sigma := make([]float64, n)
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	sigma[src] = 1
	depth[src] = 0
	var order []uint32
	queue := []uint32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, u := range g.adj[v] {
			if depth[u] == -1 {
				depth[u] = depth[v] + 1
				queue = append(queue, u)
			}
			if depth[u] == depth[v]+1 {
				sigma[u] += sigma[v]
			}
		}
	}
	delta := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, u := range g.adj[v] {
			if depth[u] == depth[v]+1 && sigma[u] > 0 {
				delta[v] += sigma[v] / sigma[u] * (1 + delta[u])
			}
		}
	}
	delta[src] = 0
	return delta
}

func TestBCMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(r, 120, 300)
		src := uint32(r.Intn(120))
		got := BC(g, src)
		want := bcReference(g, src)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: delta[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestBCPath(t *testing.T) {
	g := pathGraph(5) // 0-1-2-3-4 from source 0: deltas 0,3,2,1,0
	got := BC(g, 0)
	want := []float64{0, 3, 2, 1, 0}
	if !slices.Equal(got, want) {
		t.Fatalf("BC = %v, want %v", got, want)
	}
}

func TestBFSMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomGraph(r, 300, 900)
	depth := BFS(g, 5)
	// Reference BFS.
	ref := make([]int32, 300)
	for i := range ref {
		ref[i] = -1
	}
	ref[5] = 0
	queue := []uint32{5}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if ref[u] == -1 {
				ref[u] = ref[v] + 1
				queue = append(queue, u)
			}
		}
	}
	if !slices.Equal(depth, ref) {
		t.Fatal("BFS depths mismatch")
	}
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(6)
	depth := BFS(g, 0)
	for i, d := range depth {
		if d != int32(i) {
			t.Fatalf("depth[%d] = %d", i, d)
		}
	}
}
