package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/fgraph"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/treegraph"
	"repro/internal/workload"
)

// GraphSystem is the uniform face over the three graph systems.
type GraphSystem interface {
	graph.Graph
	InsertEdges(edges []workload.Edge) int
	SizeBytes() uint64
}

// fgraphSystem wraps F-Graph to rebuild its vertex index inside the timed
// region, as the paper does ("this experiment rebuilds the vertex array
// with each run of the algorithm").
type fgraphSystem struct{ *fgraph.Graph }

// GraphMaker names a system and builds it from an edge list.
type GraphMaker struct {
	Name string
	New  func(nv int, edges []workload.Edge) GraphSystem
}

// GraphMakers returns the three systems in the paper's order: the baselines
// then F-Graph.
func GraphMakers() []GraphMaker {
	return []GraphMaker{
		{Name: "Aspen", New: func(nv int, e []workload.Edge) GraphSystem {
			return treegraph.FromEdges(nv, e, treegraph.Aspen)
		}},
		{Name: "C-PaC", New: func(nv int, e []workload.Edge) GraphSystem {
			return treegraph.FromEdges(nv, e, treegraph.CPaC)
		}},
		{Name: "F-Graph", New: func(nv int, e []workload.Edge) GraphSystem {
			return fgraphSystem{fgraph.FromEdges(nv, e, nil)}
		}},
	}
}

// AlgoTimes holds one system's kernel runtimes on one graph.
type AlgoTimes struct {
	Graph  string
	System string
	PR     time.Duration
	CC     time.Duration
	BC     time.Duration
}

// Fig9GraphAlgos runs PR (10 iterations), CC, and BC on every graph and
// system (Figure 9 / Table 14). F-Graph's index rebuild is included in
// every kernel's timed region, matching the paper; PR uses its flat scan.
func Fig9GraphAlgos(graphs []workload.SyntheticGraph, seed uint64, prIters int) []AlgoTimes {
	var out []AlgoTimes
	for _, sg := range graphs {
		edges := sg.Build(seed)
		nv := sg.NumVertices()
		for _, mk := range GraphMakers() {
			g := mk.New(nv, edges)
			res := AlgoTimes{Graph: sg.Name, System: mk.Name}
			res.PR = stats.Time(func() {
				prepare(g)
				graph.PageRank(g, prIters)
			})
			res.CC = stats.Time(func() {
				prepare(g)
				graph.ConnectedComponents(g)
			})
			res.BC = stats.Time(func() {
				prepare(g)
				graph.BC(g, 0)
			})
			out = append(out, res)
		}
	}
	return out
}

// prepare rebuilds F-Graph's vertex index inside the timed region; tree
// systems need no preparation. Every kernel reads the index, PR too: its
// degrees, and its flat scan takes run ownership from the cursors.
func prepare(g GraphSystem) {
	if fg, ok := g.(fgraphSystem); ok {
		fg.BuildIndex()
	}
}

// InsertGraphRow is one batch-size row of Figure 10 / Table 15.
type InsertGraphRow struct {
	BatchSize  int
	Throughput map[string]float64
}

// Fig10GraphInserts measures batch edge-insert throughput into a prebuilt
// base graph, with batches sampled from the R-MAT distribution (Figure 10 /
// Table 15; the paper uses the FS graph as the base).
func Fig10GraphInserts(base workload.SyntheticGraph, seed uint64, totalInserts int) []InsertGraphRow {
	edges := base.Build(seed)
	nv := base.NumVertices()
	// Insert-stream vertices must stay inside the base graph's id space:
	// floor(log2(nv)) keeps R-MAT samples in range even when nv is not a
	// power of two (the ER stand-in).
	scale := 0
	for 1<<(scale+1) <= nv {
		scale++
	}
	var rows []InsertGraphRow
	for _, bs := range BatchSizes(totalInserts) {
		row := InsertGraphRow{BatchSize: bs, Throughput: map[string]float64{}}
		for _, mk := range GraphMakers() {
			g := mk.New(nv, edges)
			r := workload.NewRNG(seed + 7)
			var batches [][]workload.Edge
			for done := 0; done < totalInserts; done += bs {
				n := bs
				if totalInserts-done < n {
					n = totalInserts - done
				}
				batches = append(batches, workload.RMAT(r, n, scale, workload.DefaultRMAT()))
			}
			d := stats.Time(func() {
				for _, b := range batches {
					g.InsertEdges(b)
				}
			})
			row.Throughput[mk.Name] = stats.Throughput(totalInserts, d)
		}
		rows = append(rows, row)
	}
	return rows
}

// SpaceRow is one graph's footprint across systems (Table 7).
type SpaceRow struct {
	Graph string
	N, M  int64
	Bytes map[string]uint64
}

// Table7GraphSpace measures the memory used to store each graph.
func Table7GraphSpace(graphs []workload.SyntheticGraph, seed uint64) []SpaceRow {
	var rows []SpaceRow
	for _, sg := range graphs {
		edges := sg.Build(seed)
		row := SpaceRow{Graph: sg.Name, N: int64(sg.NumVertices()), Bytes: map[string]uint64{}}
		for _, mk := range GraphMakers() {
			g := mk.New(sg.NumVertices(), edges)
			row.Bytes[mk.Name] = g.SizeBytes()
			row.M = g.NumEdges()
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteAlgoTimes renders Table 14-style output.
func WriteAlgoTimes(w io.Writer, rows []AlgoTimes) {
	fmt.Fprintln(w, "Figure 9 / Table 14: graph algorithm runtimes (seconds)")
	t := stats.NewTable("graph", "system", "PR", "CC", "BC")
	for _, r := range rows {
		t.Row(r.Graph, r.System,
			fmt.Sprintf("%.3f", r.PR.Seconds()),
			fmt.Sprintf("%.3f", r.CC.Seconds()),
			fmt.Sprintf("%.3f", r.BC.Seconds()))
	}
	t.Write(w)
}

// WriteGraphInserts renders Table 15-style output.
func WriteGraphInserts(w io.Writer, rows []InsertGraphRow) {
	fmt.Fprintln(w, "Figure 10 / Table 15: graph batch-insert throughput (edges/s)")
	t := stats.NewTable("batch", "Aspen", "C-PaC", "F-Graph", "F/A", "F/C")
	for _, r := range rows {
		t.Row(stats.Sci(float64(r.BatchSize)),
			stats.Sci(r.Throughput["Aspen"]),
			stats.Sci(r.Throughput["C-PaC"]),
			stats.Sci(r.Throughput["F-Graph"]),
			stats.Ratio(r.Throughput["F-Graph"], r.Throughput["Aspen"]),
			stats.Ratio(r.Throughput["F-Graph"], r.Throughput["C-PaC"]))
	}
	t.Write(w)
}

// WriteGraphSpace renders Table 7-style output.
func WriteGraphSpace(w io.Writer, rows []SpaceRow) {
	fmt.Fprintln(w, "Table 7: graph memory footprint (MB; F/C, F/A below 1 = F-Graph smaller)")
	t := stats.NewTable("graph", "N", "M", "F-Graph", "C-PaC", "Aspen", "F/C", "F/A")
	mb := func(b uint64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
	for _, r := range rows {
		f, c, a := r.Bytes["F-Graph"], r.Bytes["C-PaC"], r.Bytes["Aspen"]
		t.Row(r.Graph, r.N, r.M, mb(f), mb(c), mb(a),
			stats.Ratio(float64(f), float64(c)), stats.Ratio(float64(f), float64(a)))
	}
	t.Write(w)
}
