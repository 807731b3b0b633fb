// Command fgraph-bench regenerates the paper's dynamic-graph evaluation:
// the algorithm suite of Figure 9 / Table 14 (PR, CC, BC on F-Graph vs
// C-PaC vs Aspen), the batch-insert throughput of Figure 10 / Table 15,
// and the memory footprint of Table 7.
//
// Usage:
//
//	fgraph-bench [flags] <experiment>...
//	fgraph-bench algos inserts space
//	fgraph-bench all
//
// The synthetic graphs are scaled R-MAT/Erdős–Rényi stand-ins for the
// paper's social networks; -graphs selects a subset.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	seed := flag.Uint64("seed", 42, "graph seed")
	prIters := flag.Int("priters", 10, "PageRank iterations")
	inserts := flag.Int("inserts", 1_000_000, "edges inserted in the throughput benchmark")
	graphsFlag := flag.String("graphs", "LJ,CO,ER", "comma-separated graph subset (LJ,CO,ER,TW,FS)")
	flag.Parse()

	keep := map[string]bool{}
	for _, g := range strings.Split(*graphsFlag, ",") {
		keep[strings.TrimSpace(g)] = true
	}
	var graphs []workload.SyntheticGraph
	for _, g := range workload.PaperGraphs() {
		if keep[g.Name] {
			graphs = append(graphs, g)
		}
	}
	if len(graphs) == 0 {
		fmt.Fprintln(os.Stderr, "no graphs selected")
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "no experiment given; try: fgraph-bench all")
		os.Exit(2)
	}
	run := map[string]bool{}
	for _, a := range args {
		run[a] = true
	}
	all := run["all"]
	out := os.Stdout
	fmt.Fprintf(out, "fgraph-bench: graphs=%s GOMAXPROCS=%d\n\n", *graphsFlag, runtime.GOMAXPROCS(0))

	if all || run["algos"] {
		rows := experiments.Fig9GraphAlgos(graphs, *seed, *prIters)
		experiments.WriteAlgoTimes(out, rows)
		writeAlgoRatios(rows)
		fmt.Fprintln(out)
	}
	if all || run["inserts"] {
		base := graphs[len(graphs)-1] // largest selected graph, like the paper's FS
		rows := experiments.Fig10GraphInserts(base, *seed, *inserts)
		experiments.WriteGraphInserts(out, rows)
		fmt.Fprintln(out)
	}
	if all || run["space"] {
		rows := experiments.Table7GraphSpace(graphs, *seed)
		experiments.WriteGraphSpace(out, rows)
		fmt.Fprintln(out)
	}
}

// writeAlgoRatios prints the speedup-over-baselines summary of Figure 9.
func writeAlgoRatios(rows []experiments.AlgoTimes) {
	byKey := map[string]experiments.AlgoTimes{}
	var graphs []string
	for _, r := range rows {
		if r.System == "F-Graph" {
			graphs = append(graphs, r.Graph)
		}
		byKey[r.Graph+"/"+r.System] = r
	}
	t := stats.NewTable("graph", "PR F/A", "PR F/C", "CC F/A", "CC F/C", "BC F/A", "BC F/C")
	for _, g := range graphs {
		f := byKey[g+"/F-Graph"]
		a := byKey[g+"/Aspen"]
		c := byKey[g+"/C-PaC"]
		t.Row(g,
			stats.Ratio(a.PR.Seconds(), f.PR.Seconds()),
			stats.Ratio(c.PR.Seconds(), f.PR.Seconds()),
			stats.Ratio(a.CC.Seconds(), f.CC.Seconds()),
			stats.Ratio(c.CC.Seconds(), f.CC.Seconds()),
			stats.Ratio(a.BC.Seconds(), f.BC.Seconds()),
			stats.Ratio(c.BC.Seconds(), f.BC.Seconds()))
	}
	fmt.Println("Speedups over baselines (>1 = F-Graph faster):")
	t.Write(os.Stdout)
}
