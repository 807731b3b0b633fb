// Command cpma-bench regenerates the paper's set microbenchmarks: Figures
// 1, 2, 7, 8, 11, the growing-factor study of Appendix C (Figures 12/13),
// and Tables 1, 3, 4, 5, 6 (equivalently Tables 9-13 of the appendix).
//
// Usage:
//
//	cpma-bench [flags] <experiment>...
//	cpma-bench -n 1000000 -k 1000000 fig1 fig2 table5
//	cpma-bench all
//
// Experiments: fig1 fig2 fig7 fig8 fig11 table1 table3 table4 table5
// table6 growfactor all. The defaults are ~100x below paper scale; raise
// -n/-k on a machine with the paper's 256 GB. The fig1/fig2 tables add the
// sharded front-end at -shards shards beside the paper's five systems.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cachesim"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	n := flag.Int("n", 1_000_000, "elements preloaded before measurement")
	k := flag.Int("k", 1_000_000, "elements inserted/deleted during measurement")
	queries := flag.Int("queries", 1_000, "parallel range queries per measurement")
	trials := flag.Int("trials", 3, "timed trials per query measurement")
	seed := flag.Uint64("seed", 42, "workload seed")
	shards := flag.Int("shards", runtime.NumCPU(), "shard count of the sharded set in the fig1/fig2 comparison")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		profiling = true
		defer pprof.StopCPUProfile()
	}

	cfg := experiments.MicroConfig{BaseN: *n, TotalK: *k, Seed: *seed, Trials: *trials}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "no experiment given; try: cpma-bench all")
		fail(2)
	}
	run := map[string]bool{}
	for _, a := range args {
		run[a] = true
	}
	all := run["all"]
	out := os.Stdout
	fmt.Fprintf(out, "cpma-bench: n=%d k=%d GOMAXPROCS=%d\n\n", *n, *k, runtime.GOMAXPROCS(0))

	// The fig1/fig2 comparison tables carry the sharded front-end
	// alongside the paper's five single-writer systems.
	makers := experiments.ComparisonSetMakers(*shards)
	if all || run["fig1"] {
		rows := experiments.Fig1BatchInsert(makers, cfg, false)
		experiments.WriteInsertRows(out, "Figure 1 / Table 9: parallel batch-insert throughput (inserts/s), uniform 40-bit", makers, rows)
		fmt.Fprintln(out)
	}
	if all || run["fig2"] {
		rows := experiments.Fig2RangeQuery(makers, cfg, *queries)
		experiments.WriteRangeRows(out, "Figure 2 / Table 10: range-query throughput (elements/s)", makers, rows)
		fmt.Fprintln(out)
	}
	if all || run["fig11"] {
		rows := experiments.Fig1BatchInsert(experiments.AllSetMakers(), cfg, true)
		experiments.WriteInsertRows(out, "Figure 11 / Table 13: zipfian batch-insert throughput (inserts/s)", experiments.AllSetMakers(), rows)
		fmt.Fprintln(out)
	}
	if all || run["table1"] {
		res := cachesim.Table1(cachesim.DefaultConfig())
		fmt.Fprintln(out, "Table 1: simulated cache misses during batch inserts (scaled replay)")
		t := stats.NewTable("workload", "L1 misses", "L3 misses")
		for _, r := range res {
			t.Row(r.Name, stats.Sci(float64(r.L1Misses)), stats.Sci(float64(r.L3Misses)))
		}
		t.Write(out)
		fmt.Fprintln(out)
	}
	if all || run["table3"] {
		rows := experiments.Table3SerialVsParallel(cfg)
		fmt.Fprintln(out, "Table 3: serial vs parallel PMA batch inserts (inserts/s)")
		t := stats.NewTable("batch", "serial TP", "parallel TP", "speedup")
		for _, r := range rows {
			t.Row(stats.Sci(float64(r.BatchSize)), stats.Sci(r.SerialTP), stats.Sci(r.ParallelTP),
				stats.Ratio(r.ParallelTP, r.SerialTP))
		}
		t.Write(out)
		fmt.Fprintln(out)
	}
	if all || run["table4"] {
		rows := experiments.Table4RMA(cfg)
		fmt.Fprintln(out, "Table 4: serial batch inserts, RMA baseline vs this paper's PMA (inserts/s)")
		fmt.Fprintln(out, "RMA: the PMA's segment-at-a-time insert (cpma.InsertBatchRMA); the RMA's OS-level memory rewiring is out of scope in pure Go")
		t := stats.NewTable("batch", "RMA", "PMA", "PMA/RMA")
		for _, r := range rows {
			t.Row(stats.Sci(float64(r.BatchSize)), stats.Sci(r.RMATP), stats.Sci(r.PMATP),
				stats.Ratio(r.PMATP, r.RMATP))
		}
		t.Write(out)
		fmt.Fprintln(out)
	}
	if all || run["table5"] {
		for _, dist := range []struct {
			name string
			zipf bool
		}{{"uniform", false}, {"zipfian", true}} {
			rows := experiments.Table5InsertDelete(cfg, dist.zipf)
			fmt.Fprintf(out, "Table 5 (%s): batch inserts and deletes (updates/s)\n", dist.name)
			t := stats.NewTable("batch", "PMA ins", "PMA del", "D/I", "CPMA ins", "CPMA del", "D/I")
			for _, r := range rows {
				t.Row(stats.Sci(float64(r.BatchSize)),
					stats.Sci(r.PMAInsert), stats.Sci(r.PMADelete), stats.Ratio(r.PMADelete, r.PMAInsert),
					stats.Sci(r.CPMAInsert), stats.Sci(r.CPMADelete), stats.Ratio(r.CPMADelete, r.CPMAInsert))
			}
			t.Write(out)
			fmt.Fprintln(out)
		}
	}
	if all || run["table6"] {
		sizes := []int{*n / 10, *n, *n * 4}
		rows := experiments.Table6Space(experiments.AllSetMakers(), sizes, *seed)
		fmt.Fprintln(out, "Table 6: bytes per element")
		t := stats.NewTable("n", "U-PaC", "PMA", "C-PaC", "CPMA", "CPMA/C-PaC", "CPMA/PMA")
		for _, r := range rows {
			t.Row(stats.Sci(float64(r.N)),
				fmt.Sprintf("%.2f", r.BytesPerElem["U-PaC"]),
				fmt.Sprintf("%.2f", r.BytesPerElem["PMA"]),
				fmt.Sprintf("%.2f", r.BytesPerElem["C-PaC"]),
				fmt.Sprintf("%.2f", r.BytesPerElem["CPMA"]),
				stats.Ratio(r.BytesPerElem["CPMA"], r.BytesPerElem["C-PaC"]),
				stats.Ratio(r.BytesPerElem["CPMA"], r.BytesPerElem["PMA"]))
		}
		t.Write(out)
		fmt.Fprintln(out)
	}
	if all || run["fig7"] {
		rows := experiments.Fig7InsertScaling(cfg)
		fmt.Fprintln(out, "Figure 7 / Table 11: batch-insert strong scaling")
		writeScaling(rows)
	}
	if all || run["fig8"] {
		rows := experiments.Fig8RangeScaling(cfg, *queries, *n/100+1)
		fmt.Fprintln(out, "Figure 8 / Table 12: range-query strong scaling")
		writeScaling(rows)
	}
	if all || run["growfactor"] {
		factors := []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}
		rows := experiments.AppCGrowingFactor(cfg, factors)
		fmt.Fprintln(out, "Appendix C (Figures 12/13): growing-factor sensitivity")
		t := stats.NewTable("factor", "insert TP", "bytes/elem", "scan TP")
		for _, r := range rows {
			t.Row(fmt.Sprintf("%.1f", r.Factor), stats.Sci(r.InsertTP),
				fmt.Sprintf("%.2f", r.BytesPerElem), stats.Sci(r.ScanTP))
		}
		t.Write(out)
		fmt.Fprintln(out)
	}
}

// profiling notes whether a -cpuprofile run is active so fail can flush
// the profile before exiting nonzero (deferred stops don't run past
// os.Exit).
var profiling bool

func fail(code int) {
	if profiling {
		pprof.StopCPUProfile()
	}
	os.Exit(code)
}

func writeScaling(rows []experiments.ScalingRow) {
	t := stats.NewTable("cores", "PMA TP", "PMA speedup", "CPMA TP", "CPMA speedup")
	base := rows[0]
	for _, r := range rows {
		t.Row(r.Procs,
			stats.Sci(r.PMATP), stats.Ratio(r.PMATP, base.PMATP),
			stats.Sci(r.CPMATP), stats.Ratio(r.CPMATP, base.CPMATP))
	}
	t.Write(os.Stdout)
	fmt.Println()
}
