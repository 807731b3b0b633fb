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
// table6 growfactor shards rebalance hotkey persist clonecost repl all.
// The defaults are ~100x below paper scale; raise -n/-k on a machine with
// the paper's 256 GB.
//
// The clonecost experiment measures the publish/checkpoint cost of the
// leaf-granular COW machinery: per steady-state size it streams uniform
// and clustered drains through a durable single-shard pipeline with one
// snapshot publication and one checkpoint per drain, and reports bytes
// actually copied (clone cost) and written (base + delta checkpoints)
// against the full-copy baselines. Results also land in -clonejson (for
// the repo's committed BENCH_clone.json). It exits nonzero if the
// clustered workload at the largest size misses the acceptance ratio
// (>= 10x cheaper than full copies at >= 1M keys/shard, >= 2x at the
// small CI smoke sizes).
//
// The shards experiment goes beyond the paper: it sweeps the concurrent
// sharded front-end from 1 to -shards shards, with -clients goroutines
// streaming batch inserts concurrently (something a single-writer CPMA
// cannot accept) and -readers goroutines issuing point lookups and range
// sums during the mixed phase; -partition selects hash or range routing.
// It then sweeps the mailbox pipeline over clients × mailbox depth
// (-depths), comparing fire-and-forget ingest (with a final Flush) against
// blocking ticketed InsertBatch calls and reporting the achieved coalesced
// batch size. With -zipf (or the standalone rebalance experiment) it adds
// the zipfian skew sweep: power-law inserts (-zipfs exponent) into a
// range-partitioned set with live span rebalancing off versus on,
// reporting per-shard load ratio, ingest throughput, and boundary moves —
// the standalone form exits nonzero if rebalancing leaves the max/mean
// key-count ratio above 2x. With -hotfrac > 0 it also embeds the hot-key
// absorption sweep.
//
// The hotkey experiment measures the hot-key absorber (shard
// Options.HotKeys): it streams single-key-hotspot workloads — power-law
// s=2.5 unscrambled, plus a -hotfrac/-hotkeys hot-spot mix — through the
// async pipeline with absorption off and on, differentially verifying
// each run's final contents against an exact model. Results land in
// -hotjson (the repo's committed BENCH_hotkey.json). It exits nonzero if
// any row fails verification or the power-law speedup misses the
// acceptance bound (>= 5x at >= 1M inserted keys, >= 2x at CI smoke
// sizes). Finally it sweeps
// snapshot-scan-while-ingesting (-scanners):
// concurrent full-set scans through Flush barriers versus lock-free
// Snapshot captures of the writer-published frozen handles, reporting
// scan and ingest throughput under each discipline plus the
// copy-on-publish cost (publishes, clone MB).
//
// The repl experiment measures WAL-shipping replication (internal/repl):
// it preloads and checkpoints a durable primary, then sweeps 0..3
// in-process followers, reporting bootstrap catch-up time, per-node and
// fleet snapshot-read capacity (per-node rates are measured
// time-multiplexed — each node serves while the others idle — and summed,
// the capacity model for replicas that own their own machines; the
// co-scheduled single-host aggregate is reported alongside), live-ingest
// tail lag, and tail catch-up time. Results land in -repljson (the repo's
// committed BENCH_repl.json). It exits nonzero if the 3-follower fleet
// capacity misses 2x the primary-only capacity.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/stats"
)

func main() {
	n := flag.Int("n", 1_000_000, "elements preloaded before measurement")
	k := flag.Int("k", 1_000_000, "elements inserted/deleted during measurement")
	queries := flag.Int("queries", 1_000, "parallel range queries per measurement")
	trials := flag.Int("trials", 3, "timed trials per query measurement")
	seed := flag.Uint64("seed", 42, "workload seed")
	shards := flag.Int("shards", runtime.NumCPU(), "max shard count for the shards experiment")
	clients := flag.Int("clients", 4, "concurrent writer clients for the shards experiment")
	readers := flag.Int("readers", 2, "concurrent readers in the shards mixed phase")
	partition := flag.String("partition", "hash", "shards experiment key routing: hash|range")
	depths := flag.String("depths", "1,8,64", "mailbox depths for the async ingest sweep")
	asyncBatch := flag.Int("asyncbatch", 500, "keys per client batch in the async ingest sweep")
	scanners := flag.String("scanners", "1,4", "scanner counts for the snapshot-scan sweep")
	persistDir := flag.String("persistdir", "", "directory for the persist experiment (default: a fresh temp dir)")
	zipf := flag.Bool("zipf", false, "add the zipfian skew/rebalance sweep to the shards experiment")
	zipfS := flag.Float64("zipfs", 1.1, "power-law exponent for the skew sweep")
	cloneJSON := flag.String("clonejson", "BENCH_clone.json", "output file for the clonecost experiment's JSON rows")
	hotFrac := flag.Float64("hotfrac", 0, "hot-spot traffic fraction for the hot-key sweep (0 disables the -shards embed; the hotkey experiment defaults to 0.9)")
	hotKeysN := flag.Int("hotkeys", 4, "distinct hot keys in the hot-key sweep's hot-spot workload")
	hotJSON := flag.String("hotjson", "BENCH_hotkey.json", "output file for the hotkey experiment's JSON rows")
	replJSON := flag.String("repljson", "BENCH_repl.json", "output file for the repl experiment's JSON rows")
	obsJSON := flag.String("obsjson", "BENCH_obs.json", "output file for the percentile rows of the shards/hotkey/persist experiments (empty disables)")
	obsAddr := flag.String("obs", "", "serve live observability (/metrics /statz /tracez /debug/pprof) on this address while experiments run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	flag.Parse()

	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving /metrics /statz /tracez /debug/pprof on %s\n", srv.Addr())
		// Each measurement set a sweep builds gets a fresh registry swapped
		// into the live server, so /metrics always reflects the current run.
		experiments.ObserveSet = func(label string, s *shard.Sharded) {
			r := obs.NewRegistry(label)
			s.RegisterMetrics(r, "cpma")
			srv.SetRegistry(r)
			srv.AddTrace("current", s.Trace())
		}
	}

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

	part, err := parsePartition(*partition)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fail(2)
	}
	depthList, err := parseInts(*depths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -depths: %v\n", err)
		fail(2)
	}
	scannerList, err := parseInts(*scanners)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -scanners: %v\n", err)
		fail(2)
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

	// Percentile rows accumulated across experiments for -obsjson.
	var obsRows []experiments.ObsRow

	// The fig1/fig2 comparison tables carry the sharded front-end flavors
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
	if all || run["shards"] {
		if *shards < 1 {
			*shards = 1
		}
		bs := *n / 100
		if bs < 1 {
			bs = 1
		}
		rows := experiments.ShardConcurrentClients(cfg, *shards, *clients, *readers, bs, part)
		fmt.Fprintf(out, "Sharded front-end (%s partition): %d concurrent clients, batch %d, 1..%d shards\n",
			*partition, *clients, bs, *shards)
		t := stats.NewTable("shards", "insert TP", "speedup", "mixed TP", "reads/s", "final n")
		base := rows[0]
		for _, r := range rows {
			t.Row(r.Shards,
				stats.Sci(r.InsertTP), stats.Ratio(r.InsertTP, base.InsertTP),
				stats.Sci(r.MixedTP), stats.Sci(r.ReadOps),
				stats.Sci(float64(r.FinalElems)))
		}
		t.Write(out)
		fmt.Fprintln(out)

		arows := experiments.ShardAsyncIngest(cfg, *shards, *clients, depthList, *asyncBatch, part)
		fmt.Fprintf(out, "Async ingest pipeline (%s partition): %d shards, client batch %d, clients x mailbox depth\n",
			*partition, *shards, *asyncBatch)
		at := stats.NewTable("clients", "depth", "ticketed TP", "async TP", "async/ticketed", "sub-batch", "applied", "coalesce", "p50 ms", "p99 ms")
		for _, r := range arows {
			at.Row(r.Clients, r.Depth,
				stats.Sci(r.TicketedTP), stats.Sci(r.AsyncTP), stats.Ratio(r.AsyncTP, r.TicketedTP),
				fmt.Sprintf("%.0f", r.MeanSubBatch), fmt.Sprintf("%.0f", r.MeanApplied),
				stats.Ratio(r.MeanApplied, r.MeanSubBatch),
				fmt.Sprintf("%.3f", r.P50ms), fmt.Sprintf("%.3f", r.P99ms))
			obsRows = append(obsRows, experiments.ObsRow{
				Experiment: "async-ingest",
				Label:      fmt.Sprintf("clients=%d depth=%d", r.Clients, r.Depth),
				Metric:     "mailbox_residency_ns",
				OpsPerSec:  r.AsyncTP,
				P50ms:      r.P50ms,
				P99ms:      r.P99ms,
				Samples:    r.LatSamples,
			})
		}
		at.Write(out)
		fmt.Fprintln(out)

		if *zipf {
			runRebalanceSweep(out, cfg, *shards, *clients, *asyncBatch, *zipfS)
		}
		if *hotFrac > 0 {
			// Embedded form: print the sweep, no gate (the standalone
			// hotkey experiment enforces the acceptance bound).
			hrows, _, _ := runHotKeySweep(out, cfg, *shards, *clients, *asyncBatch, *hotKeysN, []float64{*hotFrac}, "")
			obsRows = append(obsRows, hotKeyObsRows(hrows)...)
		}

		srows := experiments.ShardSnapshotScan(cfg, *shards, *clients, scannerList, *asyncBatch, part)
		fmt.Fprintf(out, "Snapshot scans while ingesting (%s partition): %d shards, %d clients, flush-barrier vs lock-free snapshot scans\n",
			*partition, *shards, *clients)
		st := stats.NewTable("scanners", "flush scans/s", "ingest TP", "snap scans/s", "ingest TP", "snap/flush", "publishes", "clone MB")
		for _, r := range srows {
			st.Row(r.Scanners,
				stats.Sci(r.FlushScans), stats.Sci(r.FlushIngestTP),
				stats.Sci(r.SnapScans), stats.Sci(r.SnapIngestTP),
				stats.Ratio(r.SnapScans, r.FlushScans),
				r.Publishes, fmt.Sprintf("%.1f", r.CloneMB))
		}
		st.Write(out)
		fmt.Fprintln(out)
	}
	if (all || run["rebalance"]) && !run["shards"] {
		// Standalone skew sweep (the shards experiment embeds it via -zipf).
		if !runRebalanceSweep(out, cfg, *shards, *clients, *asyncBatch, *zipfS) {
			fmt.Fprintln(os.Stderr, "rebalance sweep: skew ratio above the 2x acceptance bound with rebalancing on")
			fail(1)
		}
	}
	if all || run["hotkey"] {
		fracs := []float64{0.9}
		if *hotFrac > 0 {
			fracs = []float64{*hotFrac}
		}
		hrows, speedup, verified := runHotKeySweep(out, cfg, *shards, *clients, *asyncBatch, *hotKeysN, fracs, *hotJSON)
		obsRows = append(obsRows, hotKeyObsRows(hrows)...)
		thr := 2.0
		if cfg.TotalK >= 1_000_000 {
			thr = 5.0
		}
		if !verified {
			fmt.Fprintln(os.Stderr, "hotkey sweep: differential verification FAILED")
			fail(1)
		}
		if speedup < thr {
			fmt.Fprintf(os.Stderr, "hotkey sweep: power-law absorber speedup %.1fx below the %.0fx acceptance bound\n", speedup, thr)
			fail(1)
		}
	}
	if all || run["persist"] {
		dir := *persistDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "cpma-persist-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				fail(1)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		fmt.Fprintf(out, "Durable sharded set (%s partition): ingest -> kill -> recover -> verify\n", *partition)
		r, err := experiments.PersistSmoke(cfg, *shards, *clients, *n/100+1, part, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "persist experiment: %v\n", err)
			fail(1)
		}
		t := stats.NewTable("phase", "keys", "ok", "detail")
		t.Row("ingest", stats.Sci(float64(r.Keys)), "-",
			fmt.Sprintf("%.2e keys/s, %.1f MB WAL, %d fsyncs, %d ckpts (%.1f MB)",
				r.IngestTP, r.WalMB, r.Fsyncs, r.Ckpts, r.CkptMB))
		t.Row("wal stalls", "-", "-",
			fmt.Sprintf("append p50/p99 %.3f/%.3f ms, fsync p50/p99 %.3f/%.3f ms",
				r.AppendP50ms, r.AppendP99ms, r.FsyncP50ms, r.FsyncP99ms))
		obsRows = append(obsRows,
			experiments.ObsRow{Experiment: "persist", Label: "wal-append", Metric: "wal_append_ns",
				OpsPerSec: r.IngestTP, P50ms: r.AppendP50ms, P99ms: r.AppendP99ms, Samples: r.AppendSamples},
			experiments.ObsRow{Experiment: "persist", Label: "wal-fsync", Metric: "wal_fsync_ns",
				OpsPerSec: r.IngestTP, P50ms: r.FsyncP50ms, P99ms: r.FsyncP99ms, Samples: r.FsyncSamples})
		t.Row("clean reopen", stats.Sci(float64(r.CleanLen)), fmt.Sprintf("%v", r.CleanOK), "exact state restored")
		t.Row("torn reopen", stats.Sci(float64(r.TornLen)), fmt.Sprintf("%v", r.TornOK),
			fmt.Sprintf("cut %d B off one WAL, replayed %d batches, discarded %d torn B",
				r.TornCut, r.Replayed, r.TornBytes))
		t.Write(out)
		if !r.CleanOK || !r.TornOK {
			fmt.Fprintln(os.Stderr, "persist experiment: recovery verification FAILED")
			fail(1)
		}
		fmt.Fprintln(out)
	}
	if all || run["repl"] {
		if err := runReplSweep(out, *n, *shards, *readers, *seed, *replJSON); err != nil {
			fmt.Fprintf(os.Stderr, "repl experiment: %v\n", err)
			fail(1)
		}
	}
	if all || run["clonecost"] {
		if err := runCloneCost(out, cfg, *n, *cloneJSON); err != nil {
			fmt.Fprintf(os.Stderr, "clonecost experiment: %v\n", err)
			fail(1)
		}
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

	if *obsJSON != "" && len(obsRows) > 0 {
		blob, err := json.MarshalIndent(struct {
			Shards  int                  `json:"shards"`
			Clients int                  `json:"clients"`
			TotalK  int                  `json:"total_keys"`
			Note    string               `json:"note"`
			Rows    []experiments.ObsRow `json:"rows"`
		}{*shards, *clients, *k,
			"p50/p99 are obs-histogram quantiles of each experiment's dominant stage latency over its timed phase; buckets are power-of-two wide, so values are bucket-interpolated",
			obsRows}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			fail(1)
		}
		if err := os.WriteFile(*obsJSON, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			fail(1)
		}
		fmt.Fprintf(out, "obs: wrote %s (%d percentile rows)\n", *obsJSON, len(obsRows))
	}
}

// hotKeyObsRows distills a hot-key sweep into percentile rows for
// -obsjson: one row per (workload, absorber) pair.
func hotKeyObsRows(rows []experiments.HotKeyRow) []experiments.ObsRow {
	var out []experiments.ObsRow
	for _, r := range rows {
		label := fmt.Sprintf("%s frac=%.2f absorb=%v", r.Workload, r.HotFrac, r.Absorb)
		out = append(out, experiments.ObsRow{
			Experiment: "hotkey",
			Label:      label,
			Metric:     "mailbox_residency_ns",
			OpsPerSec:  r.IngestTP,
			P50ms:      r.P50ms,
			P99ms:      r.P99ms,
		})
	}
	return out
}

// runCloneCost runs the publish/checkpoint cost sweep at n/10 and n keys
// per shard, prints the table, writes the JSON rows to jsonPath, and
// enforces the acceptance gate on the clustered workload at the largest
// size: COW clones and delta checkpoints must beat the full-copy
// baselines by >= 10x at paper-adjacent scale (>= 1M keys/shard), or by
// >= 2x at CI smoke sizes.
func runCloneCost(out *os.File, cfg experiments.MicroConfig, n int, jsonPath string) error {
	sizes := []int{n / 10, n}
	if sizes[0] < 1 {
		sizes = sizes[1:]
	}
	const rounds, batch = 16, 2048
	dir, err := os.MkdirTemp("", "cpma-clonecost-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rows, err := experiments.CloneCostSweep(cfg, sizes, rounds, batch, dir)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "Publish/checkpoint cost per drain (1 shard, %d rounds, batch size/500 capped at %d): COW clones and delta checkpoints vs full copies\n",
		rounds, batch)
	t := stats.NewTable("workload", "keys", "batch", "publishes", "clone MB", "full MB", "ratio",
		"ckpts", "deltas", "ckpt MB", "full MB", "ratio", "ingest TP")
	for _, r := range rows {
		t.Row(r.Workload, stats.Sci(float64(r.Keys)), r.Batch, r.Publishes,
			fmt.Sprintf("%.2f", r.CloneMB), fmt.Sprintf("%.2f", r.FullMB), fmt.Sprintf("%.1fx", r.CloneRatio),
			r.Checkpoints, r.Deltas,
			fmt.Sprintf("%.2f", r.CkptMB), fmt.Sprintf("%.2f", r.FullCkptMB), fmt.Sprintf("%.1fx", r.CkptRatio),
			stats.Sci(r.IngestTP))
	}
	t.Write(out)
	fmt.Fprintln(out)

	blob, err := json.MarshalIndent(struct {
		Rounds int                        `json:"rounds"`
		Batch  int                        `json:"batch"`
		Rows   []experiments.CloneCostRow `json:"rows"`
	}{rounds, batch, rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "clonecost: wrote %s\n\n", jsonPath)

	largest := sizes[len(sizes)-1]
	thr := 2.0
	if largest >= 1_000_000 {
		thr = 10.0
	}
	for _, r := range rows {
		if r.Workload != "clustered" || r.Keys != largest {
			continue
		}
		if r.CloneRatio < thr || r.CkptRatio < thr {
			return fmt.Errorf("clustered drains at %d keys: clone ratio %.1fx / checkpoint ratio %.1fx below the %.0fx acceptance bound",
				largest, r.CloneRatio, r.CkptRatio, thr)
		}
	}
	return nil
}

// runReplSweep runs the replication capacity sweep (0..3 followers),
// prints the table, writes the JSON rows to jsonPath, and enforces the
// acceptance gate: fleet snapshot-read capacity at 3 followers must be
// >= 2x the primary-only capacity.
func runReplSweep(out *os.File, n, shards, readers int, seed uint64, jsonPath string) error {
	preload := n / 10
	if preload < 1_000 {
		preload = 1_000
	}
	dir, err := os.MkdirTemp("", "cpma-repl-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := experiments.ReplConfig{
		Shards:    shards,
		Readers:   readers,
		Preload:   preload,
		Followers: []int{0, 1, 2, 3},
		Seed:      seed,
	}
	rows, err := experiments.ReplSweep(cfg, dir)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "WAL-shipping replication (%d shards, %d keys preloaded, %d readers/node): fleet snapshot-read capacity vs follower count\n",
		shards, preload, cfg.Readers)
	fmt.Fprintln(out, "(fleet TP = sum of per-node rates measured one node at a time — the capacity model for replicas on their own machines; cosched TP = all nodes sharing this one host)")
	t := stats.NewTable("followers", "catchup ms", "fleet TP", "gain", "cosched TP", "tail ms", "peak lag", "shipped keys", "boots")
	for _, r := range rows {
		t.Row(r.Followers,
			fmt.Sprintf("%.1f", r.CatchupMS),
			stats.Sci(r.FleetTP), fmt.Sprintf("%.2fx", r.FleetGain),
			stats.Sci(r.CoschedTP),
			fmt.Sprintf("%.1f", r.TailCatchupMS),
			r.MaxLagRecords, stats.Sci(float64(r.ShippedKeys)), r.Bootstraps)
	}
	t.Write(out)
	fmt.Fprintln(out)

	blob, err := json.MarshalIndent(struct {
		Shards        int                   `json:"shards"`
		Readers       int                   `json:"readers_per_node"`
		PreloadKeys   int                   `json:"preload_keys"`
		CapacityModel string                `json:"capacity_model"`
		Rows          []experiments.ReplRow `json:"rows"`
	}{shards, cfg.Readers, preload,
		"fleet_read_tp sums per-node rates measured time-multiplexed (one node serving at a time), the capacity model for replicas deployed on separate machines; cosched_read_tp co-schedules every node on this single benchmark host",
		rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "repl: wrote %s\n\n", jsonPath)

	last := rows[len(rows)-1]
	if last.Followers >= 3 && last.FleetGain < 2.0 {
		return fmt.Errorf("fleet capacity at %d followers is %.2fx primary-only, below the 2x acceptance bound",
			last.Followers, last.FleetGain)
	}
	return nil
}

// runRebalanceSweep prints the zipfian skew sweep (rebalance off vs on
// over a range-partitioned set) and reports whether the
// rebalance-on run met the <= 2x max/mean load-ratio bound.
func runRebalanceSweep(out *os.File, cfg experiments.MicroConfig, shards, clients, batchSize int, s float64) bool {
	rows := experiments.ShardRebalanceSweep(cfg, shards, clients, batchSize, s)
	fmt.Fprintf(out, "Zipfian skew sweep (range partition, power-law s=%.2f over %d-bit keys): %d shards, %d clients, live rebalancing off vs on\n",
		s, experiments.RebalanceBits, shards, clients)
	t := stats.NewTable("rebalance", "ingest TP", "TP gain", "max/mean", "hot frac", "moves", "moved keys", "final n")
	ok := true
	var offTP float64
	for _, r := range rows {
		name := "off"
		gain := "-"
		if r.Rebalance {
			name = "on"
			gain = stats.Ratio(r.IngestTP, offTP)
			if shards > 1 && r.MaxMeanRatio > 2 {
				ok = false
			}
		} else {
			offTP = r.IngestTP
		}
		t.Row(name, stats.Sci(r.IngestTP), gain,
			fmt.Sprintf("%.2f", r.MaxMeanRatio), fmt.Sprintf("%.2f", r.MaxShardFrac),
			r.Moves, stats.Sci(float64(r.MovedKeys)), stats.Sci(float64(r.FinalKeys)))
	}
	t.Write(out)
	fmt.Fprintln(out)
	return ok
}

// runHotKeySweep prints the hot-key absorption sweep (absorber off vs on
// over identical skewed streams), optionally writes the JSON rows to
// jsonPath (skipped when empty — the -shards embedded form), and returns
// the power-law row pair's on/off throughput ratio plus whether every row
// passed its exact differential verification.
func runHotKeySweep(out *os.File, cfg experiments.MicroConfig, shards, clients, batchSize, hotKeys int, hotFracs []float64, jsonPath string) (rows []experiments.HotKeyRow, speedup float64, verified bool) {
	const s = 2.5
	rows = experiments.ShardHotKeySweep(cfg, shards, clients, batchSize, hotKeys, s, hotFracs)
	fmt.Fprintf(out, "Hot-key absorption sweep (hash partition, %d shards, %d clients): power-law s=%.1f unscrambled + hot-spot mixes, absorber off vs on\n",
		shards, clients, s)
	t := stats.NewTable("workload", "hot frac", "absorb", "ingest TP", "TP gain", "absorbed", "promos", "demos", "final n", "verified", "p50 ms", "p99 ms")
	verified = true
	var offTP float64
	for _, r := range rows {
		name, gain := "off", "-"
		if r.Absorb {
			name = "on"
			gain = stats.Ratio(r.IngestTP, offTP)
			if r.Workload == "powerlaw-2.5" && offTP > 0 {
				speedup = r.IngestTP / offTP
			}
		} else {
			offTP = r.IngestTP
		}
		if !r.Verified {
			verified = false
		}
		t.Row(r.Workload, fmt.Sprintf("%.2f", r.HotFrac), name,
			stats.Sci(r.IngestTP), gain,
			fmt.Sprintf("%.0f%%", 100*r.AbsorbedFrac),
			r.Promotions, r.Demotions,
			stats.Sci(float64(r.FinalKeys)), fmt.Sprintf("%v", r.Verified),
			fmt.Sprintf("%.3f", r.P50ms), fmt.Sprintf("%.3f", r.P99ms))
	}
	t.Write(out)
	fmt.Fprintln(out)

	if jsonPath != "" {
		blob, err := json.MarshalIndent(struct {
			Shards    int                     `json:"shards"`
			Clients   int                     `json:"clients"`
			TotalKeys int                     `json:"total_keys"`
			PowerLawS float64                 `json:"powerlaw_s"`
			Rows      []experiments.HotKeyRow `json:"rows"`
		}{shards, clients, cfg.TotalK, s, rows}, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotkey sweep: %v\n", err)
			return rows, speedup, false
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hotkey sweep: %v\n", err)
			return rows, speedup, false
		}
		fmt.Fprintf(out, "hotkey: wrote %s\n\n", jsonPath)
	}
	return rows, speedup, verified
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

func parsePartition(s string) (shard.Partition, error) {
	switch s {
	case "hash":
		return shard.HashPartition, nil
	case "range":
		return shard.RangePartition, nil
	}
	return 0, fmt.Errorf("bad -partition %q: want hash or range", s)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d out of range", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
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
