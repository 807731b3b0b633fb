package main

// metricSpec names one reported metric. End-to-end metrics are reported by
// untraced runs on every workload; per-layer metrics by traced runs, with
// value 0 and no samples on a workload that does not exercise the layer.
// BENCHMARK.json lists the same names, units and directions and adds the
// end-to-end bounds; the smoke test keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"bytes_per_key", "B/key", "lower"},
}

// The client metrics open the per-layer list. They are what a user of the
// set sees, like the end-to-end metrics, and are measured with tracing
// off: by every untraced run, which writes them to its result file, and by
// the untraced half of a traced run. Their run-to-run spread on the
// machine the benchmark was sized on is wider than the 10% bound an
// end-to-end metric may have, so they carry no bound.
var perLayer = []metricSpec{
	{"read_keys_per_s", "keys/s", "higher"},
	{"point_reads_per_s", "ops/s", "higher"},
	{"write_keys_per_s", "keys/s", "higher"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p90_ms", "ms", "lower"},

	{"shard.enqueue_busy_s", "s", "lower"},
	{"shard.enqueue_us_p50", "us", "lower"},
	{"shard.flush_wait_ms_p50", "ms", "lower"},
	{"shard.mailbox_residency_ms_p50", "ms", "lower"},
	{"shard.mailbox_residency_ms_p99", "ms", "lower"},
	{"shard.drain_busy_s", "s", "lower"},
	{"shard.drains", "count", "lower"},
	{"shard.coalesce_keys_mean", "keys", "higher"},
	{"shard.publish_busy_s", "s", "lower"},
	{"shard.publishes", "count", "lower"},
	{"shard.clone_bytes_per_key", "B/key", "lower"},
	{"shard.capture_us_p50", "us", "lower"},

	{"persist.wal_append_busy_s", "s", "lower"},
	{"persist.wal_append_us_p50", "us", "lower"},
	{"persist.wal_bytes_per_key", "B/key", "lower"},
	{"persist.fsyncs", "count", "lower"},
	{"persist.fsync_busy_s", "s", "lower"},
	{"persist.fsync_ms_p50", "ms", "lower"},
	{"persist.checkpoint_ms_p50", "ms", "lower"},
	{"persist.checkpoint_bytes_per_key", "B/key", "lower"},
	{"persist.replayed_keys", "keys", "lower"},
	{"persist.recover_ms_p50", "ms", "lower"},

	{"repl.ship_busy_s", "s", "lower"},
	{"repl.follower_apply_busy_s", "s", "lower"},
	{"repl.lag_records_p50", "records", "lower"},
	{"repl.lag_records_max", "records", "lower"},
	{"repl.catchup_ms", "ms", "lower"},

	{"cpma.apply_busy_s", "s", "lower"},
	{"cpma.insert_ms_p50", "ms", "lower"},
	{"cpma.remove_ms_p50", "ms", "lower"},
	{"cpma.insert_keys_per_s.b100", "keys/s", "higher"},
	{"cpma.insert_keys_per_s.b1k", "keys/s", "higher"},
	{"cpma.insert_keys_per_s.b10k", "keys/s", "higher"},
	{"cpma.insert_keys_per_s.b100k", "keys/s", "higher"},
	{"cpma.range_us_p50", "us", "lower"},
	{"cpma.has_ns_mean", "ns", "lower"},

	{"fgraph.neighbors_ns_mean", "ns", "lower"},
	{"fgraph.view_ms_p50_streaming", "ms", "lower"},
	{"fgraph.view_lag_keys_mean", "keys", "lower"},
	{"fgraph.view_lag_keys_max", "keys", "lower"},
	{"fgraph.view_ms_p50", "ms", "lower"},
	{"graph.bfs_ms_p50", "ms", "lower"},
	{"graph.pagerank_ms_p50", "ms", "lower"},
	{"graph.bfs_edges_per_s", "edges/s", "higher"},
	{"graph.pagerank_edge_iters_per_s", "edges/s", "higher"},

	{"bench.writer_late_ms_p99", "ms", "lower"},
	{"bench.writer_late_ms_max", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.span_coverage", "ratio", "higher"},
}

// catalog is every metric in report order.
var catalog = append(append([]metricSpec(nil), endToEnd...), perLayer...)

// specOf returns the catalog entry for a metric name.
func specOf(name string) (metricSpec, bool) {
	for _, m := range catalog {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(r *runner) error
}

// workloads lists the benchmark's workloads in run order. Each stresses a
// different part of the system; BENCHMARK.json and README.md say why.
var workloads = []workload{
	{"durable-ingest", runDurable},
	{"snapshot-reads", runSnapshotReads},
	{"core-batch", runCoreBatch},
	{"graph-stream", runGraphStream},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
