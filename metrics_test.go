package repro_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro"
)

// TestMetricCatalog pins every metric a durable primary, its follower and
// a sharded F-Graph export into one registry: kind, name and unit. A
// renamed, dropped, retyped or unit-less metric fails here, and so does
// a new one until it is listed.
func TestMetricCatalog(t *testing.T) {
	set, pr, err := repro.OpenPrimary(t.TempDir(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	f := repro.OpenFollower(2, nil)
	g := repro.NewShardedFGraph(64, 2, nil)
	defer g.Close()

	m := repro.NewMetrics("catalog")
	repro.Observe(set, m, "cpma")
	pr.RegisterMetrics(m, "repl")
	f.RegisterMetrics(m, "follower")
	g.RegisterMetrics(m, "fgraph")

	var got []string
	for _, s := range m.Gather() {
		if s.Kind != "histogram" && s.Unit == "" {
			t.Errorf("%s %s has no unit", s.Kind, s.Name)
		}
		got = append(got, fmt.Sprintf("%s %s %s", s.Kind, s.Name, s.Unit))
	}
	slices.Sort(got)
	want := strings.Split(strings.TrimSpace(metricCatalog), "\n")
	for i := range want {
		want[i] = strings.Join(strings.Fields(want[i]), " ")
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		for _, w := range want {
			if !slices.Contains(got, w) {
				t.Errorf("missing: %s", w)
			}
		}
		for _, x := range got {
			if !slices.Contains(want, x) {
				t.Errorf("unexpected: %s", x)
			}
		}
	}
}

// metricCatalog is one "kind name unit" line per exported metric: 58
// counters and gauges and 24 histograms.
const metricCatalog = `
histogram cpma_checkpoint_ns                  ns
histogram cpma_coalesce_keys                  keys
histogram cpma_drain_ns                       ns
counter   cpma_ingest_applied_batches         batches
counter   cpma_ingest_applied_keys            keys
counter   cpma_ingest_enqueued_batches        batches
counter   cpma_ingest_enqueued_keys           keys
histogram cpma_mailbox_residency_ns           ns
histogram cpma_move_ns                        ns
counter   cpma_persist_appended_batches       records
counter   cpma_persist_appended_bytes         bytes
counter   cpma_persist_appended_keys          keys
counter   cpma_persist_checkpoint_bytes       bytes
counter   cpma_persist_checkpoints            files
counter   cpma_persist_delta_bytes            bytes
counter   cpma_persist_delta_checkpoints      files
counter   cpma_persist_dropped_keys           keys
counter   cpma_persist_fsyncs                 fsyncs
counter   cpma_persist_move_records           records
counter   cpma_persist_moved_keys             keys
counter   cpma_persist_recovered_keys         keys
counter   cpma_persist_replayed_batches       records
counter   cpma_persist_replayed_keys          keys
counter   cpma_persist_torn_bytes             bytes
counter   cpma_persist_truncated_segments     files
histogram cpma_publish_ns                     ns
histogram cpma_quiesce_ns                     ns
counter   cpma_rebalance_checks               checks
counter   cpma_rebalance_gen                  generation
counter   cpma_rebalance_moved_keys           keys
counter   cpma_rebalance_moves                moves
counter   cpma_snapshot_captures              captures
counter   cpma_snapshot_clone_bytes           bytes
counter   cpma_snapshot_clone_slab_bytes      bytes
counter   cpma_snapshot_clone_spine_bytes     bytes
counter   cpma_snapshot_epochs                epochs
counter   cpma_snapshot_full_copy_bytes       bytes
counter   cpma_snapshot_publishes             handles
histogram cpma_wal_append_ns                  ns
histogram cpma_wal_checkpoint_ns              ns
histogram cpma_wal_fsync_ns                   ns
histogram fgraph_index_build_ns               ns
histogram fgraph_set_checkpoint_ns            ns
histogram fgraph_set_coalesce_keys            keys
histogram fgraph_set_drain_ns                 ns
counter   fgraph_set_ingest_applied_batches   batches
counter   fgraph_set_ingest_applied_keys      keys
counter   fgraph_set_ingest_enqueued_batches  batches
counter   fgraph_set_ingest_enqueued_keys     keys
histogram fgraph_set_mailbox_residency_ns     ns
histogram fgraph_set_move_ns                  ns
histogram fgraph_set_publish_ns               ns
histogram fgraph_set_quiesce_ns               ns
counter   fgraph_set_rebalance_checks         checks
counter   fgraph_set_rebalance_gen            generation
counter   fgraph_set_rebalance_moved_keys     keys
counter   fgraph_set_rebalance_moves          moves
counter   fgraph_set_snapshot_captures        captures
counter   fgraph_set_snapshot_clone_bytes     bytes
counter   fgraph_set_snapshot_clone_slab_bytes bytes
counter   fgraph_set_snapshot_clone_spine_bytes bytes
counter   fgraph_set_snapshot_epochs          epochs
counter   fgraph_set_snapshot_full_copy_bytes bytes
counter   fgraph_set_snapshot_publishes       handles
gauge     fgraph_view_edges                   edges
histogram fgraph_view_lag_keys                keys
counter   fgraph_views_built                  views
counter   follower_applied_keys               keys
counter   follower_applied_records            records
histogram follower_apply_ns                   ns
counter   follower_attaches                   links
counter   follower_bootstraps                 transfers
histogram repl_bootstrap_ns                   ns
counter   repl_bootstraps                     transfers
counter   repl_bounds_updates                 tables
gauge     repl_lag_records                    records
gauge     repl_links                          links
histogram repl_ship_ns                        ns
counter   repl_shipped_keys                   keys
counter   repl_shipped_records                records
`
