// Package obs is the zero-dependency observability layer: a registry of
// scrape-time counters and gauges over each component's typed stats
// accessor, lock-free log-bucketed latency histograms owned by the
// structs that record them, a fixed-size event-trace ring, and an opt-in
// HTTP server that exposes all of it as Prometheus text (/metrics), JSON
// (/statz), a trace dump (/tracez), and net/http/pprof. Every metric has
// one source: the registry owns no values of its own.
//
// Everything is built on sync/atomic: recording a histogram sample is
// three atomic adds, scraping never takes a lock and never blocks a
// writer, and a histogram snapshot gives percentiles of everything
// recorded so far. Buckets are powers of two (bucketOf(v) =
// bits.Len64(v)), so quantiles are interpolated within a 2x bucket —
// coarse in absolute terms, exact enough to tell a 100µs stall from a
// 10ms one.
//
// # Metrics catalog
//
// Pipeline histograms, registered by Sharded.RegisterMetrics under a
// prefix (default "cpma"); each is aggregated across shards and
// recorded at the site named:
//
//	{p}_mailbox_residency_ns  ns    enqueue→applied residency of one async
//	                                sub-batch; stamped at enqueue, recorded at
//	                                the end of the writer drain that applied it
//	{p}_drain_ns              ns    one writer drain end to end: coalesce, WAL
//	                                append, apply, publish (drains parked by
//	                                a quiesce token are not recorded)
//	{p}_coalesce_keys         keys  keys merged into one drain (width of the
//	                                batch the writer actually applied)
//	{p}_publish_ns            ns    one copy-on-write publication (leaf-COW
//	                                Clone + snapshot handle swap)
//	{p}_quiesce_ns            ns    rebalance pair park: quiesce tokens sent →
//	                                both writers at rest
//	{p}_move_ns               ns    one whole rebalance boundary move, quiesce
//	                                through unpark
//	{p}_checkpoint_ns         ns    one Sharded.Checkpoint() barrier: flush +
//	                                journal checkpoint
//
// Durable-store histograms, registered by the persist.Store under
// {p}_wal:
//
//	{p}_wal_append_ns      ns  whole WAL append call — lock wait + buffered
//	                           write + group-commit fsync when this append
//	                           triggered one (the stall a writer sees)
//	{p}_wal_fsync_ns       ns  the fsync alone, recorded inside syncLocked
//	{p}_wal_checkpoint_ns  ns  one per-shard checkpoint pass that wrote a
//	                           base or delta (skipped passes not recorded)
//
// Replication histograms, registered by repl.Primary (default prefix
// "repl") and repl.Follower (default "follower"). Every link, in process
// (repl.Pair, over an in-memory pipe) or over a socket (repl.Dial), runs
// the same protocol, so each means the same for both:
//
//	{p}_ship_ns       ns  one recs frame read from the sealed log
//	                      (persist.ReadShippable) and written to the link,
//	                      including any wait for the link to take it (an
//	                      in-memory pipe holds no frame, so there a write
//	                      waits out the follower's previous apply); the
//	                      follower's apply of this frame is not in it, and
//	                      polls that find nothing to ship are not recorded
//	{p}_bootstrap_ns  ns  one boot frame: the checkpoint chain loaded
//	                      (persist.BootState), encoded and written to the
//	                      link
//	{p}_apply_ns      ns  one replay batch applied to the replica set
//	                      (batches that applied zero records not recorded)
//
// Followers acknowledge each boot and recs frame once it is applied and
// published, so the primary sees every follower's applied position:
// repl_lag_records is the largest count, across live links, of sealed
// records the follower has not acknowledged. It reads 0 exactly when
// every linked follower has applied everything the primary made durable.
//
// Counters and gauges are registered one by one with CounterFunc and
// GaugeFunc, each reading a field of the component's typed stats
// accessor at scrape time. The registration lines in
// Sharded.RegisterMetrics and the repl RegisterMetrics methods carry
// every name, unit and help string; the families are:
//
//	{p}_ingest_*     IngestStats: enqueued/applied batches (batches);
//	                 enqueued/applied keys (keys), enqueued counted after
//	                 the enqueue-side repeat filter
//	{p}_snapshot_*   SnapshotStats: epochs (epochs), publishes (handles),
//	                 clone bytes, their spine and slab parts and full-copy
//	                 bytes (bytes), captures (captures)
//	{p}_rebalance_*  RebalanceStats: checks (checks), moves (moves), moved
//	                 keys (keys), router gen (generation)
//	{p}_persist_*    PersistStats, durable sets only: appended, replayed
//	                 and move records (records); keys (keys); WAL, base,
//	                 delta and torn bytes (bytes); fsyncs (fsyncs); base
//	                 and delta checkpoints and truncated segments (files)
//	repl_*           ReplStats: links (gauge, links), lag_records (gauge,
//	                 records not yet acknowledged), shipped records
//	                 (records) and keys (keys), bootstraps (transfers),
//	                 bounds updates (tables)
//	follower_*       FollowerStats: applied records (records) and keys
//	                 (keys), bootstraps (transfers), attaches (links)
//	fgraph_*         views built (views), view_edges (gauge, edges); the
//	                 graph's set registers the families above under
//	                 fgraph_set_*
//
// The three gauges move both ways; every counter is monotone over its
// component's lifetime. Every Prometheus HELP line ends with the unit in
// parentheses.
//
// # Stage latency map
//
// Where each histogram sits on the ingest path:
//
//	client InsertBatchAsync
//	   │ drop repeats, sort, scatter
//	   ▼
//	mailbox ══ residency_ns ══╗
//	   │ writer wakes         ║
//	   ▼                      ║
//	coalesce (coalesce_keys)  ║
//	   │                      ║
//	WAL append ── wal_append_ns ──▶ fsync (wal_fsync_ns)
//	   │                      ║
//	apply
//	   │                      ║
//	publish COW clone (publish_ns) ◀══ drain_ns covers coalesce→publish
//	   ▼
//	checkpoint (checkpoint_ns, wal_checkpoint_ns)   ship (ship_ns) → apply (apply_ns)
//
// # Trace ring
//
// Trace keeps one fixed-depth ring per shard plus a global ring;
// Record is lock-free in the common case (a mutex per ring guards only
// the slot write). Events carry a timestamp, shard, kind (drain,
// publish, checkpoint, move, ship, bootstrap, apply, index),
// the shard's epoch and snapshot generation, and two free operands.
// The ring overwrites oldest-first, so /tracez is always "the last N
// things each shard did", never a growing log.
package obs
