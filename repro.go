// Package repro is the public API of this reproduction of "CPMA: An
// Efficient Batch-Parallel Compressed Set Without Pointers" (PPoPP 2024).
//
// It exposes five layers:
//
//   - Set — the batch-parallel Compressed Packed Memory Array (the paper's
//     primary contribution): a compressed, dynamic, ordered set of uint64
//     keys with parallel batch updates and cache-friendly range maps.
//   - PMA — the uncompressed batch-parallel Packed Memory Array.
//   - ShardedSet — a concurrent front-end over P single-writer Sets, for
//     servers with many mutating clients.
//   - FGraph — the F-Graph dynamic-graph system built on a single Set, with
//     the PageRank, ConnectedComponents, and BC kernels.
//   - ShardedFGraph — F-Graph on the concurrent pipeline: edge keys striped
//     across a range-partitioned ShardedSet, async edge ingest, analytics
//     served from immutable epoch-snapshot views.
//
// Keys are nonzero uint64 values (0 is reserved as the empty-cell
// sentinel).
//
// # Concurrency
//
// Set, PMA, and FGraph are single-writer: batch operations parallelize
// internally, but concurrent mutation is not supported — batch-parallel,
// not concurrent, as defined in §2 of the paper.
//
// ShardedSet relaxes that at the system level while preserving it per
// structure. Keys are partitioned across P shards; each shard is one Set
// with exactly one mutator, a writer goroutine draining the shard's
// bounded mailbox, and there are no shard locks. Every mutation scatters
// into per-shard sub-batches mailed to those writers, which coalesce
// adjacent pending batches into one large merged apply — recovering the
// batch-size amortization of Figure 1 under many small concurrent
// batches — and run the Set's parallel batch algorithm inside the shard.
// After each drain a writer publishes an immutable copy-on-write
// Set.Clone handle, and every read (Has, Len, Sum, RangeSum, Next,
// Min/Max, Map, MapRange, Keys, and Snapshot) runs on the published
// handles of the shards it covers: readers never wait on a writer and
// never block one, and Map/MapRange callbacks may call back into the set.
//
// Blocking calls (Insert, Remove, InsertBatch, RemoveBatch) return exact
// counts and are read-your-writes: they return only after the drain that
// applied them has published, so every later read sees them.
// Fire-and-forget calls (InsertBatchAsync, RemoveBatchAsync) return once
// enqueued (a full mailbox applies backpressure) and are
// read-your-flushes: they are visible to every read after a Flush
// returns. A read spanning several shards sees each shard at some prefix
// of its own history, all captured at one instant. (*ShardedSet).Snapshot
// keeps such a capture as a ShardedSnapshot, whose reads are mutually
// consistent and stable and which remains valid after Close. Close drains
// the mailboxes and stops the writers. See the repro/internal/shard
// package documentation for the precise consistency contract.
//
// Range-partitioned sets route through an authoritative sorted span
// boundary table rather than fixed-width arithmetic, and
// ShardedSetOptions{Rebalance: true} makes the spans live: a background
// monitor samples per-shard key counts and, whenever the max/mean ratio
// exceeds MaxSkew, hands span boundaries between adjacent shards —
// quiescing only the two affected mailbox writers while every other
// shard keeps ingesting — so zipfian and other skewed key streams stop
// bottlenecking on one hot shard's single writer.
// (*ShardedSet).RebalanceOnce triggers a sweep manually, Bounds and
// LoadRatio expose the table and the current balance, and
// ShardRebalanceStats counts the moves. On a durable set every move is
// journaled as a WAL barrier plus a boundary-table update, so crash
// recovery replays against exactly the spans the history was routed
// with. Rebalancing requires RangePartition.
//
// Neither partitioning nor rebalancing helps when the skew concentrates
// on a handful of individual keys — all traffic for one key routes to one
// shard's writer. ShardedSetOptions{HotKeys: true} adds a per-shard
// hot-key absorber to the pipeline: a streaming top-k detector
// promotes the heaviest keys, and promoted traffic collapses into
// per-key absorbed state (a membership bit plus a last-wins pending op)
// instead of repeatedly re-proving idempotent updates against the CPMA.
// Every publish (drain, Flush, rebalance) first reconciles absorbed state
// into the structure, so an absorbed insert or remove is visible under the
// same contract as an applied one and published handles and durable state
// never contain half-absorbed keys: on a durable set the reconciled batch
// is WAL-appended before it applies, and recovery replays it like any
// other batch. Keys that cool
// off demote back to the ordinary path. ShardIngestStats reports the
// promotion/absorption/reconcile counters.
//
// # Graph streaming
//
// FGraph is the paper's phased design: one writer, mutations and analytics
// strictly alternating, with the vertex index rebuilt after each batch.
// NewShardedFGraph removes the phasing. Edge keys (src<<32|dst) stripe
// across a range-partitioned ShardedSet — range partitioning by key
// is vertex striping for free, each shard owning a contiguous vertex range
// — so InsertEdges/DeleteEdges enqueue and return while per-shard writers
// apply batches, and (*ShardedFGraph).View captures an immutable FGraphView
// with no flush barrier: one epoch-snapshot cut across the shards, the §6
// vertex index rebuilt by a parallel pass over the frozen leaves. The
// kernels (PageRank, ConnectedComponents, BC, plus BFS inside the
// EdgeMap machinery) run against the view concurrently with ingest and
// return results bit-identical to an FGraph holding the same edge set —
// PageRank included, at any shard count, by the deterministic run-ownership
// flat scan.
//
// A view is read-your-flushes, not read-your-writes: it covers a FIFO
// prefix of each shard's applied batches (a frontier cut — shards may sit
// at different depths of the stream); Flush first when a view must cover
// everything previously enqueued. FGraphView.LagKeys and Age report the
// snapshot staleness; views stay valid forever, including after Close.
// The one unstorable edge is (0,0), which packs to the reserved key 0:
// ShardedFGraph rejects any batch containing it with ErrEdgeZeroZero
// (FGraph silently drops it, matching Symmetrize's self-loop rule).
//
// # Durability
//
// OpenDurableShardedSet adds crash durability to the pipeline,
// exploiting the paper's headline property: a CPMA has no pointers — its
// whole state is flat slabs — so a checkpoint is a raw slab dump of a
// frozen snapshot handle, with no traversal and no pointer fixup on
// either side. Each shard's mailbox writer appends every coalesced batch
// to a per-shard CRC-framed write-ahead log before applying it; a
// background checkpointer serializes the writer-published snapshot
// handles off the hot path and truncates the log prefix they cover; on
// open, each shard loads its newest valid checkpoint and replays the log
// tail, truncating torn records at the first bad CRC.
//
// The contract has three durability levels (see repro/internal/persist
// for the fine print): an acknowledged mutation is logged but fsynced
// only per the ShardedSetOptions.SyncEvery/SyncBytes group-commit knobs;
// after Flush returns, everything previously enqueued is applied and
// fsynced (set SyncEvery=1 to make every acknowledged batch durable);
// after Checkpoint returns, recovery work is bounded by the log tail
// written since. Recovery restores, per shard, an exact prefix of the
// acknowledged batch history: synced batches are never lost and torn
// tails are cleanly truncated. The on-disk formats (manifest, WAL
// segments, checkpoints) are versioned via magics; mismatched versions or
// set geometry (shard count, partition, key bits) are rejected at open.
//
// # Replication
//
// OpenPrimary and OpenFollower turn a durable sharded set into a
// primary/replica group: the primary streams its sealed per-shard WAL
// records (and, for fresh or lagging followers, whole checkpoint-chain
// states — another payoff of the pointer-free slab format, which ships as
// flat bytes) to read-only followers that replay them and serve the full
// snapshot and live read API. PairReplica wires a follower in process;
// ServeReplication/DialPrimary do the same over a length-prefixed socket
// protocol with resume-from-position on reconnect.
//
// The contract (repro/internal/repl has the fine print): each follower
// shard is always an exact prefix of the primary's acknowledged, fsynced
// record history for that shard — the shipper never reads past the
// primary's fsync seal, the applier enforces gap-free sequence
// continuity, and a follower that cannot keep the invariant stops with an
// error rather than approximating. Cross-shard, a follower is eventually
// consistent (shards ship independently); when caught up against a
// quiescent primary it equals the primary exactly, boundary tables
// included. Followers reject client mutations by panic: their state is a
// pure function of the replicated log.
//
// # Observability
//
// Every pipeline stage is instrumented with always-on atomic counters and
// lock-free log-bucketed latency histograms (mailbox residency, drain,
// coalesce width, publish/clone, WAL append and fsync stall, checkpoint,
// rebalance quiesce/move, hot-key reconcile, replication ship/apply).
// NewMetrics builds a named registry, Observe registers a ShardedSet's
// full metric surface into it (a durable set's journal and an attached
// ReplPrimary/ReplFollower register through the same path), and
// ServeMetrics exposes the strictly opt-in HTTP endpoint: Prometheus text
// on /metrics, JSON summaries with p50/p90/p99/p999 on /statz, the
// per-shard lifecycle event-trace rings on /tracez, and net/http/pprof
// under /debug/pprof/.
//
// The scrape contract: reading metrics never blocks the pipeline — every
// sample is an atomic load or a scrape-time stats snapshot, so /metrics
// stays responsive during async ingest, live rebalances, and checkpoints
// (counters mid-rebalance are exact per field; a scrape is not one atomic
// cut across fields). Counters are monotone over a set's lifetime.
// During and after Close the registry stays readable and returns final
// values; a scrape racing Close may miss the last drain's increments
// until Close returns, after which totals are stable. Histograms record
// into power-of-two buckets (quantiles are bucket-interpolated, exact to
// within a factor of two) and one recording costs three atomic adds — no
// locks, no allocation, safe from every goroutine.
//
// Quick start:
//
//	s := repro.NewSet(nil)
//	s.InsertBatch([]uint64{5, 1, 9}, false)
//	s.MapRange(1, 6, func(k uint64) bool { fmt.Println(k); return true })
package repro

import (
	"net"

	"repro/internal/cpma"
	"repro/internal/fgraph"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/pma"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Set is the batch-parallel Compressed Packed Memory Array (CPMA).
type Set = cpma.CPMA

// SetOptions configures a Set (growing factor, leaf size, batch
// thresholds, density bounds).
type SetOptions = cpma.Options

// NewSet returns an empty CPMA; opts may be nil for the paper's defaults
// (growing factor 1.2, auto leaf size).
func NewSet(opts *SetOptions) *Set { return cpma.New(opts) }

// SetFromSorted builds a CPMA from sorted, duplicate-free, nonzero keys.
func SetFromSorted(keys []uint64, opts *SetOptions) *Set { return cpma.FromSorted(keys, opts) }

// ShardedSet is a concurrent set assembled from P single-writer Sets, each
// mutated only by its shard's mailbox writer and read through the
// handles that writer publishes (see the package documentation's
// concurrency contract).
type ShardedSet = shard.Sharded

// ShardedSetOptions configures a ShardedSet beyond NewShardedSet's
// defaults: the partitioning policy (hash or contiguous key ranges), the
// expected key width for range partitioning, per-shard Set options, the
// mailbox tuning (MailboxDepth, CoalesceMax), rebalancing, hot-key
// absorption, and durability. Its Async field is ignored: every
// ShardedSet runs the mailbox pipeline.
type ShardedSetOptions = shard.Options

// ShardIngestStats reports a ShardedSet's batch traffic: sub-batches
// enqueued by clients versus merged applies executed by the shard
// writers; the ratio of the two mean batch sizes is the coalescing win.
type ShardIngestStats = shard.IngestStats

// ShardedSnapshot is a frozen, immutable view of a ShardedSet captured by
// its Snapshot method: one capture of every shard's published handle,
// serving the full read API (Len, Sum, RangeSum, Has, Next, Min/Max, Keys,
// Map, MapRange) off frozen Sets with no locks. Scans on a snapshot run
// concurrently with ingest — they neither block writers nor observe
// in-flight batches — and a snapshot keeps working after the set is
// Closed.
type ShardedSnapshot = shard.Snapshot

// ShardSnapshotStats reports the snapshot machinery's work: per-shard
// epoch advances, published frozen handles (each a Set.Clone), the bytes
// those clones copied, and Snapshot captures.
type ShardSnapshotStats = shard.SnapshotStats

// ShardRebalanceStats reports the live span rebalancer's work: skew
// checks, boundary moves, keys moved between shards, and the current
// router generation.
type ShardRebalanceStats = shard.RebalanceStats

// NewShardedSet returns a concurrently usable set of `shards`
// hash-partitioned Sets with default mailbox tuning; opts configures each
// shard's Set and may be nil for the paper's defaults. Close it when done
// to stop the shard writers. Use NewShardedSetWith to select range
// partitioning or tune the pipeline.
func NewShardedSet(shards int, opts *SetOptions) *ShardedSet {
	return shard.New(shards, &shard.Options{Set: opts})
}

// NewShardedSetWith returns a ShardedSet with full control over
// partitioning and the pipeline; opts may be nil. It builds
// in-memory sets only: opts.Dir must be empty (use OpenDurableShardedSet
// for a durable set — this constructor cannot report recovery errors).
func NewShardedSetWith(shards int, opts *ShardedSetOptions) *ShardedSet {
	return shard.New(shards, opts)
}

// ShardPersistStats reports a durable ShardedSet's journal and checkpoint
// work: WAL records/bytes/fsyncs, checkpoints and their encoded slab
// bytes (comparable with SizeBytes and the snapshot CloneBytes), WAL
// segments truncated behind checkpoints, and what recovery did at open
// (keys recovered, batches replayed, torn bytes discarded).
type ShardPersistStats = shard.PersistStats

// OpenDurableShardedSet opens (creating if absent) the durable sharded
// set stored under dir and returns it recovered and running: a
// ShardedSet whose mailbox writers append every batch to a per-shard
// write-ahead log before applying it, with slab checkpoints written off
// the hot path. opts may be nil; its Dir field is overridden by dir, and
// SyncEvery/SyncBytes/CheckpointEveryBatches tune
// the group-commit and checkpoint cadence (see the package documentation
// for the durability contract). The set's Checkpoint method is the
// durability barrier, PersistStats reports the journal counters, and
// Close fsyncs and closes the store; Close cannot return an error, so
// check PersistErr after it — a non-nil result means a late fsync failed
// and the unsynced tail may not have landed. Reopening a directory with
// a different shard count, partition, or key width is an error.
func OpenDurableShardedSet(dir string, shards int, opts *ShardedSetOptions) (*ShardedSet, error) {
	var o ShardedSetOptions
	if opts != nil {
		o = *opts
	}
	o.Dir = dir
	s, _, err := persist.OpenSharded(shards, &o)
	return s, err
}

// ReplPrimary is the shipping side of WAL replication: it wraps a durable
// ShardedSet and streams sealed records, bootstrap states, and boundary
// tables to followers over in-process links (PairReplica) and socket
// connections (ServeReplication). ReplStats reports its counters.
type ReplPrimary = repl.Primary

// ReplFollower is the replay side: a read-only replica ShardedSet plus
// per-shard replication positions. Reads go through Set or Snapshot;
// client mutations panic. One link (PairReplica or DialPrimary) may drive
// a follower at a time; across links it resumes from its positions.
type ReplFollower = repl.Follower

// ReplLink is a running in-process replication link (PairReplica).
type ReplLink = repl.Link

// ReplConn is a follower's live socket connection to a serving primary
// (DialPrimary).
type ReplConn = repl.Conn

// ReplOptions tunes a replication link's tail poll interval and read
// batch size; nil selects the defaults.
type ReplOptions = repl.Options

// ReplStats reports a primary's shipping counters (live links, records
// and keys shipped, bootstraps, boundary-table ships, and the largest
// sealed-but-unshipped lag across links).
type ReplStats = repl.ReplStats

// ReplFollowerStats reports a follower's replay counters.
type ReplFollowerStats = repl.FollowerStats

// OpenPrimary opens (creating if absent) the durable sharded set under
// dir, exactly as OpenDurableShardedSet does, and wraps it as a
// replication primary. The returned set is the one to mutate and close
// (closing it ends replication); the primary hands its WAL to followers
// wired up with PairReplica or ServeReplication.
func OpenPrimary(dir string, shards int, opts *ShardedSetOptions) (*ShardedSet, *ReplPrimary, error) {
	var o ShardedSetOptions
	if opts != nil {
		o = *opts
	}
	o.Dir = dir
	s, st, err := persist.OpenSharded(shards, &o)
	if err != nil {
		return nil, nil, err
	}
	pr, err := repl.NewPrimary(s, st)
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	return s, pr, nil
}

// OpenFollower builds an in-memory read-only follower with the primary's
// geometry: shards, opts.Partition, opts.KeyBits, and (for range
// partitions) the same seed Bounds/BoundsGen must match the primary's —
// links verify and reject mismatches. Later boundary moves replicate
// automatically. opts may be nil for a hash-partitioned primary's
// defaults.
func OpenFollower(shards int, opts *ShardedSetOptions) *ReplFollower {
	return repl.NewFollower(shards, opts)
}

// PairReplica attaches a follower to a primary in the same process and
// starts shipping: catch-up (bootstrapping from the checkpoint chain when
// needed), then tailing until Close.
func PairReplica(pr *ReplPrimary, f *ReplFollower, opts *ReplOptions) (*ReplLink, error) {
	return repl.Pair(pr, f, opts)
}

// ServeReplication accepts follower connections on ln and ships to each;
// it blocks until the listener closes. DialPrimary is the client side.
func ServeReplication(ln net.Listener, pr *ReplPrimary, opts *ReplOptions) error {
	return repl.Serve(ln, pr, opts)
}

// DialPrimary connects a follower to a serving primary and replays its
// stream until the connection closes or fails; reconnecting resumes from
// the follower's positions.
func DialPrimary(addr string, f *ReplFollower) (*ReplConn, error) {
	return repl.Dial(addr, f)
}

// Metrics is a named metrics registry: counters, gauges, and lock-free
// log-bucketed latency histograms, scraped via WriteProm (Prometheus
// text) and WriteStatz (JSON with p50/p90/p99/p999) or served by
// ServeMetrics. Registering two metrics under one name panics.
type Metrics = obs.Registry

// MetricsServer is the opt-in HTTP observability endpoint started by
// ServeMetrics: /metrics, /statz, /tracez, and /debug/pprof/.
type MetricsServer = obs.Server

// MetricsHistogram is one lock-free latency histogram: power-of-two
// buckets, three atomic adds per Record, mergeable snapshots with
// interpolated quantiles.
type MetricsHistogram = obs.Histogram

// EventTrace is a set of fixed-size per-shard ring buffers recording
// pipeline lifecycle events (drain, publish, checkpoint, promote, demote,
// move, ship, bootstrap, apply) with epoch and generation stamps;
// (*ShardedSet).Trace returns the live one and /tracez dumps it.
type EventTrace = obs.Trace

// NewMetrics builds an empty named registry.
func NewMetrics(name string) *Metrics { return obs.NewRegistry(name) }

// Observe registers every metric a ShardedSet exposes into m under the
// given prefix ("" means "cpma"): the pipeline stage histograms, the
// ingest/snapshot/rebalance stats counters, and — on a durable set — the
// journal's WAL append/fsync/checkpoint histograms and persist counters.
// Call once per (set, registry): duplicate names panic by contract.
func Observe(s *ShardedSet, m *Metrics, prefix string) { s.RegisterMetrics(m, prefix) }

// ServeMetrics starts the HTTP observability endpoint for m on addr
// (host:port; port 0 picks one — Addr reports it). The endpoint is
// strictly opt-in and scrapes never block the pipeline; see the package
// documentation's observability contract. Close the returned server to
// stop listening.
func ServeMetrics(addr string, m *Metrics) (*MetricsServer, error) { return obs.Serve(addr, m) }

// PMA is the uncompressed batch-parallel Packed Memory Array.
type PMA = pma.PMA

// PMAOptions configures a PMA.
type PMAOptions = pma.Options

// NewPMA returns an empty PMA; opts may be nil for defaults.
func NewPMA(opts *PMAOptions) *PMA { return pma.New(opts) }

// PMAFromSorted builds a PMA from sorted, duplicate-free, nonzero keys.
func PMAFromSorted(keys []uint64, opts *PMAOptions) *PMA { return pma.FromSorted(keys, opts) }

// FGraph is the F-Graph dynamic-graph system: the whole graph in one CPMA.
type FGraph = fgraph.Graph

// NewFGraph returns an empty graph over numVertices vertex ids.
func NewFGraph(numVertices int) *FGraph { return fgraph.New(numVertices, nil) }

// FGraphFromEdges builds a graph from a directed edge list (use Symmetrize
// for undirected graphs).
func FGraphFromEdges(numVertices int, edges []Edge) *FGraph {
	return fgraph.FromEdges(numVertices, edges, nil)
}

// ShardedFGraph is F-Graph on the concurrent sharded pipeline: async edge
// ingest through per-shard mailbox writers, analytics against immutable
// epoch-snapshot FGraphViews — no phasing (see the package documentation's
// graph-streaming contract).
type ShardedFGraph = fgraph.Sharded

// ShardedFGraphOptions tunes a ShardedFGraph (per-shard Set options,
// mailbox depth, live vertex-range rebalancing).
type ShardedFGraphOptions = fgraph.ShardedOptions

// FGraphView is an immutable graph over one epoch-snapshot cut of a
// ShardedFGraph, with the vertex index rebuilt at capture; it implements
// Graph, stays valid after Close, and reports its staleness via LagKeys
// and Age.
type FGraphView = fgraph.View

// ErrEdgeZeroZero is returned by ShardedFGraph mutation calls whose batch
// contains the edge (0,0) — it packs to the reserved key 0 and cannot be
// stored.
var ErrEdgeZeroZero = fgraph.ErrEdgeZeroZero

// NewShardedFGraph returns an empty streaming graph over numVertices
// vertex ids striped across `shards` single-writer CPMAs; opts may be nil.
func NewShardedFGraph(numVertices, shards int, opts *ShardedFGraphOptions) *ShardedFGraph {
	return fgraph.NewSharded(numVertices, shards, opts)
}

// EdgeStream is a deterministic streaming-graph workload: R-MAT insert
// batches interleaved with delete batches sampled from previously inserted
// edges. It never emits the unstorable edge (0,0).
type EdgeStream = workload.EdgeStream

// NewEdgeStream seeds an edge stream over 2^scale vertices, scale in
// [1, 32]; deleteFrac of each batch is emitted as deletions of earlier
// inserts. Its batches depend on the seed, scale, deleteFrac and the batch
// sizes alone, at any GOMAXPROCS.
func NewEdgeStream(seed uint64, scale int, deleteFrac float64) *EdgeStream {
	return workload.NewEdgeStream(seed, scale, deleteFrac)
}

// Edge is a directed graph edge.
type Edge = workload.Edge

// Symmetrize returns the undirected closure of an edge list (both
// directions, self-loops dropped).
func Symmetrize(edges []Edge) []Edge { return workload.Symmetrize(edges) }

// Graph is the adjacency interface the graph kernels accept; FGraph
// implements it (after EnsureIndex).
type Graph = graph.Graph

// PageRank runs iters pull-based PageRank iterations (damping 0.85) and
// returns the rank vector.
func PageRank(g Graph, iters int) []float64 { return graph.PageRank(g, iters) }

// ConnectedComponents labels each vertex with the smallest vertex id in
// its component.
func ConnectedComponents(g Graph) []uint32 { return graph.ConnectedComponents(g) }

// BC returns single-source betweenness-centrality dependency scores from
// src (Brandes' algorithm).
func BC(g Graph, src uint32) []float64 { return graph.BC(g, src) }

// BFS returns each vertex's BFS depth from src (-1 if unreachable).
func BFS(g Graph, src uint32) []int32 { return graph.BFS(g, src) }

// RNG is a deterministic splitmix64 random generator for workloads.
type RNG = workload.RNG

// NewRNG seeds a workload generator.
func NewRNG(seed uint64) *RNG { return workload.NewRNG(seed) }

// UniformKeys draws n uniform random keys in [1, 2^bits) — the paper's
// microbenchmark distribution at bits=40.
func UniformKeys(r *RNG, n, bits int) []uint64 { return workload.Uniform(r, n, bits) }

// RMATEdges samples n directed edges over 2^scale vertices from the R-MAT
// distribution the paper uses for graph insert streams; scale must lie in
// [1, 32].
func RMATEdges(r *RNG, n, scale int) []Edge {
	return workload.RMAT(r, n, scale, workload.DefaultRMAT())
}
