package fgraph

import (
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/cpma"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// ShardedOptions tunes a sharded F-Graph beyond NewSharded's defaults.
// Partitioning is not configurable: the graph requires RangePartition (the
// vertex striping) and the async pipeline (concurrent ingest).
type ShardedOptions struct {
	// Set configures each shard's CPMA; nil selects the paper's defaults.
	Set *cpma.Options
	// MailboxDepth / CoalesceMax tune the async pipeline (0 = defaults).
	MailboxDepth int
	CoalesceMax  int
	// Rebalance starts the live vertex-range rebalancer: skewed degree
	// distributions (a power-law graph's hub vertices) load shards
	// unevenly, and the boundary monitor moves vertex-range boundaries
	// between adjacent shards while ingest continues. MaxSkew and
	// RebalanceEvery tune it as in shard.Options.
	Rebalance      bool
	MaxSkew        float64
	RebalanceEvery time.Duration
}

// Sharded is F-Graph on the concurrent pipeline: edge keys (src<<32|dst)
// striped across a range-partitioned shard.Sharded — range partitioning by
// key is vertex striping for free, each shard owning a contiguous vertex
// range — with mutations flowing through the async mailbox writers and
// analytics served from immutable epoch-snapshot Views. Unlike the phased
// single-CPMA Graph, ingest and analytics run concurrently: InsertEdges/
// DeleteEdges enqueue and return, View captures a frozen consistent cut
// with no flush barrier, and the Ligra kernels run against the View while
// the writers keep applying batches.
//
// Mutations may be issued from many goroutines (the shard pipeline's
// contract applies); Views are immutable and freely shared. Close stops
// the writers; Views outlive it. See View for the precise consistency and
// staleness contract, and the package documentation for the edge-(0,0)
// rule.
type Sharded struct {
	set *shard.Sharded
	nv  int

	// View metrics: index-build latency, capture-time ingest backlog
	// (snapshot staleness), and view counters, registered by
	// RegisterMetrics next to the underlying pipeline's surface.
	indexBuild    obs.Histogram
	viewLag       obs.Histogram
	views         atomic.Uint64
	lastViewEdges atomic.Int64
}

// NewSharded returns an empty concurrent F-Graph over numVertices vertex
// ids, striped across the given number of shards (clamped to at least 1);
// opts may be nil. The underlying set is range-partitioned over exactly
// the packed-edge key space (KeyBits = 32 + ceil(log2 numVertices)), so
// the default equal-width spans stripe the actual vertex range rather
// than the full 64-bit space.
func NewSharded(numVertices, shards int, opts *ShardedOptions) *Sharded {
	if numVertices < 1 {
		numVertices = 1
	}
	var o ShardedOptions
	if opts != nil {
		o = *opts
	}
	so := &shard.Options{
		Partition:      shard.RangePartition,
		KeyBits:        32 + bits.Len(uint(numVertices-1)),
		Set:            o.Set,
		MailboxDepth:   o.MailboxDepth,
		CoalesceMax:    o.CoalesceMax,
		Rebalance:      o.Rebalance,
		MaxSkew:        o.MaxSkew,
		RebalanceEvery: o.RebalanceEvery,
	}
	return &Sharded{set: shard.New(shards, so), nv: numVertices}
}

// packEdges packs a directed edge batch into CPMA keys, rejecting the one
// unrepresentable edge before anything is enqueued — an async writer
// goroutine cannot afford the reserved-key panic the shard layer would
// otherwise raise long after the caller returned.
func packEdges(edges []workload.Edge) ([]uint64, error) {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		k := uint64(e.Src)<<32 | uint64(e.Dst)
		if k == 0 {
			return nil, ErrEdgeZeroZero
		}
		keys[i] = k
	}
	return keys, nil
}

// InsertEdges enqueues a batch of directed edges for insertion (undirected
// graphs pass both directions, e.g. via workload.Symmetrize) and returns
// without waiting for the apply; Flush is the barrier. The whole batch is
// rejected with ErrEdgeZeroZero — nothing enqueued — if it contains the
// edge (0,0).
func (g *Sharded) InsertEdges(edges []workload.Edge) error {
	keys, err := packEdges(edges)
	if err != nil {
		return err
	}
	g.set.InsertBatchAsync(keys, false)
	return nil
}

// DeleteEdges enqueues a batch of directed edges for removal; the same
// contract as InsertEdges.
func (g *Sharded) DeleteEdges(edges []workload.Edge) error {
	keys, err := packEdges(edges)
	if err != nil {
		return err
	}
	g.set.RemoveBatchAsync(keys, false)
	return nil
}

// InsertEdgeKeys enqueues pre-packed src<<32|dst keys (the benchmark hot
// path). Key 0 is rejected with ErrEdgeZeroZero before anything is
// enqueued; a sorted batch only needs its first key checked.
func (g *Sharded) InsertEdgeKeys(keys []uint64, sorted bool) error {
	if err := checkEdgeKeys(keys, sorted); err != nil {
		return err
	}
	g.set.InsertBatchAsync(keys, sorted)
	return nil
}

// RemoveEdgeKeys enqueues pre-packed keys for removal; the same contract
// as InsertEdgeKeys.
func (g *Sharded) RemoveEdgeKeys(keys []uint64, sorted bool) error {
	if err := checkEdgeKeys(keys, sorted); err != nil {
		return err
	}
	g.set.RemoveBatchAsync(keys, sorted)
	return nil
}

func checkEdgeKeys(keys []uint64, sorted bool) error {
	if len(keys) == 0 {
		return nil
	}
	if sorted {
		if keys[0] == 0 {
			return ErrEdgeZeroZero
		}
		return nil
	}
	for _, k := range keys {
		if k == 0 {
			return ErrEdgeZeroZero
		}
	}
	return nil
}

// NumVertices returns the vertex-id space.
func (g *Sharded) NumVertices() int { return g.nv }

// NumEdges returns the number of applied directed edges (one atomic cut of
// the live shards; enqueued-but-undrained batches are not counted).
func (g *Sharded) NumEdges() int64 { return int64(g.set.Len()) }

// SizeBytes returns the summed memory footprint of the shard CPMAs.
func (g *Sharded) SizeBytes() uint64 { return g.set.SizeBytes() }

// Set exposes the underlying sharded set (stats, rebalancing, snapshots).
func (g *Sharded) Set() *shard.Sharded { return g.set }

// Flush blocks until every previously enqueued edge batch has been
// applied: the barrier that makes the next View cover them.
func (g *Sharded) Flush() { g.set.Flush() }

// Close drains and stops the shard writers. Further mutations panic;
// existing Views (and new ones — the published handles remain readable)
// keep working.
func (g *Sharded) Close() { g.set.Close() }

// View captures an immutable graph over one epoch-snapshot cut — a
// lock-free handle grab, no flush barrier — and rebuilds the §6 vertex
// index with one parallel pass over the frozen shards' leaves. Ingest
// continues concurrently; see View for the consistency contract. The
// capture-time ingest backlog is recorded as the view's staleness
// (LagKeys) and the build lands in the index-build histogram and the
// event trace.
func (g *Sharded) View() *View {
	st := g.set.IngestStats()
	var lag uint64
	if done := st.AppliedKeys + st.AbsorbedKeys; st.EnqueuedKeys > done {
		lag = st.EnqueuedKeys - done
	}
	t0 := time.Now()
	snap := g.set.Snapshot()
	ls := newLeafSpan(snap.ShardSets())
	deg, cursors := buildIndex(ls, g.nv)
	edges := int64(0)
	for _, set := range ls.sets {
		edges += int64(set.Len())
	}
	d := time.Since(t0)
	g.indexBuild.Observe(d)
	g.viewLag.Record(lag)
	g.views.Add(1)
	g.lastViewEdges.Store(edges)
	g.set.Trace().Record(-1, obs.EvIndex, 0, 0, uint64(edges), uint64(d))
	return &View{
		snap:       snap,
		ls:         ls,
		nv:         g.nv,
		edges:      edges,
		deg:        deg,
		cursors:    cursors,
		capturedAt: t0,
		lagKeys:    lag,
	}
}

// RegisterMetrics registers the graph-level metrics (index-build latency,
// view-staleness histogram, view counters) into r under prefix ("fgraph"
// when empty), plus the whole underlying pipeline surface under
// prefix+"_set".
func (g *Sharded) RegisterMetrics(r *obs.Registry, prefix string) {
	if prefix == "" {
		prefix = "fgraph"
	}
	r.RegisterHistogram(prefix+"_index_build_ns", "ns", "one View capture: snapshot grab plus per-shard parallel index build", &g.indexBuild)
	r.RegisterHistogram(prefix+"_view_lag_keys", "keys", "ingest backlog (enqueued-unapplied keys) at View capture — snapshot staleness", &g.viewLag)
	r.CounterFunc(prefix+"_views_built", "views", "Views captured", g.views.Load)
	r.GaugeFunc(prefix+"_view_edges", "edges", "directed edges in the most recent View", g.lastViewEdges.Load)
	g.set.RegisterMetrics(r, prefix+"_set")
}

// Interface conformance: a View serves the Ligra kernels with the sharded
// flat-scan PR path.
var (
	_ graph.Graph          = (*View)(nil)
	_ graph.ContribScanner = (*View)(nil)
)
