package fgraph

import (
	"time"

	"repro/internal/shard"
)

// View is an immutable graph over one epoch-snapshot cut of a sharded
// F-Graph: the frozen per-shard CPMA handles of a shard.Snapshot presented
// through the graph.Graph interface, with the §6 vertex index (degrees +
// cursors) rebuilt at capture by one parallel pass over every shard's
// leaves under a single global leaf numbering — the index-rebuild cost,
// now sharded.
//
// # Consistency
//
// A View observes exactly what its snapshot does: each shard's handle is a
// FIFO prefix of that shard's applied sub-batch stream, all handles grabbed
// at one instant, lock-free, with no flush barrier — so analytics run
// concurrently with ingest and never block (or get blocked by) the shard
// writers. Across shards the cut is a frontier: shards may sit at different
// prefixes of a multi-shard batch stream, and edge batches enqueued but not
// yet drained are invisible (read-your-flushes, not read-your-writes —
// Flush the Sharded graph first when a View must cover preceding
// mutations). Because range partitioning makes shard order key order, the
// concatenated leaves hold every edge key in ascending order, and all
// kernels (Degree, Neighbors, the AccumulateContrib flat scan) return
// results bit-identical to a single-CPMA Graph holding the same edge set.
//
// # Staleness
//
// The index is built once at capture and never goes stale — the View is
// frozen; staleness is only how far the live graph has moved on since.
// LagKeys reports the ingest backlog (keys enqueued but not yet applied)
// at capture, Age how long ago the capture happened. A View remains valid
// forever, including after the Sharded graph is Closed.
//
// Views are safe for concurrent use by multiple goroutines.
type View struct {
	*vertexIndex // Degree, Neighbors and the AccumulateContrib flat scan
	snap         *shard.Snapshot
	edges        int64

	capturedAt time.Time
	lagKeys    uint64
}

// NumVertices returns the vertex-id space.
func (v *View) NumVertices() int { return len(v.deg) }

// NumEdges returns the number of stored directed edges in the view.
func (v *View) NumEdges() int64 { return v.edges }

// Snapshot returns the underlying frozen shard snapshot (for set-level
// reads: Len, Keys, MapRange, Validate).
func (v *View) Snapshot() *shard.Snapshot { return v.snap }

// Epochs returns the per-shard epochs the view was cut at (monotone per
// shard across successive Views).
func (v *View) Epochs() []uint64 { return v.snap.Epochs() }

// Age returns how long ago the view was captured — the coarse
// snapshot-staleness measure alongside LagKeys.
func (v *View) Age() time.Duration { return time.Since(v.capturedAt) }

// LagKeys returns the ingest backlog — edge keys enqueued to the sharded
// pipeline but not yet applied, a key repeated within one batch counting
// once — observed at capture: how far the view trails what clients had
// already submitted.
func (v *View) LagKeys() uint64 { return v.lagKeys }
