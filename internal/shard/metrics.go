package shard

// Pipeline observability: always-on aggregate latency histograms over the
// ingest pipeline's stages plus a per-shard lifecycle event trace. The
// recording discipline is one time.Now per drain (plus one per enqueue
// call, amortized over the whole batch), never per key: enqueue stamps
// each mailed sub-batch once, and the writer reads the clock twice per
// drain to derive residency, drain duration, and coalesce width for
// everything it just applied. Histograms are lock-free (three atomic adds
// per Record) and live on the Sharded set itself, so they survive — and
// stay readable after — Close.
//
// RegisterMetrics exposes everything through an obs.Registry; nothing is
// exported anywhere until the caller opts in (obs.Serve).

import (
	"repro/internal/obs"
)

// pipeMetrics aggregates the pipeline histograms across all shards. All
// durations are nanoseconds. The publish and move counts are also
// SnapshotStats.Publishes and RebalanceStats.Moves.
type pipeMetrics struct {
	residency  obs.Histogram // enqueue -> applied mailbox residency per sub-batch
	drain      obs.Histogram // one writer drain: WAL append + apply + publish
	coalesce   obs.Histogram // keys merged into one drain (the coalescing win, as a distribution)
	publish    obs.Histogram // one copy-on-write publication (cpma.Clone)
	quiesce    obs.Histogram // rebalance pair park: tokens sent -> both writers at rest
	move       obs.Histogram // whole rebalance boundary move
	checkpoint obs.Histogram // one Checkpoint() barrier: flush + journal checkpoint
}

// Trace returns the set's lifecycle event trace: per-shard rings of
// drain/publish/move events plus a global ring for
// checkpoints, each stamped with the epoch and router generation current
// when it fired. Attach it to an obs.Server (AddTrace) to expose /tracez.
func (s *Sharded) Trace() *obs.Trace { return s.trace }

// RegisterMetrics registers every metric the set exports into r under
// prefix ("cpma" when empty): the stage latency histograms, one counter
// per IngestStats, SnapshotStats and RebalanceStats field, and on a
// durable set one per PersistStats field plus the journal's WAL-level
// histograms. Each counter reads the same typed accessor tests and
// experiments use, so every value is computed in one place; these lines
// are where names and units are documented. Scrapes never block the
// pipeline and remain valid after Close.
func (s *Sharded) RegisterMetrics(r *obs.Registry, prefix string) {
	if prefix == "" {
		prefix = "cpma"
	}
	pm := &s.pm
	r.RegisterHistogram(prefix+"_mailbox_residency_ns", "ns", "enqueue-to-apply mailbox residency per sub-batch", &pm.residency)
	r.RegisterHistogram(prefix+"_drain_ns", "ns", "one writer drain: WAL append, apply, publish", &pm.drain)
	r.RegisterHistogram(prefix+"_coalesce_keys", "keys", "keys coalesced into one drain", &pm.coalesce)
	r.RegisterHistogram(prefix+"_publish_ns", "ns", "one copy-on-write publication (cpma.Clone)", &pm.publish)
	r.RegisterHistogram(prefix+"_quiesce_ns", "ns", "rebalance pair park: quiesce tokens sent to both writers at rest", &pm.quiesce)
	r.RegisterHistogram(prefix+"_move_ns", "ns", "one whole rebalance boundary move", &pm.move)
	r.RegisterHistogram(prefix+"_checkpoint_ns", "ns", "one Checkpoint() barrier: flush plus journal checkpoint", &pm.checkpoint)

	r.CounterFunc(prefix+"_ingest_enqueued_batches", "batches", "sub-batches handed to shards", func() uint64 { return s.IngestStats().EnqueuedBatches })
	r.CounterFunc(prefix+"_ingest_enqueued_keys", "keys", "keys across enqueued sub-batches", func() uint64 { return s.IngestStats().EnqueuedKeys })
	r.CounterFunc(prefix+"_ingest_applied_batches", "batches", "coalesced applies at shards", func() uint64 { return s.IngestStats().AppliedBatches })
	r.CounterFunc(prefix+"_ingest_applied_keys", "keys", "keys across coalesced applies, before dedup", func() uint64 { return s.IngestStats().AppliedKeys })

	r.CounterFunc(prefix+"_snapshot_epochs", "epochs", "state-changing applies across all shards", func() uint64 { return s.SnapshotStats().Epochs })
	r.CounterFunc(prefix+"_snapshot_publishes", "handles", "frozen handles published (cpma.Clone calls)", func() uint64 { return s.SnapshotStats().Publishes })
	r.CounterFunc(prefix+"_snapshot_clone_bytes", "bytes", "bytes materialized by copy-on-write clones", func() uint64 { return s.SnapshotStats().CloneBytes })
	r.CounterFunc(prefix+"_snapshot_clone_spine_bytes", "bytes", "spine chunks copy-on-write clones copied on first write", func() uint64 { return s.SnapshotStats().CloneSpineBytes })
	r.CounterFunc(prefix+"_snapshot_clone_slab_bytes", "bytes", "leaf slabs copy-on-write clones copied on first write", func() uint64 { return s.SnapshotStats().CloneSlabBytes })
	r.CounterFunc(prefix+"_snapshot_full_copy_bytes", "bytes", "SizeBytes of the published handles (full-copy baseline)", func() uint64 { return s.SnapshotStats().FullCopyBytes })
	r.CounterFunc(prefix+"_snapshot_captures", "captures", "Snapshot() calls", func() uint64 { return s.SnapshotStats().Captures })

	r.CounterFunc(prefix+"_rebalance_checks", "checks", "skew evaluations (monitor ticks and RebalanceOnce calls)", func() uint64 { return s.RebalanceStats().Checks })
	r.CounterFunc(prefix+"_rebalance_moves", "moves", "boundary moves performed", func() uint64 { return s.RebalanceStats().Moves })
	r.CounterFunc(prefix+"_rebalance_moved_keys", "keys", "keys that changed shards in boundary moves", func() uint64 { return s.RebalanceStats().MovedKeys })
	r.CounterFunc(prefix+"_rebalance_gen", "generation", "current router generation (0 = never rebalanced)", func() uint64 { return s.RebalanceStats().Gen })

	j := s.opt.Journal
	if j == nil {
		return
	}
	r.CounterFunc(prefix+"_persist_appended_batches", "records", "WAL records appended, one per applied batch", func() uint64 { return s.PersistStats().AppendedBatches })
	r.CounterFunc(prefix+"_persist_appended_keys", "keys", "keys across appended WAL records", func() uint64 { return s.PersistStats().AppendedKeys })
	r.CounterFunc(prefix+"_persist_appended_bytes", "bytes", "encoded WAL bytes appended", func() uint64 { return s.PersistStats().AppendedBytes })
	r.CounterFunc(prefix+"_persist_fsyncs", "fsyncs", "WAL fsyncs (group commits and barriers)", func() uint64 { return s.PersistStats().Fsyncs })
	r.CounterFunc(prefix+"_persist_checkpoints", "files", "base checkpoints written", func() uint64 { return s.PersistStats().Checkpoints })
	r.CounterFunc(prefix+"_persist_checkpoint_bytes", "bytes", "encoded bytes across base checkpoints", func() uint64 { return s.PersistStats().CheckpointBytes })
	r.CounterFunc(prefix+"_persist_delta_checkpoints", "files", "delta checkpoints written", func() uint64 { return s.PersistStats().DeltaCheckpoints })
	r.CounterFunc(prefix+"_persist_delta_bytes", "bytes", "encoded bytes across delta checkpoints", func() uint64 { return s.PersistStats().DeltaBytes })
	r.CounterFunc(prefix+"_persist_truncated_segments", "files", "WAL segment files deleted behind checkpoints", func() uint64 { return s.PersistStats().TruncatedSegments })
	r.CounterFunc(prefix+"_persist_move_records", "records", "rebalance barrier records appended (two per move)", func() uint64 { return s.PersistStats().MoveRecords })
	r.CounterFunc(prefix+"_persist_moved_keys", "keys", "keys carried by rebalance barrier records", func() uint64 { return s.PersistStats().MovedKeys })
	r.CounterFunc(prefix+"_persist_recovered_keys", "keys", "keys in the shards recovered at open", func() uint64 { return s.PersistStats().RecoveredKeys })
	r.CounterFunc(prefix+"_persist_replayed_batches", "records", "WAL records replayed at open", func() uint64 { return s.PersistStats().ReplayedBatches })
	r.CounterFunc(prefix+"_persist_replayed_keys", "keys", "keys across replayed WAL records", func() uint64 { return s.PersistStats().ReplayedKeys })
	r.CounterFunc(prefix+"_persist_torn_bytes", "bytes", "trailing WAL bytes discarded as torn at open", func() uint64 { return s.PersistStats().TornBytes })
	r.CounterFunc(prefix+"_persist_dropped_keys", "keys", "out-of-span keys dropped by recovery", func() uint64 { return s.PersistStats().DroppedKeys })
	if mr, ok := j.(interface {
		RegisterMetrics(*obs.Registry, string)
	}); ok {
		mr.RegisterMetrics(r, prefix+"_wal")
	}
}
