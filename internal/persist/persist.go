// Package persist gives the sharded CPMA front-end crash durability: a
// per-shard write-ahead batch log plus pointer-free checkpoints, and the
// recovery that stitches the two back together after a crash.
//
// The design leans on the paper's central property. A CPMA is a compressed
// set *without pointers* — its entire state is its leaves — so a
// checkpoint is one pass over the leaves (cpma.WriteTo) of an immutable
// handle the shard writer already publishes for snapshots: no traversal,
// no pointer fixup, no stop-the-world. The log side piggybacks on the
// ingest pipeline: each shard's mailbox writer is the shard's sole
// mutator, so it appends every coalesced batch to the shard's log before
// applying it (write-ahead), with no extra synchronization on the hot
// path.
//
// # On-disk layout
//
//	dir/MANIFEST                     set geometry (shards, partition, ...)
//	dir/BOUNDS                       live span boundary table + generation
//	                                 (absent until the first rebalance)
//	dir/shard-NNNN/wal-<seq20>.log   WAL segments; <seq20> is the sequence
//	                                 number of the segment's first record
//	dir/shard-NNNN/ckpt-<seq20>.ckpt base checkpoints: every non-empty
//	                                 leaf; <seq20> is the last record
//	                                 sequence the state reflects
//	dir/shard-NNNN/delta-<seq20>.dckpt delta checkpoints: the changed leaves
//	                                 since the previous checkpoint in the
//	                                 chain, patched onto a named base
//
// Every WAL record frames one applied batch: a little-endian length and
// CRC32C header, then kind (insert/remove/moveIn/moveOut), the record's
// per-shard sequence number, the router generation (barrier kinds only),
// and the nonzero sorted keys delta encoded in internal/codec's byte code
// (the minimal LEB128 varint binary.AppendUvarint writes; the bytes are
// those of every earlier version 2 segment) and read back with the
// codec's strict reader; replication ships the same frames (Rec). Bases and deltas are one file
// type: a header naming the shard, the covered sequence, the checkpoint
// it patches (prevSeq, 0 for a base) and the base anchoring its chain
// (baseSeq, its own sequence for a base), then a cpma leaf-list encoding
// (itself CRC-guarded), then a whole-file CRC32C trailer. All formats are
// versioned via magics; readers reject unknown versions. The manifest
// records the immutable creation-time geometry and the store version:
// 4 since bases and deltas share the leaf-list encoding, and a store at
// any other version is refused at open (see manifest for the history).
// The BOUNDS sidecar records the live, generation-stamped boundary table
// that rebalancing rewrites.
//
// # Rebalance barriers
//
// A live boundary move relocates keys between two shards outside the
// normal batch flow, so it is journaled as its own three-step barrier
// (Store.Rebalanced), each step forced to disk before the next:
//
//  1. a moveIn record (the moved keys) in the destination's WAL, fsynced;
//  2. the new boundary table, atomically replacing dir/BOUNDS;
//  3. a moveOut record in the source's WAL, fsynced.
//
// Replay treats the barrier records as the insert/remove batches they
// encode, and recovery finishes with span enforcement: any key held by a
// shard that does not own it under the recovered boundary table is
// dropped. The ordering makes every crash point exact — before step 2
// the old table still routes the moved keys to the source (whose removal
// was never logged), so a surviving destination copy is dropped as
// out-of-span; after step 2 the new table routes them to the destination
// (whose record step 1 made durable first), so a lingering source copy
// is dropped instead. Keys are never lost, only transiently owned twice,
// and recovery always lands on exactly the pre- or post-move state.
//
// # Durability contract
//
// Three levels, weakest to strongest:
//
//   - An acknowledged mutation (a returned InsertBatch/Insert/...) has been
//     appended to its shard's WAL, but is fsynced only per the group-commit
//     knobs (Options.SyncEvery records / Options.SyncBytes bytes). A crash
//     may lose the unsynced suffix.
//   - After Flush returns, every previously enqueued mutation is applied
//     AND its shard's WAL is fsynced: Flush is the durability barrier.
//     SyncEvery=1 makes every record durable before its call returns.
//   - After Checkpoint returns, every shard's state is additionally
//     captured in a checkpoint and the WAL prefix it covers is
//     truncated (recovery work becomes proportional to the log tail).
//
// # Delta checkpoints
//
// The CPMA stamps every leaf write with a generation, so a published
// handle reports which leaves changed since an earlier handle's
// generation (cpma.ChangedSince), and checkpoints exploit it: a shard
// keeps the generation of its newest checkpoint, and once it has a base
// on disk, subsequent checkpoints write only the leaves changed since as
// a delta file (cpma.WriteDeltaTo) chained to that base — each delta's
// header names the base it anchors to and the checkpoint it patches on
// top of. Checkpoint I/O then scales with how much changed, not with
// shard size, exactly as a published clone's memory cost does. A chain is
// compacted back into a fresh base every Options.CompactEveryDeltas
// deltas, and whenever a geometry rebuild changed every leaf.
//
// Recovery (Open) processes each shard independently: load the newest
// base checkpoint that passes its CRC and cpma Validate — falling back
// to the retained previous one — then walk its delta chain, applying
// each delta that verifies (whole-file CRC, chain linkage, structural
// checks, and the strict semantic validator, each applied onto a COW
// clone so a late failure leaves the previous link intact). The chain
// ends at the first failure; then replay the WAL tail in sequence order
// (Replay, merging runs of same-kind records into one batch each),
// skipping records the chain already covers, and stop at the first torn
// or corrupt record, truncating the log there (later segments,
// unreachable past the gap, are deleted). The recovered state is always
// a per-shard prefix of the appended batch history: synced batches are
// never lost, torn tails are cleanly dropped.
//
// # Retention
//
// Only base checkpoints advance the deletion floor. Writing a base
// deletes checkpoint files — bases and deltas — from chains older than
// the previous base, and WAL segments whose records the previous base
// covers; writing a delta deletes nothing. The store therefore always
// holds its two newest base chains, and the WAL tail above the older
// base, so any single corrupt file — the newest base, any delta — still
// leaves a verifiable recovery point with the log needed to replay
// forward from it. A bit-rotted newest base falls back to the previous
// one and can even pick up *its* retained delta chain on the way.
package persist

import (
	"fmt"

	"repro/internal/cpma"
	"repro/internal/shard"
)

// Defaults for the group-commit and checkpoint cadence knobs.
const (
	DefaultSyncEvery              = 32
	DefaultSyncBytes              = 1 << 20
	DefaultCheckpointEveryBatches = 4096
	DefaultCompactEveryDeltas     = 8
)

// Options configures a Store. The zero value of every field selects a
// default; negative SyncEvery/SyncBytes disable that group-commit trigger
// and a negative CheckpointEveryBatches disables the background
// checkpointer (explicit Checkpoint calls still work).
type Options struct {
	// Dir roots the store's files. Required.
	Dir string
	// Shards is the shard count; it is fixed at creation and validated
	// against the manifest on reopen. Required (>= 1).
	Shards int
	// SyncEvery fsyncs a shard's WAL after this many appended records.
	SyncEvery int
	// SyncBytes fsyncs a shard's WAL once this many bytes accumulate.
	SyncBytes int
	// CheckpointEveryBatches checkpoints a shard once this many records
	// accumulate past its last checkpoint.
	CheckpointEveryBatches int
	// CompactEveryDeltas bounds a shard's delta-checkpoint chain: after
	// this many deltas against one base, the next checkpoint is a fresh
	// base checkpoint (which also lets retention reap the older chain). A
	// negative value disables delta checkpoints entirely — every
	// checkpoint is a base, restoring the pre-delta behavior.
	CompactEveryDeltas int
	// Set configures the recovered CPMAs (nil for the paper's defaults);
	// it must match the options the live set runs with.
	Set *cpma.Options
	// Partition and KeyBits describe the key routing of the set this store
	// backs; they are recorded in the manifest and validated on reopen,
	// because replaying a hash-partitioned log into a range-partitioned
	// set would scatter keys to the wrong shards.
	Partition shard.Partition
	KeyBits   int
	// Bounds seeds the RangePartition boundary table of a fresh store (nil
	// = default equal-width spans). Once the store exists, the journaled
	// BOUNDS sidecar is authoritative — rebalancing rewrites it — and an
	// explicit seed that contradicts it is rejected like any other
	// geometry mismatch. BoundsGen seeds the router generation.
	Bounds    []uint64
	BoundsGen uint64
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("persist: Options.Dir is required")
	}
	if o.Shards < 1 {
		return o, fmt.Errorf("persist: Options.Shards must be >= 1 (got %d)", o.Shards)
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.SyncBytes == 0 {
		o.SyncBytes = DefaultSyncBytes
	}
	if o.CheckpointEveryBatches == 0 {
		o.CheckpointEveryBatches = DefaultCheckpointEveryBatches
	}
	if o.CompactEveryDeltas == 0 {
		o.CompactEveryDeltas = DefaultCompactEveryDeltas
	}
	if o.KeyBits <= 0 || o.KeyBits > 64 {
		o.KeyBits = 64
	}
	return o, nil
}
