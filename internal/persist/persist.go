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
// A store takes its directory and shard count as arguments (Open,
// OpenSharded) and every other setting from the set's own shard.Options:
// the routing fields (Partition, KeyBits, Bounds, BoundsGen) and Set,
// which must match the live set's, and the durability cadence
// (SyncEvery, SyncBytes, CheckpointEveryBatches, CompactEveryDeltas),
// whose zero values select 32 records, 1 MiB, 4096 batches and 8 deltas.
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
//	dir/<name>.<random>.tmp          a MANIFEST, BOUNDS or checkpoint being
//	dir/shard-NNNN/<name>.<random>.tmp written (writeFile); renamed to
//	                                 <name> once whole, and removed by
//	                                 Open if a crash leaves it behind
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
//     knobs (shard.Options.SyncEvery records / SyncBytes bytes). A crash
//     may lose the unsynced suffix.
//   - After Flush returns, every previously enqueued mutation is applied
//     AND its shard's WAL is fsynced: Flush is the durability barrier.
//     SyncEvery=1 makes every record durable before its call returns.
//   - After Checkpoint returns, every shard's state is additionally
//     captured in a checkpoint and the WAL prefix it covers is
//     truncated (recovery work becomes proportional to the log tail).
//
// A file's fsync does not make its name durable; its directory's fsync
// does. So every name is made durable before anything depends on it:
// whole files (MANIFEST, BOUNDS, checkpoints) are written to a temp file,
// fsynced, renamed into place and the directory fsynced (writeFile); a
// new WAL segment's directory is fsynced before any record in it can be
// acknowledged; Open fsyncs the store root once the shard directories
// exist; and a retention pass fsyncs a directory once after removing
// files from it (recovery's deletions ride on its final fsync, which runs
// before any append).
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
// compacted back into a fresh base every shard.Options.CompactEveryDeltas
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

	"repro/internal/shard"
)

// Defaults for the group-commit and checkpoint cadence knobs.
const (
	defaultSyncEvery              = 32
	defaultSyncBytes              = 1 << 20
	defaultCheckpointEveryBatches = 4096
	defaultCompactEveryDeltas     = 8
)

// withDefaults validates a store's arguments and fills the durability
// cadence fields of o: the zero value of each selects its default above;
// negative SyncEvery/SyncBytes disable that group-commit trigger and a
// negative CheckpointEveryBatches disables the background checkpointer
// (explicit Checkpoint calls still work). KeyBits outside [1, 64] means
// the full 64-bit space, as in shard.
func withDefaults(dir string, shards int, o shard.Options) (shard.Options, error) {
	if dir == "" {
		return o, fmt.Errorf("persist: a store directory is required")
	}
	if shards < 1 {
		return o, fmt.Errorf("persist: shards must be >= 1 (got %d)", shards)
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = defaultSyncEvery
	}
	if o.SyncBytes == 0 {
		o.SyncBytes = defaultSyncBytes
	}
	if o.CheckpointEveryBatches == 0 {
		o.CheckpointEveryBatches = defaultCheckpointEveryBatches
	}
	if o.CompactEveryDeltas == 0 {
		o.CompactEveryDeltas = defaultCompactEveryDeltas
	}
	if o.KeyBits <= 0 || o.KeyBits > 64 {
		o.KeyBits = 64
	}
	return o, nil
}
