package shard

// Replica mode: a read-only Sharded set driven by a replication applier
// (repro/internal/repl) instead of clients. A replica has no mailboxes, no
// writers, no journal, and no rebalancer — its mutation history arrives
// pre-serialized as per-shard WAL records, already sorted and routed. The
// applier merges them into runs with persist.Replay, as recovery does, and
// writes only through ReplicaApply (the writers' applyOne) / ReplicaReset /
// ReplicaSetBounds below. It is the replica's sole mutator, and so its only
// publisher: it publishes after each batch of records, after a reset, and
// after a bounds update. Everything on the read side — live reads,
// Snapshot, SnapshotStats — loads the same published Snapshot the primary
// serves, which is the point: a follower serves the exact read API the
// primary does, off state that is always a per-shard prefix of the
// primary's acknowledged history.
//
// Client mutations (Insert, InsertBatch, ...) panic on a replica: the
// replica's state must be a pure function of the replicated log, and a
// single locally inserted key would silently break the prefix invariant
// the differential harness (and any failover story) depends on.

import (
	"repro/internal/cpma"
)

// NewReplica returns a read-only Sharded set for a replication follower.
// Only the geometry and read-side options are honored (Partition, KeyBits,
// Bounds, BoundsGen, Set); ingest options are ignored — appliers write
// through the Replica* methods, clients through none.
func NewReplica(shards int, opts *Options) *Sharded {
	var o Options
	if opts != nil {
		o = *opts
	}
	ro := Options{
		Partition: o.Partition,
		KeyBits:   o.KeyBits,
		Bounds:    o.Bounds,
		BoundsGen: o.BoundsGen,
		Set:       o.Set,
	}
	return newSharded(shards, nil, &ro, true)
}

// Replica reports whether this set is a read-only replication follower.
func (s *Sharded) Replica() bool { return s.replica }

// checkNotReplica guards the client mutation entry points.
func (s *Sharded) checkNotReplica() {
	if s.replica {
		panic("shard: client mutation on a replication follower (replicas only change by replay)")
	}
}

// checkReplica guards the applier entry points.
func (s *Sharded) checkReplica(op string) {
	if !s.replica {
		panic("shard: " + op + " on a non-replica set")
	}
}

// ReplicaApply applies to shard p one sorted run that merges the given
// number of replicated records, through applyOne as a writer applies a
// drain: EnqueuedBatches counts records, AppliedBatches runs. Returns the
// number of keys whose membership changed; reads see the run after
// ReplicaPublish(p). Caller is the single applier goroutine.
func (s *Sharded) ReplicaApply(p int, remove bool, keys []uint64, records int) int {
	s.checkReplica("ReplicaApply")
	c := &s.cells[p]
	c.enqBatches.Add(uint64(records))
	c.enqKeys.Add(uint64(len(keys)))
	kind := opInsert
	if remove {
		kind = opRemove
	}
	return s.applyOne(p, c, kind, keys)
}

// ReplicaPublish publishes shard p's handle, making every record applied
// so far visible to reads. Single applier goroutine.
func (s *Sharded) ReplicaPublish(p int) {
	s.checkReplica("ReplicaPublish")
	s.publish(nil, p)
}

// ReplicaReset replaces shard p's entire state and publishes it — the
// bootstrap path: the applier installs a checkpoint-chain state received
// from the primary and resumes record replay from the sequence it covers.
// Ownership of set transfers to the shard.
func (s *Sharded) ReplicaReset(p int, set *cpma.CPMA) {
	s.checkReplica("ReplicaReset")
	if set == nil {
		set = cpma.New(s.opt.Set)
	}
	c := &s.cells[p]
	c.set = set
	c.epoch.Add(1)
	s.publish(nil, p)
}

// ReplicaSetBounds installs the primary's boundary table at router
// generation gen, so the follower's range routing (shardSpan on reads,
// span pruning on MapRange) matches the shard contents the replicated
// moves produce. It publishes the router alone: each shard's handle
// changes only when the applier publishes that shard. Stale or repeated
// generations are ignored, as is any
// table under HashPartition; a table of the wrong length or out of order
// is an error and changes nothing. Single applier goroutine.
func (s *Sharded) ReplicaSetBounds(gen uint64, bounds []uint64) error {
	s.checkReplica("ReplicaSetBounds")
	if s.opt.Partition != RangePartition || len(s.cells) < 2 || gen <= s.router().gen {
		return nil
	}
	if err := checkBounds(bounds, len(s.cells)); err != nil {
		return err
	}
	s.publish(&router{part: RangePartition, shards: len(s.cells), bounds: append([]uint64(nil), bounds...), gen: gen, replica: true})
	return nil
}

// RouterBounds returns the current boundary table (a copy; nil under
// HashPartition) and its router generation from one atomic router load —
// the pair a replication shipper forwards to followers, where reading
// them in separate calls could pair a table with a neighboring
// generation across a concurrent move.
func (s *Sharded) RouterBounds() (gen uint64, bounds []uint64) {
	rt := s.router()
	if rt.bounds == nil {
		return rt.gen, nil
	}
	return rt.gen, append([]uint64(nil), rt.bounds...)
}

// ShardKeys returns shard p's published keys, decoded, in ascending order
// — the differential harness's per-shard comparison primitive (the prefix
// invariant is per shard, so the comparison must be too; a cross-shard
// read would route through bounds that may sit at a different point of
// the move history than the shard contents do). A shard's stored order is
// its key order under either partition, so decoding keeps it ascending.
func (s *Sharded) ShardKeys(p int) []uint64 {
	sn := s.v.Load()
	keys := sn.at(p).Keys()
	for i, v := range keys {
		keys[i] = sn.rt.key(p, v)
	}
	return keys
}
