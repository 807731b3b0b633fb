package shard

// Reads via one published Snapshot.
//
// The CPMA's pointer-free layout makes a whole-structure copy a
// memcpy-class operation, and its leaf-granular copy-on-write Clone makes
// it cheaper still — O(dirty leaves) per publication — which this file
// turns into the set's only read path, the way Aspen derives functional
// graph snapshots and PaC-trees publish a version by swapping one root
// pointer: each shard's sole mutator freezes an immutable handle after it
// mutates, and readers load handles instead of taking locks. After every
// drain that changed state, the writer stamps the shard's monotone epoch,
// clones the live CPMA, and swaps in a new Snapshot that carries the clone,
// every other shard's current handle and the current router, through the
// set's one atomic.Pointer. Every read — a point lookup, an aggregate, a
// scan, or a whole Snapshot — loads that pointer once and runs the
// Snapshot's read algorithms on it, so a read's routing and its handles
// always come from the same publication.

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cpma"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// shardSnap is one shard's frozen state: an immutable CPMA handle stamped
// with the epoch (count of state-changing applies) it reflects. Once
// published the handle is never mutated — the live set keeps mutating and
// the next publication clones afresh.
type shardSnap struct {
	epoch uint64
	set   *cpma.CPMA
}

// Snapshot is a frozen, immutable view of a Sharded set, and the set's
// published state itself: snaps[p] is shard p's frozen handle and rt the
// routing table the handles were published with. A publication never
// changes a Snapshot; it swaps in a new one, so a Snapshot's data
// placement and its routing always agree, even across rebalances (a
// boundary move installs its router and the pair's handles in one swap).
// Scans on a Snapshot never block writers and never observe in-flight
// batches, so long analytics reads can run concurrently with ingest. A
// Snapshot remains valid forever — including after the set is Closed.
//
// Consistency: each shard's handle reflects a prefix of that shard's
// applied operation sequence (its mailbox is FIFO and its writer publishes
// only at rest points between applies), and all handles come from one
// publication — a frontier cut, where different shards may sit at
// different prefixes of a multi-shard batch stream. Within one Snapshot
// every read is mutually consistent: Len equals the number of keys Map
// visits, Sum matches Keys, and repeated reads are stable. A Snapshot
// taken after a blocking mutation returns includes it (read-your-writes);
// one taken after a Flush returns includes everything the Flush covered
// (read-your-flushes).
//
// Ordered snapshots (see router.ordered) read keys straight off the
// shards. Under the quotient layout every shard is read instead, and each
// stored value is decoded through the snapshot's router before it is
// compared or returned.
type Snapshot struct {
	snaps []shardSnap
	rt    *router
}

func (sn Snapshot) at(p int) *cpma.CPMA { return sn.snaps[p].set }

// publish makes the current state of the listed shards, and rt when it is
// not nil, visible to reads in one swap, and returns the Snapshot that
// holds them. A listed shard is cloned only if state-changing applies
// landed since its last publication; when nothing changed, the current
// Snapshot is returned as it is. Only a listed shard's sole mutator calls
// publish for it — the writer between applies, the rebalancer with the
// writer parked, or a replica's applier — because cpma.Clone moves the
// live set to a fresh copy-on-write generation, which is single-caller by
// contract. Publishers of different shards meet only at the swap, a
// CompareAndSwap that recopies the winner's handles on retry, so readers
// never wait.
func (s *Sharded) publish(rt *router, shards ...int) *Snapshot {
	cur := s.v.Load()
	gen := cur.rt.gen
	if rt != nil {
		gen = rt.gen
	}
	changed := rt != nil
	for _, p := range shards {
		if s.freeze(p, gen) {
			changed = true
		}
	}
	if !changed {
		return cur
	}
	next := &Snapshot{snaps: make([]shardSnap, len(s.cells))}
	for {
		copy(next.snaps, cur.snaps)
		next.rt = cur.rt
		if rt != nil {
			next.rt = rt
		}
		for _, p := range shards {
			next.snaps[p] = s.cells[p].last
		}
		if s.v.CompareAndSwap(cur, next) {
			return next
		}
		cur = s.v.Load()
	}
}

// freeze refreshes shard p's last handle with a clone of the live set if
// state-changing applies landed since it was taken, and reports whether it
// did. gen is the router generation the trace event is stamped with.
func (s *Sharded) freeze(p int, gen uint64) bool {
	c := &s.cells[p]
	e := c.epoch.Load()
	if c.last.set != nil && c.last.epoch == e {
		return false
	}
	t0 := time.Now()
	c.last = shardSnap{epoch: e, set: c.set.Clone()}
	cost := c.last.set.CloneCost()
	s.snapCloneBytes.Add(cost.Total())
	s.snapSpineBytes.Add(cost.Spine)
	s.snapSlabBytes.Add(cost.Slab)
	s.snapFullBytes.Add(c.last.set.SizeBytes())
	s.pm.publish.Since(t0)
	s.trace.Record(p, obs.EvPublish, e, gen, cost.Total(), 0)
	return true
}

// Snapshot returns the set's published Snapshot: one atomic load, no
// flush barrier, nothing copied. It counts the call (Captures).
func (s *Sharded) Snapshot() *Snapshot {
	s.captures.Add(1)
	return s.v.Load()
}

// Shards returns the number of shards in the snapshot.
func (sn Snapshot) Shards() int { return len(sn.snaps) }

// ShardSets returns the snapshot's frozen per-shard CPMA handles in shard
// order. The handles are immutable by the publication contract: callers may
// scan them freely (Leaves/LeafMapFrom/Map and the other read APIs) from any
// number of goroutines, concurrently with ingest on the live set, but must
// never mutate them. Under RangePartition shard order is key order, so the
// concatenated leaf sequence of the returned sets holds every key of the
// snapshot in ascending order — the property leaf-level analytics (the
// sharded F-Graph view) build on. Under HashPartition with more than one
// shard the handles hold stored quotients, not keys (see HashPartition).
// The returned slice is fresh; the handles are the originals.
func (sn Snapshot) ShardSets() []*cpma.CPMA {
	out := make([]*cpma.CPMA, len(sn.snaps))
	for p, h := range sn.snaps {
		out[p] = h.set
	}
	return out
}

// Bounds returns a copy of the interior span-boundary table the snapshot
// was routed with (nil for a single shard or a hash partition): shards-1
// ascending keys, shard p owning [Bounds[p-1], Bounds[p]). The table was
// published together with the frozen handles, so the returned bounds always
// agree with where those handles hold their keys — even when the snapshot
// was taken during a rebalance.
func (sn Snapshot) Bounds() []uint64 {
	return append([]uint64(nil), sn.rt.bounds...)
}

// RangePartitioned reports whether the snapshot's shards partition the key
// space by contiguous ranges (shard order = key order).
func (sn Snapshot) RangePartitioned() bool { return sn.rt.part == RangePartition }

// Epochs returns the per-shard epochs (state-changing applies reflected)
// the snapshot was cut at. Epochs are monotone per shard: a later Snapshot
// never reports a smaller epoch for any shard.
func (sn Snapshot) Epochs() []uint64 {
	out := make([]uint64, len(sn.snaps))
	for p, h := range sn.snaps {
		out[p] = h.epoch
	}
	return out
}

// Validate checks every frozen shard's CPMA invariants and audits its
// routing: every stored value must be one the router sends to that shard
// (a test helper).
func (sn Snapshot) Validate() error {
	for p, h := range sn.snaps {
		if err := h.set.Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", p, err)
		}
		var bad uint64
		if !h.set.Map(func(s uint64) bool {
			bad = s
			return sn.rt.owns(p, s)
		}) {
			return fmt.Errorf("shard %d: stored value %d does not route to it", p, bad)
		}
	}
	return nil
}

// Len returns the number of keys in the snapshot.
func (sn Snapshot) Len() int {
	total := 0
	for _, h := range sn.snaps {
		total += h.set.Len()
	}
	return total
}

// SizeBytes returns the summed memory footprint of the frozen shards.
func (sn Snapshot) SizeBytes() uint64 {
	return parallel.ReduceSum(len(sn.snaps), 1, func(i int) uint64 {
		return sn.snaps[i].set.SizeBytes()
	})
}

// Has reports whether x is in the snapshot.
func (sn Snapshot) Has(x uint64) bool {
	if x == 0 {
		return false
	}
	p, s := sn.rt.route(x)
	return sn.at(p).Has(s)
}

// Sum returns the sum (mod 2^64) of all keys in the snapshot, shards in
// parallel.
func (sn Snapshot) Sum() uint64 {
	if sn.rt.ordered() {
		return parallel.ReduceSum(len(sn.snaps), 1, func(i int) uint64 {
			return sn.snaps[i].set.Sum()
		})
	}
	s, _ := sn.sumIn(1, ^uint64(0))
	return s
}

// RangeSum sums keys in [start, end). Ordered snapshots read only the
// span's shards, unordered ones every shard, in parallel.
func (sn Snapshot) RangeSum(start, end uint64) (sum uint64, count int) {
	if start >= end {
		return 0, 0
	}
	if !sn.rt.ordered() {
		return sn.sumIn(start, end-1)
	}
	lo, hi := sn.rt.shardSpan(start, end)
	var su atomic.Uint64
	var cnt atomic.Int64
	parallel.For(hi-lo+1, 1, func(i int) {
		s, k := sn.at(lo+i).RangeSum(start, end)
		su.Add(s)
		cnt.Add(int64(k))
	})
	return su.Load(), int(cnt.Load())
}

// sumIn sums the keys in [first, last] of an unordered snapshot, shards in
// parallel. The keys in [first, last] are stored as the quotients
// first>>b .. last>>b (plus one), so one stored-range scan per shard finds
// them; only the two boundary quotients can decode to keys outside the
// range. last>>b + 2 <= 2^63 + 1, so the stored range never wraps.
func (sn Snapshot) sumIn(first, last uint64) (uint64, int) {
	var su atomic.Uint64
	var cnt atomic.Int64
	b, P := sn.rt.qbits(), sn.rt.shards
	parallel.For(len(sn.snaps), 1, func(p int) {
		var s uint64
		var k int64
		sn.snaps[p].set.MapRange(first>>b+1, last>>b+2, func(st uint64) bool {
			if x := unquote(p, st, b, P); x >= first && x <= last {
				s += x
				k++
			}
			return true
		})
		su.Add(s)
		cnt.Add(k)
	})
	return su.Load(), int(cnt.Load())
}

// Next returns the smallest key >= x in the snapshot.
func (sn Snapshot) Next(x uint64) (uint64, bool) {
	if sn.rt.ordered() {
		for p := sn.rt.shardOf(x); p < len(sn.snaps); p++ {
			if r, ok := sn.at(p).Next(x); ok {
				return r, true
			}
		}
		return 0, false
	}
	// A shard's first stored value at or past x's quotient decodes to x's
	// quotient with a lower digit at most once; the value after it is then
	// the shard's answer.
	q := x >> sn.rt.qbits()
	var best uint64
	found := false
	for p := range sn.snaps {
		s, ok := sn.at(p).Next(q + 1)
		if !ok {
			continue
		}
		r := sn.rt.key(p, s)
		if r < x {
			if s, ok = sn.at(p).Next(s + 1); !ok {
				continue
			}
			r = sn.rt.key(p, s)
		}
		if !found || r < best {
			best, found = r, true
		}
	}
	return best, found
}

// Min returns the smallest key in the snapshot.
func (sn Snapshot) Min() (uint64, bool) { return sn.Next(1) }

// Max returns the largest key in the snapshot.
func (sn Snapshot) Max() (uint64, bool) {
	var best uint64
	found := false
	for p := len(sn.snaps) - 1; p >= 0; p-- {
		if s, ok := sn.at(p).Max(); ok {
			r := sn.rt.key(p, s)
			if sn.rt.ordered() {
				return r, true
			}
			if !found || r > best {
				best, found = r, true
			}
		}
	}
	return best, found
}

// MapRange applies f to keys in [start, end) in ascending order, stopping
// early when f returns false; reports whether the scan completed.
// Degenerate ranges (end <= start) complete immediately. Ordered snapshots
// stream shard by shard in key order; unordered ones gather the whole
// range from every shard in parallel and merge it first (so early exits
// still pay the full gather). The scan is lock-free; f may freely call
// back into the snapshot or the live set.
func (sn Snapshot) MapRange(start, end uint64, f func(uint64) bool) bool {
	if start >= end {
		return true
	}
	if sn.rt.ordered() {
		lo, hi := sn.rt.shardSpan(start, end)
		for p := lo; p <= hi; p++ {
			if !sn.at(p).MapRange(start, end, f) {
				return false
			}
		}
		return true
	}
	return iterate(sn.gatherRange(start, end-1), f)
}

// Map applies f to every key in ascending order, stopping early when f
// returns false; reports whether the scan completed. It is MapRange over
// the whole key space, top key included.
func (sn Snapshot) Map(f func(uint64) bool) bool {
	if sn.rt.ordered() {
		for _, h := range sn.snaps {
			if !h.set.Map(f) {
				return false
			}
		}
		return true
	}
	return iterate(sn.gatherRange(1, ^uint64(0)), f)
}

// Keys returns all keys in the snapshot in ascending order.
func (sn Snapshot) Keys() []uint64 {
	var out []uint64
	sn.Map(func(v uint64) bool {
		out = append(out, v)
		return true
	})
	return out
}

// iterate applies f to keys in order until it returns false.
func iterate(keys []uint64, f func(uint64) bool) bool {
	for _, x := range keys {
		if !f(x) {
			return false
		}
	}
	return true
}

// gatherRange collects [first, last] from every shard of an unordered
// snapshot in parallel, scanning stored ranges as sumIn does, and merges
// the disjoint sorted runs.
func (sn Snapshot) gatherRange(first, last uint64) []uint64 {
	b, P := sn.rt.qbits(), sn.rt.shards
	lists := make([][]uint64, len(sn.snaps))
	parallel.For(len(lists), 1, func(p int) {
		var keys []uint64
		sn.snaps[p].set.MapRange(first>>b+1, last>>b+2, func(s uint64) bool {
			if x := unquote(p, s, b, P); x >= first && x <= last {
				keys = append(keys, x)
			}
			return true
		})
		lists[p] = keys
	})
	var bufs [2][]uint64
	return parallel.MergeRuns(lists, &bufs)
}

// SnapshotStats counts the snapshot machinery's work: epoch advances
// (state-changing applies across shards), publications (frozen handles
// materialized — each one a cpma.Clone), the bytes those clones actually
// copied versus the full-copy baseline, and Snapshot captures.
// Publishes <= Epochs + Shards (each shard seeds one publication at epoch
// 0 when the set is built): the gap is the publication amortization
// (drains coalesce many applies into one clone, unchanged shards
// republish nothing). CloneBytes/FullCopyBytes is the copy-on-write win:
// clones materialize only their chunk-pointer tables plus the spine
// chunks and leaf slabs written since the previous publication, while
// FullCopyBytes accumulates what eager deep copies of the same handles
// would have cost.
type SnapshotStats struct {
	Epochs          uint64 // state-changing applies across all shards
	Publishes       uint64 // frozen handles published (cpma.Clone calls)
	CloneBytes      uint64 // bytes materialized across those clones (COW): spine + slab + pointer tables
	CloneSpineBytes uint64 // of which spine chunks copied on first write
	CloneSlabBytes  uint64 // of which leaf slabs copied on first write
	FullCopyBytes   uint64 // SizeBytes of the same handles (full-copy baseline)
	Captures        uint64 // Snapshot() calls
}

// SnapshotStats returns the snapshot counters. Counters are monotone;
// RegisterMetrics exports each field under {prefix}_snapshot_*.
func (s *Sharded) SnapshotStats() SnapshotStats {
	st := SnapshotStats{
		Publishes:       s.pm.publish.Count(),
		CloneBytes:      s.snapCloneBytes.Load(),
		CloneSpineBytes: s.snapSpineBytes.Load(),
		CloneSlabBytes:  s.snapSlabBytes.Load(),
		FullCopyBytes:   s.snapFullBytes.Load(),
		Captures:        s.captures.Load(),
	}
	for p := range s.cells {
		st.Epochs += s.cells[p].epoch.Load()
	}
	return st
}
