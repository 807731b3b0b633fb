package shard

// Reads via writer-published handles.
//
// The CPMA's pointer-free layout makes a whole-structure copy a
// memcpy-class operation, and its leaf-granular copy-on-write Clone makes
// it cheaper still — O(dirty leaves) per publication — which this file
// turns into the set's only read path, the way Aspen derives functional
// graph snapshots and PAM-style structures derive persistence: each
// shard's sole mutator publishes an immutable handle after it mutates, and
// readers grab handles instead of locks. After every drain that changed
// state, the writer stamps the shard's monotone epoch and publishes a
// frozen Clone through an atomic.Pointer. Every read — a point lookup, an
// aggregate, a scan, or a whole Snapshot — captures the handles of the
// shards it covers (capture) and runs the shared cut algorithms on them.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cpma"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// shardSnap is one shard's published frozen state: an immutable CPMA handle
// stamped with the epoch (count of state-changing applies) it reflects and
// the span generation (router.spanGen) its shard's key range had when it
// was published. Once published the handle is never mutated — the live set
// keeps mutating and the next publication clones afresh. The gen stamp is
// what keeps captures coherent across rebalances: a capture only accepts a
// handle whose gen matches the routing table it will serve reads with.
type shardSnap struct {
	epoch uint64
	gen   uint64
	set   *cpma.CPMA
}

// cut is a captured per-shard view that the read algorithms run against:
// snaps[p-lo] is shard p's published handle, for p in [lo, hi] (span-sized,
// so a narrow read holds only what it covers). rt is the routing table the
// capture was validated against — the cut's data placement and its routing
// always agree, even across rebalances. A cut is valid forever.
type cut struct {
	snaps  []*shardSnap
	rt     *router
	lo, hi int
}

func (v cut) at(p int) *cpma.CPMA { return v.snaps[p-v.lo].set }

// capture grabs the published handles of the shards span(rt) covers under
// the current router rt. Every handle must have been published under rt's
// span generation for its shard, and rt must still be current once all
// are grabbed; otherwise a rebalance (or a replica's bounds update) is
// mid-publication — a handle's keys may sit on the other side of a moved
// boundary — and the capture starts over. buf backs the cut when it is
// large enough (Has passes a one-element array so a point read allocates
// nothing). span may return hi < lo for a degenerate range, which yields
// an empty cut.
func (s *Sharded) capture(span func(rt *router) (lo, hi int), buf []*shardSnap) cut {
retry:
	for {
		rt := s.router()
		lo, hi := span(rt)
		if hi < lo {
			return cut{rt: rt, lo: 0, hi: -1}
		}
		snaps := buf
		if n := hi - lo + 1; cap(snaps) >= n {
			snaps = snaps[:n]
		} else {
			snaps = make([]*shardSnap, n)
		}
		for p := lo; p <= hi; p++ {
			sn := s.cells[p].snap.Load()
			if sn.gen != rt.spanGen[p] {
				runtime.Gosched()
				continue retry
			}
			snaps[p-lo] = sn
		}
		if s.router() == rt {
			return cut{snaps: snaps, rt: rt, lo: lo, hi: hi}
		}
	}
}

// fullSpan is the span callback for whole-set reads.
func fullSpan(rt *router) (int, int) { return 0, rt.shards - 1 }

// publish refreshes c's published handle if state-changing applies landed
// since the last publication (or the shard's span changed generation), and
// returns the current handle. Only the shard's sole mutator calls it —
// the writer between applies, the rebalancer with the writer parked, the
// constructor, or a replica's applier — because cpma.Clone hands over the
// dirty window and flips copy-on-write ownership on the live set, which is
// single-caller by contract.
func (s *Sharded) publish(p int, c *cell) *shardSnap {
	e := c.epoch.Load()
	g := s.router().spanGen[p]
	if old := c.snap.Load(); old != nil && old.epoch == e {
		if old.gen != g {
			// Only the span generation moved (a replica's bounds update):
			// the frozen contents are still current, so restamp them.
			old = &shardSnap{epoch: e, gen: g, set: old.set}
			c.snap.Store(old)
		}
		return old
	}
	t0 := time.Now()
	sn := &shardSnap{epoch: e, gen: g, set: c.set.Clone()}
	c.snap.Store(sn)
	s.snapPublishes.Add(1)
	s.snapCloneBytes.Add(sn.set.CloneCost())
	s.snapFullBytes.Add(sn.set.SizeBytes())
	s.pm.publish.Since(t0)
	s.trace.Record(p, obs.EvPublish, e, g, sn.set.CloneCost(), 0)
	return sn
}

// Snapshot is a frozen, immutable view of a Sharded set: one capture of
// every shard's published handle, serving the full read API off frozen
// CPMAs. Scans on a Snapshot never block writers and never observe
// in-flight batches, so long analytics reads can run concurrently with
// ingest. A Snapshot remains valid forever — including after the set is
// Closed.
//
// Consistency: each shard's handle reflects a prefix of that shard's
// applied operation sequence (its mailbox is FIFO and its writer publishes
// only at rest points between applies), and all handles are captured at
// one instant — a frontier cut, where different shards may sit at
// different prefixes of a multi-shard batch stream. Within one Snapshot
// every read is mutually consistent: Len equals the number of keys Map
// visits, Sum matches Keys, and repeated reads are stable. A Snapshot
// captured after a blocking mutation returns includes it
// (read-your-writes); one captured after a Flush returns includes
// everything the Flush covered (read-your-flushes).
type Snapshot struct {
	v cut
}

// Snapshot captures one cut across all shards: a lock-free handle grab —
// no flush barrier, O(shards) work. The capture validates every handle's
// span generation against the routing table it serves reads with (see
// capture), so a Snapshot never routes with spans that disagree with
// where its frozen handles actually hold the keys.
func (s *Sharded) Snapshot() *Snapshot {
	t0 := time.Now()
	defer s.pm.capture.Since(t0)
	s.snapCaptures.Add(1)
	return &Snapshot{v: s.capture(fullSpan, nil)}
}

// Shards returns the number of shards the snapshot covers.
func (sn *Snapshot) Shards() int { return len(sn.v.snaps) }

// ShardSets returns the snapshot's frozen per-shard CPMA handles in shard
// order. The handles are immutable by the publication contract: callers may
// scan them freely (Leaves/LeafMap/Map and the other read APIs) from any
// number of goroutines, concurrently with ingest on the live set, but must
// never mutate them. Under RangePartition shard order is key order, so the
// concatenated leaf sequence of the returned sets holds every key of the
// snapshot in ascending order — the property leaf-level analytics (the
// sharded F-Graph view) build on. Under HashPartition with more than one
// shard the handles hold stored quotients, not keys (see HashPartition).
// The returned slice is fresh; the handles are the originals.
func (sn *Snapshot) ShardSets() []*cpma.CPMA {
	out := make([]*cpma.CPMA, len(sn.v.snaps))
	for p, h := range sn.v.snaps {
		out[p] = h.set
	}
	return out
}

// Bounds returns a copy of the interior span-boundary table the snapshot
// was routed with (nil for a single shard or a hash partition): shards-1
// ascending keys, shard p owning [Bounds[p-1], Bounds[p]). Because capture
// validates every handle's span generation against this table, the
// returned bounds always agree with where the frozen handles actually hold
// their keys — even when the capture raced a rebalance.
func (sn *Snapshot) Bounds() []uint64 {
	return append([]uint64(nil), sn.v.rt.bounds...)
}

// RangePartitioned reports whether the snapshot's shards partition the key
// space by contiguous ranges (shard order = key order).
func (sn *Snapshot) RangePartitioned() bool { return sn.v.rt.part == RangePartition }

// Epochs returns the per-shard epochs (state-changing applies reflected)
// the snapshot was cut at. Epochs are monotone per shard: a later Snapshot
// never reports a smaller epoch for any shard.
func (sn *Snapshot) Epochs() []uint64 {
	out := make([]uint64, len(sn.v.snaps))
	for p, h := range sn.v.snaps {
		out[p] = h.epoch
	}
	return out
}

// Len returns the number of keys in the snapshot.
func (sn *Snapshot) Len() int { return sn.v.length() }

// SizeBytes returns the summed memory footprint of the frozen shards.
func (sn *Snapshot) SizeBytes() uint64 { return sn.v.sizeBytes() }

// Sum returns the sum (mod 2^64) of all keys in the snapshot.
func (sn *Snapshot) Sum() uint64 { return sn.v.sum() }

// RangeSum sums keys in [start, end).
func (sn *Snapshot) RangeSum(start, end uint64) (sum uint64, count int) {
	return sn.v.rangeSum(start, end)
}

// Has reports whether x is in the snapshot.
func (sn *Snapshot) Has(x uint64) bool {
	if x == 0 {
		return false
	}
	return sn.v.has(x)
}

// Next returns the smallest key >= x in the snapshot.
func (sn *Snapshot) Next(x uint64) (uint64, bool) { return sn.v.next(x) }

// Min returns the smallest key in the snapshot.
func (sn *Snapshot) Min() (uint64, bool) { return sn.v.next(1) }

// Max returns the largest key in the snapshot.
func (sn *Snapshot) Max() (uint64, bool) { return sn.v.max() }

// MapRange applies f to keys in [start, end) in ascending order, stopping
// early when f returns false; reports whether the scan completed. The scan
// is lock-free; f may freely call back into the snapshot or the live set.
func (sn *Snapshot) MapRange(start, end uint64, f func(uint64) bool) bool {
	if start >= end {
		return true
	}
	return sn.v.mapRange(start, end, f)
}

// Map applies f to every key in ascending order, stopping early when f
// returns false; reports whether the scan completed. Lock-free.
func (sn *Snapshot) Map(f func(uint64) bool) bool {
	return sn.v.mapAll(f)
}

// Keys returns all keys in the snapshot in ascending order.
func (sn *Snapshot) Keys() []uint64 {
	var out []uint64
	sn.Map(func(v uint64) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Validate checks every frozen shard's CPMA invariants and routing (a test
// helper).
func (sn *Snapshot) Validate() error { return sn.v.validate() }

// --- shared read algorithms over a cut ---
//
// Ordered cuts (see router.ordered) read keys straight off the shards.
// Under the quotient layout every shard is read instead, and each stored
// value is decoded through the cut's router before it is compared or
// returned.

// validate checks every shard's CPMA invariants and audits its routing:
// every stored value must be one the router sends to that shard.
func (v cut) validate() error {
	for i, h := range v.snaps {
		p := v.lo + i
		if err := h.set.Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", p, err)
		}
		var bad uint64
		if !h.set.Map(func(s uint64) bool {
			bad = s
			return v.rt.owns(p, s)
		}) {
			return fmt.Errorf("shard %d: stored value %d does not route to it", p, bad)
		}
	}
	return nil
}

func (v cut) length() int {
	total := 0
	for _, h := range v.snaps {
		total += h.set.Len()
	}
	return total
}

func (v cut) sizeBytes() uint64 {
	return parallel.ReduceSum(len(v.snaps), 1, func(i int) uint64 {
		return v.snaps[i].set.SizeBytes()
	})
}

func (v cut) has(x uint64) bool {
	p, s := v.rt.route(x)
	return v.at(p).Has(s)
}

func (v cut) sum() uint64 {
	if v.rt.ordered() {
		return parallel.ReduceSum(len(v.snaps), 1, func(i int) uint64 {
			return v.snaps[i].set.Sum()
		})
	}
	s, _ := v.sumIn(1, ^uint64(0))
	return s
}

func (v cut) rangeSum(start, end uint64) (uint64, int) {
	if start >= end {
		return 0, 0
	}
	if !v.rt.ordered() {
		return v.sumIn(start, end-1)
	}
	lo, hi := v.rt.shardSpan(start, end)
	lo, hi = max(lo, v.lo), min(hi, v.hi)
	var su atomic.Uint64
	var cnt atomic.Int64
	parallel.For(hi-lo+1, 1, func(i int) {
		s, k := v.at(lo+i).RangeSum(start, end)
		su.Add(s)
		cnt.Add(int64(k))
	})
	return su.Load(), int(cnt.Load())
}

// sumIn sums the keys in [first, last] of an unordered cut, shards in
// parallel. The keys in [first, last] are stored as the quotients
// first>>b .. last>>b (plus one), so one stored-range scan per shard finds
// them; only the two boundary quotients can decode to keys outside the
// range. last>>b + 2 <= 2^63 + 1, so the stored range never wraps.
func (v cut) sumIn(first, last uint64) (uint64, int) {
	var su atomic.Uint64
	var cnt atomic.Int64
	b, P := v.rt.qbits(), v.rt.shards
	parallel.For(len(v.snaps), 1, func(i int) {
		var s uint64
		var k int64
		p := v.lo + i
		v.snaps[i].set.MapRange(first>>b+1, last>>b+2, func(st uint64) bool {
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

func (v cut) next(x uint64) (uint64, bool) {
	if v.rt.ordered() {
		for p := max(v.rt.shardOf(x), v.lo); p <= v.hi; p++ {
			if r, ok := v.at(p).Next(x); ok {
				return r, true
			}
		}
		return 0, false
	}
	// A shard's first stored value at or past x's quotient decodes to x's
	// quotient with a lower digit at most once; the value after it is then
	// the shard's answer.
	q := x >> v.rt.qbits()
	var best uint64
	found := false
	for p := v.lo; p <= v.hi; p++ {
		s, ok := v.at(p).Next(q + 1)
		if !ok {
			continue
		}
		r := v.rt.key(p, s)
		if r < x {
			if s, ok = v.at(p).Next(s + 1); !ok {
				continue
			}
			r = v.rt.key(p, s)
		}
		if !found || r < best {
			best, found = r, true
		}
	}
	return best, found
}

func (v cut) max() (uint64, bool) {
	var best uint64
	found := false
	for p := v.hi; p >= v.lo; p-- {
		if s, ok := v.at(p).Max(); ok {
			r := v.rt.key(p, s)
			if v.rt.ordered() {
				return r, true
			}
			if !found || r > best {
				best, found = r, true
			}
		}
	}
	return best, found
}

// mapRange is the ordered scan over [start, end): ordered cuts stream
// shard by shard in key order, unordered ones gather the merged range and
// then iterate.
func (v cut) mapRange(start, end uint64, f func(uint64) bool) bool {
	if v.rt.ordered() {
		lo, hi := v.rt.shardSpan(start, end)
		for p := max(lo, v.lo); p <= min(hi, v.hi); p++ {
			if !v.at(p).MapRange(start, end, f) {
				return false
			}
		}
		return true
	}
	return iterate(v.gatherRange(start, end-1), f)
}

// mapAll is mapRange over the whole key space, top key included.
func (v cut) mapAll(f func(uint64) bool) bool {
	if v.rt.ordered() {
		for _, h := range v.snaps {
			if !h.set.Map(f) {
				return false
			}
		}
		return true
	}
	return iterate(v.gatherRange(1, ^uint64(0)), f)
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

// gatherRange collects [first, last] from every shard of an unordered cut
// in parallel, scanning stored ranges as sumIn does, and merges the
// disjoint sorted runs.
func (v cut) gatherRange(first, last uint64) []uint64 {
	b, P := v.rt.qbits(), v.rt.shards
	lists := make([][]uint64, len(v.snaps))
	parallel.For(len(lists), 1, func(i int) {
		var keys []uint64
		p := v.lo + i
		v.snaps[i].set.MapRange(first>>b+1, last>>b+2, func(s uint64) bool {
			if x := unquote(p, s, b, P); x >= first && x <= last {
				keys = append(keys, x)
			}
			return true
		})
		lists[i] = keys
	})
	return mergeLists(lists)
}

// SnapshotStats counts the snapshot machinery's work: epoch advances
// (state-changing applies across shards), publications (frozen handles
// materialized — each one a cpma.Clone), the bytes those clones actually
// copied versus the full-copy baseline, and Snapshot captures.
// Publishes <= Epochs + Shards (each shard seeds one publication at epoch
// 0 when the set is built): the gap is the publication amortization
// (drains coalesce many applies into one clone, unchanged shards
// republish nothing). CloneBytes/FullCopyBytes is the copy-on-write win:
// clones materialize only the per-leaf spine plus the leaves dirtied since
// the previous publication, while FullCopyBytes accumulates what eager
// deep copies of the same handles would have cost.
type SnapshotStats struct {
	Epochs        uint64 // state-changing applies across all shards
	Publishes     uint64 // frozen handles published (cpma.Clone calls)
	CloneBytes    uint64 // bytes materialized across those clones (COW)
	FullCopyBytes uint64 // SizeBytes of the same handles (full-copy baseline)
	Captures      uint64 // Snapshot() calls
}

// SnapshotStats returns the snapshot counters. Counters are monotone;
// RegisterMetrics exports each field under {prefix}_snapshot_*.
func (s *Sharded) SnapshotStats() SnapshotStats {
	st := SnapshotStats{
		Publishes:     s.snapPublishes.Load(),
		CloneBytes:    s.snapCloneBytes.Load(),
		FullCopyBytes: s.snapFullBytes.Load(),
		Captures:      s.snapCaptures.Load(),
	}
	for p := range s.cells {
		st.Epochs += s.cells[p].epoch.Load()
	}
	return st
}
