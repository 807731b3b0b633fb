package shard

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/parallel"
)

// scatterGrain is the block size of the parallel counting scatter.
const scatterGrain = 8192

// spanWidth returns the key span each shard covers under the default
// (equal-width) RangePartition table: the key space [0, 2^keyBits) divided
// into shards contiguous pieces.
func spanWidth(keyBits, shards int) uint64 {
	if keyBits >= 64 {
		return ^uint64(0)/uint64(shards) + 1
	}
	total := uint64(1) << uint(keyBits)
	w := total / uint64(shards)
	if total%uint64(shards) != 0 {
		w++
	}
	if w == 0 {
		w = 1
	}
	return w
}

// DefaultBounds returns the equal-width interior boundary table a fresh
// range-partitioned set starts with (nil for a single shard): the table
// Options.Bounds defaults to, exported so the persist layer can reason
// about spans of stores that predate (or never performed) a rebalance.
func DefaultBounds(keyBits, shards int) []uint64 {
	if keyBits <= 0 || keyBits > 64 {
		keyBits = 64
	}
	return defaultBounds(keyBits, shards)
}

// defaultBounds builds the equal-width interior boundary table for
// RangePartition: shards-1 ascending keys, shard p owning
// [bounds[p-1], bounds[p]) with implicit 0 below and infinity above. With
// small key spaces (spanWidth rounds up) trailing shards legitimately own
// empty spans — their boundaries saturate at the top of the key space.
func defaultBounds(keyBits, shards int) []uint64 {
	if shards <= 1 {
		return nil
	}
	w := spanWidth(keyBits, shards)
	bounds := make([]uint64, shards-1)
	for i := range bounds {
		hi, lo := bits.Mul64(uint64(i+1), w)
		if hi != 0 {
			lo = ^uint64(0)
		}
		bounds[i] = lo
	}
	return bounds
}

// checkBounds validates a caller-supplied interior boundary table.
func checkBounds(bounds []uint64, shards int) error {
	if len(bounds) != shards-1 {
		return fmt.Errorf("shard: boundary table has %d entries, want shards-1 = %d", len(bounds), shards-1)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return fmt.Errorf("shard: boundary table not sorted at %d: %d < %d", i, bounds[i], bounds[i-1])
		}
	}
	return nil
}

// mix64 is the splitmix64 finalizer, the same bijective scramble the
// workload generator uses to spread keys uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// router routes keys to shards: the partition policy plus the authoritative
// sorted span-boundary table it needs under RangePartition. A router is
// immutable once published — rebalancing builds a fresh router (new bounds,
// bumped gen, copied spanGen) and swaps the Sharded's atomic pointer — so
// readers and snapshots can hold one and route consistently without locks,
// and without retaining the live Sharded beyond the frozen handles they
// serve.
type router struct {
	part   Partition
	shards int
	// bounds is the interior boundary table: shards-1 ascending keys, shard
	// p owning the half-open span [bounds[p-1], bounds[p]) with implicit 0
	// below bounds[0] and +inf above bounds[shards-2]. Equal adjacent
	// boundaries denote empty spans. Unused (nil) under HashPartition.
	bounds []uint64
	// gen counts router generations: 0 at construction, +1 per rebalance.
	gen uint64
	// spanGen[p] is the generation at which shard p's span last changed.
	// Snapshot captures validate published handles against it: a handle
	// published under an older span generation must not be routed with this
	// router (the keys it holds may have moved shards since).
	spanGen []uint64
}

// shardOf routes a key to its owning shard.
func (rt *router) shardOf(key uint64) int {
	if rt.shards == 1 {
		return 0
	}
	if rt.part == RangePartition {
		// First interior boundary strictly above the key; keys at or above
		// every boundary (including keys past 2^KeyBits) route to the last
		// shard.
		return sort.Search(len(rt.bounds), func(i int) bool { return key < rt.bounds[i] })
	}
	// Multiply-shift maps the hash onto [0, shards) without a modulo.
	hi, _ := bits.Mul64(mix64(key), uint64(rt.shards))
	return int(hi)
}

// spanOf returns shard p's half-open span [lo, hi) under RangePartition;
// last reports that the span is unbounded above (hi is meaningless then).
func (rt *router) spanOf(p int) (lo, hi uint64, last bool) {
	if p > 0 {
		lo = rt.bounds[p-1]
	}
	if p == rt.shards-1 {
		return lo, 0, true
	}
	return lo, rt.bounds[p], false
}

// shardSpan returns the inclusive shard interval overlapping [start, end):
// the exact span under RangePartition, every shard under HashPartition. A
// degenerate range (end <= start, including the end == 0 wraparound that
// used to underflow into a full-span scan) yields an empty interval with
// hi < lo; callers iterate [lo, hi] and naturally touch nothing.
func (rt *router) shardSpan(start, end uint64) (lo, hi int) {
	if end <= start {
		return 0, -1
	}
	if rt.part == RangePartition {
		return rt.shardOf(start), rt.shardOf(end - 1)
	}
	return 0, rt.shards - 1
}

// split partitions a batch into per-shard sub-batches, preserving input
// order within each sub-batch (so sorted inputs yield sorted sub-batches).
// Sorted range-partitioned batches split into subslices of the input with
// no copying — the per-shard search bound is the same boundary table
// shardOf routes with, so the two can never disagree; everything else goes
// through a blocked two-pass parallel counting scatter. aliased reports
// whether the sub-batches share memory with keys — the ownership fact
// asyncSplit's copy decision depends on, returned here so it cannot drift
// from the implementation.
func (rt *router) split(keys []uint64, sorted bool) (subs [][]uint64, aliased bool) {
	P := rt.shards
	if P == 1 {
		return [][]uint64{keys}, true
	}
	if rt.part == RangePartition && sorted {
		subs = make([][]uint64, P)
		lo := 0
		for p := 0; p < P; p++ {
			hi := len(keys)
			if p+1 < P {
				bound := rt.bounds[p] // first key owned by shard p+1 (or later)
				hi = lo + sort.Search(len(keys)-lo, func(i int) bool { return keys[lo+i] >= bound })
			}
			subs[p] = keys[lo:hi]
			lo = hi
		}
		return subs, true
	}
	return rt.scatter(keys), false
}

// scatter buckets keys by shard with a two-pass counting scatter: blocks
// count in parallel, a shard-major prefix sum assigns every block a private
// window in each bucket, and blocks then fill their windows in parallel
// without synchronization. Input order is preserved within each bucket.
func (rt *router) scatter(keys []uint64) [][]uint64 {
	P := rt.shards
	n := len(keys)
	nb := (n + scatterGrain - 1) / scatterGrain
	ids := make([]int32, n)
	counts := make([]int, nb*P)
	parallel.For(nb, 1, func(b int) {
		lo, hi := b*scatterGrain, (b+1)*scatterGrain
		if hi > n {
			hi = n
		}
		row := counts[b*P : (b+1)*P]
		for i := lo; i < hi; i++ {
			id := int32(rt.shardOf(keys[i]))
			ids[i] = id
			row[id]++
		}
	})
	offsets := make([]int, nb*P)
	totals := make([]int, P)
	for p := 0; p < P; p++ {
		run := 0
		for b := 0; b < nb; b++ {
			offsets[b*P+p] = run
			run += counts[b*P+p]
		}
		totals[p] = run
	}
	subs := make([][]uint64, P)
	for p := range subs {
		if totals[p] > 0 {
			subs[p] = make([]uint64, totals[p])
		}
	}
	parallel.For(nb, 1, func(b int) {
		lo, hi := b*scatterGrain, (b+1)*scatterGrain
		if hi > n {
			hi = n
		}
		pos := make([]int, P)
		copy(pos, offsets[b*P:(b+1)*P])
		for i := lo; i < hi; i++ {
			id := ids[i]
			subs[id][pos[id]] = keys[i]
			pos[id]++
		}
	})
	return subs
}

// router returns the current routing table. The pointer is immutable;
// rebalancing publishes replacements through the atomic.
func (s *Sharded) router() *router { return s.rt.Load() }

func (s *Sharded) shardOf(key uint64) int { return s.router().shardOf(key) }

// asyncSplit partitions a batch into per-shard sub-batches that are sorted
// and safe for the ingest pipeline to hold: a fire-and-forget enqueue
// outlives the call, so its sub-batches must never alias the caller's
// slice (which the caller is free to reuse the moment the enqueue
// returns). A ticketed enqueue (wait) blocks until the writers have
// consumed the keys, so aliasing is safe and the defensive copy is
// skipped. Unsorted input is sorted up front — the writers' coalescing
// merge needs sorted runs — which also makes every split path below
// order-preserving. The caller must hold life.RLock so the router cannot
// be swapped between the split and the enqueue.
func (s *Sharded) asyncSplit(rt *router, keys []uint64, sorted, wait bool) [][]uint64 {
	if len(keys) == 0 {
		return nil
	}
	owned := false
	if !sorted {
		keys = parallel.SortedCopy(keys)
		owned = true
	}
	subs, aliased := rt.split(keys, true)
	// Aliased sub-batches need copies unless the sort above produced a
	// private copy or the caller waits for the apply.
	if aliased && !owned && !wait {
		for p, sub := range subs {
			if len(sub) > 0 {
				subs[p] = append(make([]uint64, 0, len(sub)), sub...)
			}
		}
	}
	return subs
}
