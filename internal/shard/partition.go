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

// fibMul is 2^64 divided by the golden ratio (made odd): the Fibonacci
// multiplier whose product's high bits spread arithmetic progressions of
// quotients evenly.
const fibMul = 0x9e3779b97f4a7c15

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
	// replica marks a follower's table. A replicated move lands shard by
	// shard, so a follower's range shards can briefly hold keys outside
	// their spans; the routing audit in validate skips spans there.
	replica bool
}

// ordered reports that shard order is key order and shards store keys as
// they are: every RangePartition, and the single shard of a HashPartition.
func (rt *router) ordered() bool { return rt.part == RangePartition || rt.shards == 1 }

// qbits is b = floor(log2 shards), the low key bits a hash router takes
// out of every stored value (see HashPartition).
func (rt *router) qbits() uint { return uint(bits.Len(uint(rt.shards)) - 1) }

// home is h(q), the shard a quotient's zero digit routes to: the
// multiply-shift hi64((q * fibMul mod 2^64) * shards). Reads decode every
// stored value through it, so it is one multiply rather than a full
// finalizer.
func home(q uint64, shards int) int {
	hi, _ := bits.Mul64(q*fibMul, uint64(shards))
	return int(hi)
}

// unquote decodes the value s that shard p stores under the quotient
// layout with b digit bits: q = s-1, r = (p - h(q)) mod shards, and the key
// is q<<b | r. Scan loops call it with b and shards in locals.
func unquote(p int, s uint64, b uint, shards int) uint64 {
	q := s - 1
	r := p - home(q, shards)
	if r < 0 {
		r += shards
	}
	return q<<b | uint64(r)
}

// route returns a key's owning shard and the value that shard stores for
// it: the key itself when ordered, else its quotient plus one on shard
// (h(q) + r) mod shards.
func (rt *router) route(key uint64) (p int, stored uint64) {
	if rt.shards == 1 {
		return 0, key
	}
	if rt.part == RangePartition {
		// First interior boundary strictly above the key; keys at or above
		// every boundary (including keys past 2^KeyBits) route to the last
		// shard.
		return sort.Search(len(rt.bounds), func(i int) bool { return key < rt.bounds[i] }), key
	}
	b := rt.qbits()
	q := key >> b
	// h(q) < shards and r < 2^b <= shards, so one subtraction reduces.
	if p = home(q, rt.shards) + int(key&(1<<b-1)); p >= rt.shards {
		p -= rt.shards
	}
	return p, q + 1
}

// shardOf routes a key to its owning shard.
func (rt *router) shardOf(key uint64) int {
	p, _ := rt.route(key)
	return p
}

// key decodes a value shard p stores back into its key: the inverse of
// route.
func (rt *router) key(p int, stored uint64) uint64 {
	if rt.ordered() {
		return stored
	}
	return unquote(p, stored, rt.qbits(), rt.shards)
}

// owns reports whether shard p may hold stored value v: v decodes to a key
// that routes back to (p, v). A digit of 2^b or more (possible when shards
// is not a power of two) or a quotient too large for a key fails the round
// trip. A replica's range shards are exempt (see router.replica).
func (rt *router) owns(p int, v uint64) bool {
	if rt.replica && rt.part == RangePartition {
		return true
	}
	q, w := rt.route(rt.key(p, v))
	return q == p && w == v
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

// split partitions a batch into per-shard sub-batches of stored values
// (see route), preserving input order within each sub-batch (so sorted
// inputs yield sorted sub-batches).
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

// scatter buckets keys' stored values by shard with a two-pass counting
// scatter: blocks count in parallel, a shard-major prefix sum assigns every
// block a private window in each bucket, and blocks then fill their windows
// in parallel without synchronization. Input order is preserved within
// each bucket.
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
	quot, qb := !rt.ordered(), rt.qbits()
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
			v := keys[i]
			if quot {
				v = v>>qb + 1 // the stored value route returns
			}
			subs[id][pos[id]] = v
			pos[id]++
		}
	})
	return subs
}

// router returns the current routing table. The pointer is immutable;
// rebalancing publishes replacements through the atomic.
func (s *Sharded) router() *router { return s.rt.Load() }

func (s *Sharded) shardOf(key uint64) int { return s.router().shardOf(key) }

// asyncSplit partitions a sorted batch into per-shard sorted sub-batches
// that are safe for the ingest pipeline to hold: a fire-and-forget enqueue
// outlives the call, so its sub-batches must never alias the caller's
// slice (which the caller is free to reuse the moment the enqueue
// returns). They may alias keys only when private reports that keys is
// safe to hold: the pipeline's own copy (distinctSorted's output), or the
// caller's slice under a ticketed enqueue, which blocks until the writers
// have consumed the keys. The caller must hold life.RLock so the router
// cannot be swapped between the split and the enqueue.
func asyncSplit(rt *router, keys []uint64, private bool) [][]uint64 {
	if len(keys) == 0 {
		return nil
	}
	subs, aliased := rt.split(keys, true)
	if aliased && !private {
		for p, sub := range subs {
			if len(sub) > 0 {
				subs[p] = append(make([]uint64, 0, len(sub)), sub...)
			}
		}
	}
	return subs
}
