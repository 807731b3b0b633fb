package shard

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/cpma"
	"repro/internal/workload"
)

// TestShardSpanDegenerateRanges is the regression test for the
// end-underflow bug: shardSpan used to compute shardOf(end-1), which
// wrapped to ^uint64(0) when end == 0 (and covered the whole span
// whenever end <= start), turning an empty range into a full-span scan.
// Degenerate ranges must now yield an empty shard interval at the router
// and empty results on every live and snapshot read path.
func TestShardSpanDegenerateRanges(t *testing.T) {
	degenerate := [][2]uint64{
		{1, 0}, {5, 0}, {^uint64(0), 0}, // end == 0: the underflow case
		{0, 0}, {7, 7}, {^uint64(0), ^uint64(0)}, // empty
		{9, 3}, {^uint64(0), 1}, // inverted
	}
	for name, opt := range configs() {
		t.Run(name, func(t *testing.T) {
			s := newTestSet(t, name, opt)
			s.InsertBatch(workload.Uniform(workload.NewRNG(3), 5000, 16), false)
			s.Flush()
			rt := s.router()
			for _, d := range degenerate {
				lo, hi := rt.shardSpan(d[0], d[1])
				if hi >= lo {
					t.Fatalf("shardSpan(%d, %d) = [%d, %d], want empty", d[0], d[1], lo, hi)
				}
			}
			sn := s.Snapshot()
			for _, d := range degenerate {
				if sum, count := s.RangeSum(d[0], d[1]); sum != 0 || count != 0 {
					t.Fatalf("RangeSum(%d, %d) = %d, %d; want empty", d[0], d[1], sum, count)
				}
				if !s.MapRange(d[0], d[1], func(uint64) bool {
					t.Fatalf("MapRange(%d, %d) visited a key", d[0], d[1])
					return false
				}) {
					t.Fatalf("MapRange(%d, %d) reported early stop", d[0], d[1])
				}
				if sum, count := sn.RangeSum(d[0], d[1]); sum != 0 || count != 0 {
					t.Fatalf("snapshot RangeSum(%d, %d) = %d, %d; want empty", d[0], d[1], sum, count)
				}
				if !sn.MapRange(d[0], d[1], func(uint64) bool {
					t.Fatalf("snapshot MapRange(%d, %d) visited a key", d[0], d[1])
					return false
				}) {
					t.Fatalf("snapshot MapRange(%d, %d) reported early stop", d[0], d[1])
				}
			}
		})
	}
}

// routerGeometries builds routing tables across extreme partition
// geometries: full 64-bit spans, tiny key spaces with more shards than
// distinct spans, non-power-of-two shard counts, and randomized
// (rebalanced-looking) boundary tables with empty and duplicate spans.
func routerGeometries(r *workload.RNG) []*router {
	var rts []*router
	for _, g := range []struct{ keyBits, shards int }{
		{64, 1}, {64, 3}, {64, 5}, {64, 64}, {64, 100},
		{40, 7}, {16, 9}, {8, 200},
		{2, 9}, {3, 8}, {1, 5}, // shards > distinct spans
	} {
		rts = append(rts, &router{
			part:    RangePartition,
			shards:  g.shards,
			bounds:  defaultBounds(g.keyBits, g.shards),
			spanGen: make([]uint64, g.shards),
		})
		// A randomized table over the same geometry: sorted draws from the
		// key space, with duplicates (empty spans) kept.
		if g.shards > 1 {
			bounds := make([]uint64, g.shards-1)
			for i := range bounds {
				bounds[i] = r.Uint64() >> uint(64-g.keyBits)
			}
			slices.Sort(bounds)
			rts = append(rts, &router{
				part:    RangePartition,
				shards:  g.shards,
				bounds:  bounds,
				spanGen: make([]uint64, g.shards),
			})
		}
	}
	rts = append(rts, &router{part: HashPartition, shards: 7, spanGen: make([]uint64, 7)})
	return rts
}

// TestSplitMatchesShardOf is the property test pinning the satellite fix:
// split's per-shard search bounds and shardOf's routing must derive from
// the same boundary table, so every stored value of every sub-batch must
// decode to a key that routes to the sub-batch's shard as that value —
// across default and randomized (rebalanced) tables, a hash table, sorted
// and unsorted inputs — and the decoded sub-batches must reassemble the
// input. The old fixed-width recomputation
// (uint64(p+1) * width) drifted from shardOf's clamp on exactly the
// rounded-up geometries this sweep includes.
func TestSplitMatchesShardOf(t *testing.T) {
	r := workload.NewRNG(17)
	for _, rt := range routerGeometries(r) {
		for trial := 0; trial < 4; trial++ {
			n := 1 + r.Intn(3000)
			keys := make([]uint64, n)
			for i := range keys {
				switch r.Intn(4) {
				case 0: // boundary-adjacent keys stress the search bounds
					if len(rt.bounds) > 0 {
						b := rt.bounds[r.Intn(len(rt.bounds))]
						keys[i] = b + uint64(r.Intn(3)) - 1
					} else {
						keys[i] = r.Uint64()
					}
				case 1:
					keys[i] = r.Uint64()
				default:
					keys[i] = 1 + r.Uint64()%(1<<20)
				}
				if keys[i] == 0 {
					keys[i] = 1
				}
			}
			for _, sorted := range []bool{false, true} {
				in := slices.Clone(keys)
				if sorted {
					slices.Sort(in)
				}
				subs, _ := rt.split(in, sorted)
				if len(subs) != rt.shards {
					t.Fatalf("split returned %d sub-batches for %d shards", len(subs), rt.shards)
				}
				var cat []uint64
				for p, sub := range subs {
					for _, v := range sub {
						k := rt.key(p, v)
						if got, w := rt.route(k); got != p || w != v {
							t.Fatalf("shards=%d bounds=%v sorted=%v: key %d stored as %d in sub-batch %d, route says %d as %d",
								rt.shards, rt.bounds, sorted, k, v, p, got, w)
						}
						cat = append(cat, k)
					}
					if sorted && !slices.IsSorted(sub) {
						t.Fatalf("shards=%d: sorted split made an unsorted sub-batch %d", rt.shards, p)
					}
				}
				if len(cat) != len(in) {
					t.Fatalf("split dropped keys: %d of %d", len(cat), len(in))
				}
				if !sorted || rt.part != RangePartition {
					// Only a sorted range split keeps input order across
					// sub-batches; the rest reassemble as a multiset.
					slices.Sort(cat)
					in = slices.Sorted(slices.Values(in))
				}
				if !slices.Equal(cat, in) {
					t.Fatalf("shards=%d sorted=%v: decoded sub-batches do not reassemble the input", rt.shards, sorted)
				}
			}
		}
	}
}

// TestDefaultBoundsMatchWidthArithmetic pins the default table to the
// historical fixed-width routing (int(key/width), clamped), which the
// persist kill-point harness and every pre-rebalance store on disk rely
// on.
func TestDefaultBoundsMatchWidthArithmetic(t *testing.T) {
	r := workload.NewRNG(23)
	for _, g := range []struct{ keyBits, shards int }{
		// shards >= 2: the single-shard router short-circuits before any
		// width arithmetic (spanWidth(64, 1) wraps to 0 by construction).
		{64, 3}, {64, 16}, {40, 5}, {16, 9}, {2, 9}, {8, 200},
	} {
		rt := &router{
			part:    RangePartition,
			shards:  g.shards,
			bounds:  defaultBounds(g.keyBits, g.shards),
			spanGen: make([]uint64, g.shards),
		}
		w := spanWidth(g.keyBits, g.shards)
		for i := 0; i < 20000; i++ {
			k := r.Uint64()
			if g.keyBits < 64 && i%2 == 0 {
				k >>= uint(64 - g.keyBits)
			}
			// Unsigned quotient with the clamp applied before the int
			// conversion: the historical code converted first, which
			// overflowed int for tiny key spaces (keyBits=2 leaves width 1,
			// so a 64-bit key's quotient exceeds int64) — another latent
			// fixed-width bug the boundary table removes.
			want := g.shards - 1
			if q := k / w; q < uint64(g.shards) {
				want = int(q)
			}
			if got := rt.shardOf(k); got != want {
				t.Fatalf("keyBits=%d shards=%d: shardOf(%d) = %d, width arithmetic says %d",
					g.keyBits, g.shards, k, got, want)
			}
		}
	}
}

// TestQuotientRouting pins the hash layout: for every shard count and key
// family, a key's stored value is nonzero and decodes back to the key on
// the shard it routes to, a shard holds each quotient at most once (so its
// stored order is key order), and shard loads stay within 5% of the mean
// at 2^16 keys per shard — also for keys whose low bits never vary.
func TestQuotientRouting(t *testing.T) {
	for _, P := range []int{1, 2, 3, 4, 5, 7, 8} {
		rt := &router{part: HashPartition, shards: P, spanGen: make([]uint64, P)}
		b := rt.qbits()
		n := P << 16
		families := map[string][]uint64{
			"dense":     make([]uint64, n),
			"0 mod 4":   make([]uint64, n),
			"2^20-step": make([]uint64, n),
			"uniform40": workload.Uniform(workload.NewRNG(uint64(P)), n, 40),
		}
		for i := range n {
			k := uint64(i + 1)
			families["dense"][i] = k
			families["0 mod 4"][i] = 4 * k
			families["2^20-step"][i] = k << 20
		}
		edge := []uint64{1, 1<<b - 1, 1 << b, ^uint64(0)}
		for name, keys := range families {
			loads := make([]int, P)
			last := make([]uint64, P)
			for _, k := range keys {
				p, v := rt.route(k)
				if v == 0 {
					t.Fatalf("P=%d %s: key %d stored as 0", P, name, k)
				}
				if got := rt.key(p, v); got != k || !rt.owns(p, v) {
					t.Fatalf("P=%d %s: key %d -> shard %d value %d -> key %d (owned %v)", P, name, k, p, v, got, rt.owns(p, v))
				}
				if name != "uniform40" {
					// Ascending keys must reach each shard as strictly
					// ascending stored values.
					if v <= last[p] {
						t.Fatalf("P=%d %s: shard %d stores %d after %d", P, name, p, v, last[p])
					}
					last[p] = v
				}
				loads[p]++
			}
			if r := loadRatio(loads); r > 1.05 {
				t.Fatalf("P=%d %s: max/mean shard load %.4f > 1.05 (%v)", P, name, r, loads)
			}
		}
		for _, k := range edge {
			if k == 0 {
				continue
			}
			p, v := rt.route(k)
			if v == 0 || rt.key(p, v) != k || !rt.owns(p, v) {
				t.Fatalf("P=%d: edge key %d -> shard %d value %d -> key %d", P, k, p, v, rt.key(p, v))
			}
			if P > 1 && v > 1<<63 {
				t.Fatalf("P=%d: edge key %d stored as %d > 2^63", P, k, v)
			}
		}
	}
}

// TestHashTopKeys drives keys at both ends of the key space — the top key
// ^uint64(0) included — through every hash geometry's read paths, live and
// snapshot, against a sorted model.
func TestHashTopKeys(t *testing.T) {
	top := ^uint64(0)
	keys := []uint64{1, 2, 3, 5, 1 << 62, 1<<63 - 1, 1 << 63, 1<<63 + 1, top - 7, top - 2, top - 1, top}
	for _, P := range []int{1, 3, 4, 7, 8} {
		s := New(P, &Options{Partition: HashPartition})
		s.InsertBatch(keys, false)
		if err := s.Validate(); err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		sn := s.Snapshot()
		for _, r := range []interface {
			Has(uint64) bool
			Next(uint64) (uint64, bool)
			Max() (uint64, bool)
			Keys() []uint64
			Sum() uint64
			RangeSum(uint64, uint64) (uint64, int)
			MapRange(uint64, uint64, func(uint64) bool) bool
		}{s, sn} {
			if got := r.Keys(); !slices.Equal(got, keys) {
				t.Fatalf("P=%d: Keys = %v, want %v", P, got, keys)
			}
			var sum uint64
			for _, k := range keys {
				sum += k
			}
			if r.Sum() != sum {
				t.Fatalf("P=%d: Sum = %d, want %d", P, r.Sum(), sum)
			}
			if m, ok := r.Max(); !ok || m != top {
				t.Fatalf("P=%d: Max = %d, %v", P, m, ok)
			}
			for _, k := range keys {
				if !r.Has(k) {
					t.Fatalf("P=%d: Has(%d) = false", P, k)
				}
			}
			for _, k := range []uint64{4, 1<<63 + 2, top - 3} {
				if r.Has(k) {
					t.Fatalf("P=%d: Has(%d) = true", P, k)
				}
			}
			for i, k := range keys {
				if got, ok := r.Next(k); !ok || got != k {
					t.Fatalf("P=%d: Next(%d) = %d, %v", P, k, got, ok)
				}
				if i+1 == len(keys) {
					break
				}
				if got, ok := r.Next(k + 1); !ok || got != keys[i+1] {
					t.Fatalf("P=%d: Next(%d) = %d, %v, want %d", P, k+1, got, ok, keys[i+1])
				}
			}
			if s, c := r.RangeSum(top-7, top); c != 3 || s != (top-7)+(top-2)+(top-1) {
				t.Fatalf("P=%d: RangeSum(top-7, top) = %d, %d", P, s, c)
			}
			var seen []uint64
			r.MapRange(1<<63-1, 1<<63+2, func(x uint64) bool { seen = append(seen, x); return true })
			if !slices.Equal(seen, []uint64{1<<63 - 1, 1 << 63, 1<<63 + 1}) {
				t.Fatalf("P=%d: MapRange around 2^63 = %v", P, seen)
			}
		}
		if n := s.RemoveBatch([]uint64{top}, true); n != 1 {
			t.Fatalf("P=%d: removing the top key removed %d", P, n)
		}
		if m, _ := s.Max(); m != top-1 {
			t.Fatalf("P=%d: Max after removing the top key = %d", P, m)
		}
		s.Close()
	}
}

// TestValidateAuditsRouting plants values on shards the router would never
// send them to and requires Validate to report each one: on a hash
// follower, a stored value whose decoded digit is out of range (5 shards,
// digit 4) and one whose quotient overflows the key (4 shards, q = 2^62);
// on a range primary, a key outside its shard's span.
func TestValidateAuditsRouting(t *testing.T) {
	plant := func(P, p int, v uint64) error {
		f := NewReplica(P, &Options{Partition: HashPartition})
		f.ReplicaApply(p, false, []uint64{v})
		f.ReplicaPublish(p)
		return f.Validate()
	}
	// Quotient q = 6172 (keys 24688..24691 on 5 shards, b = 2) stores
	// q+1 on shard (h(q) + digit) mod 5, h the Fibonacci multiply-shift.
	var q uint64 = 6172
	h, _ := bits.Mul64(q*0x9e3779b97f4a7c15, 5)
	if err := plant(5, int(h+3)%5, q+1); err != nil {
		t.Fatalf("a rightly routed value failed validation: %v", err)
	}
	if err := plant(5, int(h+4)%5, q+1); err == nil {
		t.Fatal("a value with digit 4 on a 5-shard hash set passed validation")
	}
	if err := plant(4, 0, 1<<62+1); err == nil {
		t.Fatal("a quotient past the key space passed validation")
	}

	seed := []*cpma.CPMA{cpma.New(nil), cpma.New(nil)}
	seed[0].InsertBatch([]uint64{5, 1 << 20}, true) // 1<<20 belongs to shard 1
	s := NewFrom(seed, &Options{Partition: RangePartition, KeyBits: 21})
	defer s.Close()
	if err := s.Validate(); err == nil {
		t.Fatal("a key outside its range shard's span passed validation")
	}
}
