package main

import (
	"slices"
	"sort"
	"time"

	"repro"
)

// Keys in the read workloads are split by residue mod 4: the preload holds
// keys ≡0, writers add keys ≡1, and miss probes use keys ≡2, so each read
// can be checked against the preload alone however the writers interleave.

// residueKeys returns n distinct keys ≡ res (mod 4) drawn uniformly from
// [1, 2^bits), sorted.
func residueKeys(rng *repro.RNG, n, bits int, res uint64) []uint64 {
	out := make([]uint64, 0, n)
	for len(out) < n {
		for _, k := range repro.UniformKeys(rng, n-len(out), bits) {
			if k = k&^3 | res; k != 0 {
				out = append(out, k)
			}
		}
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// shuffled returns keys in a random order.
func shuffled(rng *repro.RNG, keys []uint64) []uint64 {
	out := slices.Clone(keys)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// freshBatches returns count unsorted batches of n keys ≡ res (mod 4), no
// key in two batches.
func freshBatches(rng *repro.RNG, count, n, bits int, res uint64) [][]uint64 {
	all := shuffled(rng, residueKeys(rng, count*n, bits, res))
	out := make([][]uint64, count)
	for i := range out {
		out[i] = all[i*n : (i+1)*n]
	}
	return out
}

// readInputs are the pre-generated range queries and point probes of a
// workload's reads, drawn against a sorted set of keys that every answer
// is checked against.
type readInputs struct {
	preload []uint64
	prefix  []uint64 // prefix[i] is the sum of preload[:i], mod 2^64
	starts  []uint64 // range query starts
	width   uint64   // range query width, sized to hold rangeKeys keys on average
	probes  []uint64 // even positions hit the preload, odd positions miss it
}

// queryPool is the number of distinct range queries and probes generated;
// the workloads cycle through them.
const queryPool = 1 << 16

// indexKeys returns read inputs over preload with its prefix sums and no
// queries yet.
func indexKeys(preload []uint64) *readInputs {
	in := &readInputs{preload: preload, prefix: make([]uint64, len(preload)+1)}
	for i, k := range preload {
		in.prefix[i+1] = in.prefix[i] + k
	}
	return in
}

// newReadInputs draws range queries of about rangeKeys keys and point
// probes against preload. Misses are keys ≡2 (mod 4) outside preload.
func newReadInputs(rng *repro.RNG, preload []uint64, bits, rangeKeys int) *readInputs {
	in := indexKeys(preload)
	space := uint64(1) << bits
	in.width = max(space/uint64(len(preload))*uint64(rangeKeys), 1)
	in.starts = make([]uint64, queryPool)
	for i := range in.starts {
		in.starts[i] = 1 + rng.Uint64()%(space-in.width-1)
	}
	var misses []uint64
	for _, k := range shuffled(rng, residueKeys(rng, queryPool, bits, 2)) {
		if !in.has(k) && len(misses) < queryPool/2 {
			misses = append(misses, k)
		}
	}
	in.probes = make([]uint64, 0, queryPool)
	for _, miss := range misses {
		in.probes = append(in.probes, preload[rng.Intn(len(preload))], miss)
	}
	return in
}

// expect returns the count and sum of preload keys in [a, b).
func (in *readInputs) expect(a, b uint64) (sum uint64, count int) {
	lo := sort.Search(len(in.preload), func(i int) bool { return in.preload[i] >= a })
	hi := sort.Search(len(in.preload), func(i int) bool { return in.preload[i] >= b })
	return in.prefix[hi] - in.prefix[lo], hi - lo
}

func (in *readInputs) has(k uint64) bool {
	_, found := slices.BinarySearch(in.preload, k)
	return found
}

// A read is timed in units of many calls: rangeChunk range queries, or
// pointChunk point probes. A unit is short enough that many of them run in
// each stretch of time the machine runs at full speed.
const (
	rangeChunk = 100
	pointChunk = 1000
)

// reader is the read API shared by a Set and a sharded snapshot.
type reader interface {
	RangeSum(start, end uint64) (sum uint64, count int)
	Has(x uint64) bool
}

// rangeAnswer is one range query's answer, checked after its unit's timing.
type rangeAnswer struct {
	a, sum uint64
	cnt    int
}

// readRates collects the rates of a pass's read units.
type readRates struct {
	ranges []float64 // keys per second of each unit of range queries
	points []float64 // probes per second of each unit of point probes
	probes int
}

// rangeUnit runs one unit of range queries on s, starting at query q of
// the pool, records its rate and returns the answers for the caller to
// check.
func (rr *readRates) rangeUnit(k *track, s reader, in *readInputs, q int) [rangeChunk]rangeAnswer {
	var out [rangeChunk]rangeAnswer
	keys := 0
	t0 := time.Now()
	for i := range out {
		a := in.starts[(q+i)%len(in.starts)]
		t := k.begin("cpma.range")
		sum, cnt := s.RangeSum(a, a+in.width)
		k.end(t)
		out[i] = rangeAnswer{a, sum, cnt}
		keys += cnt
	}
	rr.ranges = append(rr.ranges, float64(keys)/time.Since(t0).Seconds())
	return out
}

// checkRanges checks range answers against the preload's prefix sums.
func checkRanges(r *runner, answers []rangeAnswer, in *readInputs) {
	for _, s := range answers {
		wantSum, wantCnt := in.expect(s.a, s.a+in.width)
		r.chk.check(s.sum == wantSum && s.cnt == wantCnt,
			"%s: RangeSum[%d,%d) = (%d, %d), want (%d, %d)", r.name, s.a, s.a+in.width, s.sum, s.cnt, wantSum, wantCnt)
	}
}

// pointUnit runs one unit of point probes on s, starting at probe p of the
// pool, checks every answer and records the unit's rate.
func (rr *readRates) pointUnit(r *runner, k *track, s reader, in *readInputs, p int) {
	bad := 0
	t := k.begin("cpma.has")
	for i := p; i < p+pointChunk; i++ {
		j := i % len(in.probes)
		if s.Has(in.probes[j]) != (j%2 == 0) {
			bad++
		}
	}
	d := k.end(t)
	rr.points = append(rr.points, pointChunk/d.Seconds())
	rr.probes += pointChunk
	r.chk.ops(pointChunk - 1)
	r.chk.check(bad == 0, "%s: %d of %d Has probes answered wrongly", r.name, bad, pointChunk)
}

// report sets the end-to-end read metrics of an untraced pass, or the read
// path's per-layer metrics of a traced one.
func (rr *readRates) report(r *runner, tr *tracer) {
	if tr == nil {
		r.setRate("read_keys_per_s", rr.ranges)
		r.setRate("point_reads_per_s", rr.points)
		return
	}
	r.setPct("cpma.range_us_p50", scaled(tr.durations("cpma.range"), 1e3), 0.5)
	r.set("cpma.has_ns_mean", tr.busy("cpma.has").Seconds()*1e9/float64(rr.probes), rr.probes)
}
