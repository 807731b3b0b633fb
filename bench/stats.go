package main

import (
	"math"
	"slices"
	"time"

	"repro"
)

// pct returns the q-quantile of samples by linear interpolation between
// order statistics; 0 for no samples. samples is sorted in place.
func pct(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	pos := q * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(samples) {
		return samples[len(samples)-1]
	}
	frac := pos - float64(lo)
	return samples[lo] + frac*(samples[lo+1]-samples[lo])
}

// quartiles returns the first, second and third quartiles of values by the
// method of Python's statistics.quantiles(values, n=4) (the "exclusive"
// method), which is how run-to-run spread is judged. One value is its own
// quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durs collects latency samples in milliseconds.
type durs []float64

func (s *durs) add(d time.Duration) { *s = append(*s, ms(d)) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload did not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// regVal is one scraped registry metric: a counter or gauge value, or a
// histogram's count, sum and buckets. The bucket layout is the obs
// package's: bucket 0 holds zeros and bucket i holds [2^(i-1), 2^i).
type regVal struct {
	value      float64
	count, sum uint64
	buckets    []uint64
}

// regSnap is a scrape of a metrics registry by name.
type regSnap map[string]regVal

// scrape reads every metric of m. The benchmark reads the pipeline's
// layers only through the registry, its one source of truth.
func scrape(m *repro.Metrics) regSnap {
	out := regSnap{}
	for _, s := range m.Gather() {
		v := regVal{value: s.Value}
		if h := s.Hist; h != nil {
			v.count, v.sum = h.Count, h.Sum
			v.buckets = append([]uint64(nil), h.Buckets[:]...)
		}
		out[s.Name] = v
	}
	return out
}

// merge adds another scrape's counters and histograms into rs (summing
// layers across the stores of several episodes).
func (rs regSnap) merge(o regSnap) {
	for name, b := range o {
		a := rs[name]
		a.value += b.value
		a.count += b.count
		a.sum += b.sum
		if len(a.buckets) < len(b.buckets) {
			a.buckets = append(a.buckets, make([]uint64, len(b.buckets)-len(a.buckets))...)
		}
		for i, n := range b.buckets {
			a.buckets[i] += n
		}
		rs[name] = a
	}
}

// since returns what rs accumulated after prev, an earlier scrape of the
// same registry, was taken.
func (rs regSnap) since(prev regSnap) regSnap {
	out := regSnap{}
	for name, a := range rs {
		b := prev[name]
		a.value -= b.value
		a.count -= b.count
		a.sum -= b.sum
		a.buckets = slices.Clone(a.buckets)
		for i, n := range b.buckets {
			a.buckets[i] -= n
		}
		out[name] = a
	}
	return out
}

// sumSeconds returns a nanosecond histogram's total in seconds.
func (rs regSnap) sumSeconds(name string) float64 { return float64(rs[name].sum) / 1e9 }

// quantile estimates a histogram's q-quantile the way the obs package
// does: walk the cumulative bucket counts and interpolate linearly inside
// the bucket holding the target rank.
func (rs regSnap) quantile(name string, q float64) float64 {
	v := rs[name]
	if v.count == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(v.count))), 1)
	var cum uint64
	for i, n := range v.buckets {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= rank {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
			}
			return lo + float64(rank-(cum-n))/float64(n)*(hi-lo)
		}
	}
	return 0
}

// mean returns a histogram's mean.
func (rs regSnap) mean(name string) float64 {
	v := rs[name]
	return ratio(float64(v.sum), float64(v.count))
}
