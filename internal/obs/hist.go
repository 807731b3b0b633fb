package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket 0
// holds zeros; bucket i (1..64) holds values in [2^(i-1), 2^i). The
// layout is shared by all histograms, so a scraper can sum two snapshots
// bucket by bucket.
const NumBuckets = 65

// bucketOf maps a recorded value to its bucket index. bits.Len64 is
// exactly the log-bucket function: zero lands in bucket 0, and every
// positive v lands in the unique bucket whose half-open power-of-two
// range contains it.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketLo returns the inclusive lower bound of bucket i.
func BucketLo(i int) uint64 {
	if i == 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHi returns the exclusive upper bound of bucket i. The top
// bucket's bound saturates at MaxUint64 (2^64 does not fit).
func BucketHi(i int) uint64 {
	if i == 0 {
		return 1
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1 << i
}

// Histogram is a lock-free log-bucketed latency/size histogram. Record
// costs three atomic adds and no allocation, so it is safe to call from
// the shard writer hot path. The zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// Record adds one observation of v.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Observe records a duration in nanoseconds (negative clamps to zero).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Since records the nanoseconds elapsed since start.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of observations recorded so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures a point-in-time copy. Under concurrent Record the
// capture is approximate but internally consistent: Count is derived
// from the bucket sum, so quantile ranks can never exceed the bucket
// population.
func (h *Histogram) Snapshot() HistSnap {
	var s HistSnap
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnap is a frozen histogram capture: plain values, freely copyable.
type HistSnap struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Mean returns the average recorded value, or 0 when empty.
func (s HistSnap) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Max returns the exclusive upper bound of the highest populated bucket
// (an upper estimate of the largest recorded value), or 0 when empty.
func (s HistSnap) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return BucketHi(i)
		}
	}
	return 0
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) by walking
// the cumulative bucket counts and interpolating linearly inside the
// bucket that contains the target rank. The estimate is monotone in q
// and always lies within the bounds of a populated bucket.
func (s HistSnap) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		cum += n
		if cum >= rank {
			lo, hi := float64(BucketLo(i)), float64(BucketHi(i))
			frac := float64(rank-(cum-n)) / float64(n)
			return lo + frac*(hi-lo)
		}
	}
	return float64(s.Max())
}

// P50, P90, P99 and P999 are the extraction points the pipeline reports.
func (s HistSnap) P50() float64  { return s.Quantile(0.50) }
func (s HistSnap) P90() float64  { return s.Quantile(0.90) }
func (s HistSnap) P99() float64  { return s.Quantile(0.99) }
func (s HistSnap) P999() float64 { return s.Quantile(0.999) }
