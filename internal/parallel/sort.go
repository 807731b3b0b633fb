package parallel

import "slices"

// radixMin is the batch size below which SortedSet sorts with the standard
// library's pattern-defeating quicksort instead of the radix sort. Sorting
// uniform 40-bit keys on a shared 2-vCPU Xeon (go1.24.0, GOMAXPROCS 1),
// the two tie at 1k keys (20-30 µs each); slices.Sort wins at 250 keys
// (4.7 against 7.4 µs) and the radix sort at 2k (45 against 75 µs).
const radixMin = 1 << 10

// repeatBits sizes SortedSet's repeat filter: a direct-mapped table of
// 1<<repeatBits last-seen keys (8 KiB on the stack), enough to hold a
// skewed stream's hot set while staying in L1.
const repeatBits = 10

// fibMul is 2^64 divided by the golden ratio (made odd): the repeat
// filter's slot is the top repeatBits bits of k*fibMul.
const fibMul = 0x9e3779b97f4a7c15

// SortedSet turns a caller's batch into sorted, duplicate-free keys, and
// panics if the batch holds the reserved key 0.
//
// With sorted set the keys must be ascending. A strictly increasing batch
// comes back as it is, uncopied; one with repeats comes back as a fresh
// duplicate-free copy. Only the first key is checked for 0.
//
// An unsorted batch always comes back as a fresh slice the caller owns,
// and keys is left unchanged (see sortUnsorted).
func SortedSet(keys []uint64, sorted bool) []uint64 {
	if !sorted {
		return sortUnsorted(keys)
	}
	if len(keys) == 0 {
		return keys
	}
	if keys[0] == 0 {
		panic("key 0 is reserved")
	}
	prev := keys[0]
	for _, k := range keys[1:] {
		if k <= prev {
			return dedupSorted(keys)
		}
		prev = k
	}
	return keys
}

// sortUnsorted is SortedSet for an unsorted batch. It is a function of its
// own so that the repeat filter's 8 KiB table is in its frame only, not in
// the frame of every sorted batch and one-key update.
//
// One pass drops repeats before the sort: each key probes a direct-mapped
// table of last-seen keys (slot = the top repeatBits bits of a Fibonacci
// hash) and only keys not found there are copied out. The table is a
// filter, not a set — a key evicted by a colliding one is copied again —
// so slices.Compact finishes the job after the sort; on a skewed stream
// the hot keys stay resident and almost all their occurrences are gone
// before the sort sees them. The pass is also the batch's key-0 check,
// made before the probe: the zeroed table already "holds" key 0, so a
// check after it would drop the key silently.
func sortUnsorted(keys []uint64) []uint64 {
	if len(keys) == 0 {
		return nil
	}
	var seen [1 << repeatBits]uint64
	out := make([]uint64, len(keys))
	n := 0
	for _, k := range keys {
		if k == 0 {
			panic("key 0 is reserved")
		}
		h := (k * fibMul) >> (64 - repeatBits)
		if seen[h] != k {
			seen[h] = k
			out[n] = k
			n++
		}
	}
	return slices.Compact(radixSort(out[:n]))
}

// radixSort sorts a and returns the sorted keys, which are either a itself
// or a fresh slice of the same length. It is a serial LSD radix sort over
// 8-bit digits: one pass counts every digit and ORs and ANDs the keys, and
// each digit that varies across the batch then takes one stable scatter
// pass (a digit on which OR and AND agree is the same in every key). Below
// radixMin keys it is slices.Sort.
func radixSort(a []uint64) []uint64 {
	if len(a) < radixMin {
		slices.Sort(a)
		return a
	}
	var counts [8][256]int
	or, and := uint64(0), ^uint64(0)
	for _, k := range a {
		or |= k
		and &= k
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	varying := or ^ and
	var buf []uint64
	for d := range counts {
		shift := 8 * uint(d)
		if byte(varying>>shift) == 0 {
			continue
		}
		if buf == nil {
			buf = make([]uint64, len(a))
		}
		off := &counts[d]
		sum := 0
		for b, c := range off {
			off[b] = sum
			sum += c
		}
		for _, k := range a {
			b := byte(k >> shift)
			buf[off[b]] = k
			off[b]++
		}
		a, buf = buf, a
	}
	return a
}
