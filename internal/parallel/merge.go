package parallel

import "sort"

// mergeGrain is the size below which merges run sequentially. Chosen so a
// sequential chunk comfortably amortizes a goroutine spawn.
const mergeGrain = 16 << 10

// merge merges the sorted slices a and b into out, which must have length
// len(a)+len(b). Duplicates are preserved. Large merges are split with the
// binary-search strategy of load-balanced parallel merging [Akl–Santoro].
func merge(a, b, out []uint64) {
	if len(a)+len(b) <= mergeGrain || Serial() {
		seqMerge(a, b, out)
		return
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	mid := len(a) / 2
	pivot := a[mid]
	// Elements equal to pivot in b go left so equal runs stay adjacent.
	cut := sort.Search(len(b), func(i int) bool { return b[i] > pivot })
	Do(
		func() { merge(a[:mid+1], b[:cut], out[:mid+1+cut]) },
		func() { merge(a[mid+1:], b[cut:], out[mid+1+cut:]) },
	)
}

func seqMerge(a, b, out []uint64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// MergeRuns merges the k sorted runs into one sorted slice with
// level-by-level pairwise rounds (O(total log k) element moves),
// ping-ponging between two reusable arenas. Every round writes all of its
// output — including a copied odd leftover — into that round's arena, so
// no round ever reads the arena it is writing. Duplicates across runs are
// preserved. runs is clobbered; the result aliases one of the arenas (or
// runs[0] itself when k is 1, or is nil when k is 0) and is only valid
// until the next call.
func MergeRuns(runs [][]uint64, bufs *[2][]uint64) []uint64 {
	if len(runs) == 0 {
		return nil
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	which := 0
	for len(runs) > 1 {
		dst := bufs[which]
		if cap(dst) < total {
			dst = make([]uint64, total)
		}
		dst = dst[:total]
		bufs[which] = dst
		which ^= 1
		off, n := 0, 0
		for i := 0; i+1 < len(runs); i += 2 {
			a, b := runs[i], runs[i+1]
			out := dst[off : off+len(a)+len(b)]
			merge(a, b, out)
			runs[n] = out
			n++
			off += len(out)
		}
		if len(runs)%2 == 1 {
			last := runs[len(runs)-1]
			out := dst[off : off+len(last)]
			copy(out, last)
			runs[n] = out
			n++
		}
		runs = runs[:n]
	}
	return runs[0]
}

// MergeDedup merges sorted, individually duplicate-free slices a and b into a
// new slice, dropping keys present in both. It returns the merged slice and
// the number of elements of b that were not already in a.
func MergeDedup(a, b []uint64) (merged []uint64, fresh int) {
	if len(a)+len(b) <= mergeGrain || Serial() {
		return seqMergeDedup(a, b)
	}
	out := make([]uint64, len(a)+len(b))
	merge(a, b, out)
	merged = out[:storeDistinct(out, out)]
	return merged, len(merged) - len(a)
}

func seqMergeDedup(a, b []uint64) ([]uint64, int) {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	fresh := 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
			fresh++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	fresh += len(b) - j
	out = append(out, b[j:]...)
	return out, fresh
}

// dedupSorted returns sorted slice a with adjacent duplicates removed. The
// result is freshly allocated; a is left unchanged. It is one serial pass:
// a parallel count, scan and scatter read slower than this loop on 2 cores
// at 25k and 1M keys.
func dedupSorted(a []uint64) []uint64 {
	if len(a) == 0 {
		return nil
	}
	out := make([]uint64, len(a))
	return out[:storeDistinct(out, a)]
}

// storeDistinct stores the keys of a that differ from their predecessor
// (a[0] has none and is kept) into out, which must be as long as a and may
// be a itself, and returns how many it kept. It stores every key and
// advances past a kept one by (d | -d) >> 63, d the XOR of the key and its
// predecessor, so a repeat costs no branch; a repeat lands in the slot
// after the last kept key, which a later key overwrites or the caller
// slices off. Each step reads a[i-1] before it stores, so in place the
// store never clobbers a key still to be read.
func storeDistinct(out, a []uint64) int {
	out[0] = a[0]
	k := 1
	for i := 1; i < len(a); i++ {
		d := a[i] ^ a[i-1]
		out[k] = a[i]
		k += int((d | -d) >> 63)
	}
	return k
}
