package cpma

import (
	"encoding/binary"

	"repro/internal/codec"
	"repro/internal/pmatree"
)

// This file holds the two leaf formats. Every leaf operation dispatches on
// the format once, so no loop over keys branches on it.
//
//   - Compressed: an 8-byte head, then one delta byte code per further key
//     (internal/codec).
//   - Uncompressed: every key as 8 little-endian bytes, the first of them
//     the head. Probes binary-search the leaf.
//
// Every update of a leaf, a point update's one key or a batch's run, is
// one forward walk of the format's edit kernel (splice) over the leaf's
// old bytes and the sorted run together (§5, Figure 6): it seeks the run's
// first key, copies the bytes between edit points as they are, and
// encodes only the keys at them.

// format holds the array-scale constants of a leaf format. Density is
// measured in bytes for both, so one implicit tree (pmatree) plans for
// either.
type format struct {
	raw bool // fixed 8-byte keys instead of delta codes
	// minLeafBytes is the smallest leaf. For the compressed format it
	// keeps enough slack in every leaf that the byte-budget redistribution
	// always succeeds (see scatterElems), and it is also the leaf size:
	// the automatic Θ(log n) term, 8·log2 of the capacity in units, never
	// exceeds 512 bytes, so only an explicit LeafBytes makes leaves larger.
	minLeafBytes int
	// unit is the size in bytes of what the array counts when it grows and
	// sizes leaves automatically (Θ(log n) units per leaf): a byte when
	// compressed, an 8-byte key (the PMA's cell) when not.
	unit int
	// slack is the most bytes one inserted key can add to a leaf.
	// Redistribution leaves at least this much free in every leaf, so a
	// point insert never overflows its leaf.
	slack int
	// reserve is the headroom the leaf's upper density bound keeps free
	// (see bounds).
	reserve int
	// headCost is what each extra leaf costs when a run is split: a head
	// replaces a compressed key's delta code.
	headCost int
	// slop is how far past its fair share a leaf may be filled when a run
	// is split.
	slop int
	// splice is the format's edit kernel. It seeks the leaf run
	// rd[:used] for the first key of the sorted run sub, then walks the
	// leaf's keys from there, at byte start, together with sub, and
	// inserts sub's keys into the leaf run, or removes them from it. The
	// edited run is rd[:start], then what splice writes to dst[start:w],
	// then the unchanged rest of the old run, rd[from:used]; changed
	// counts the keys of sub added or removed. Writes past the end of dst
	// are dropped, so a dst too short for the edited run (of
	// w + used - from bytes) only sizes it. Only the edit points are
	// encoded: an inserted key, and a kept key whose predecessor changed
	// (compressed: its delta code; a new head). The bytes between them
	// are copied as they are.
	splice func(dst, rd []byte, sub []uint64, insert bool) (start, w, from, used, changed int)
}

var (
	compressed = &format{
		// A leaf's 8-byte head is spread over twice the keys of a
		// 256-byte leaf.
		minLeafBytes: 512,
		unit:         1,
		slack:        codec.MaxGrowth,
		// Redistribution may re-spend up to MaxGrowth bytes per leaf on
		// chunk boundaries and must still leave MaxGrowth bytes of
		// insertion slack, so a redistributed leaf never immediately
		// re-triggers a rebalance. These 48 bytes are under 10% of a
		// 512-byte leaf, so the default 0.9 leaf bound stands; a 256-byte
		// leaf (an image written before the floor rose) is capped at 0.81.
		reserve:  2*codec.MaxGrowth + codec.MaxLen,
		headCost: codec.HeadBytes,
		// One maximal code past the fair share guarantees the greedy
		// split places the whole run whenever it fits.
		slop:   codec.MaxLen + codec.HeadBytes,
		splice: codeSplice,
	}
	uncompressed = &format{
		raw:          true,
		minLeafBytes: 64, // eight keys
		unit:         8,
		// One key; the reserve only bites on eight-key leaves, whose 0.9
		// leaf bound would otherwise allow a full leaf.
		slack:   8,
		reserve: 8,
		splice:  rawSplice,
	}
)

// minCapacity is the smallest byte capacity the array shrinks to: four
// leaves of the smallest size.
func (f *format) minCapacity() int { return 4 * f.minLeafBytes }

// bounds returns the default density bounds (in bytes) with the upper
// bounds capped so that any in-bounds region can always be redistributed
// into chunks of at most leafBytes - slack bytes — which both guarantees
// the greedy byte-budget scatter succeeds and leaves every redistributed
// leaf enough slack for the next point insert.
func (f *format) bounds(leafBytes int) pmatree.Bounds {
	b := pmatree.DefaultBounds()
	cap := float64(leafBytes-f.reserve) / float64(leafBytes)
	if b.UpperLeaf > cap {
		b.UpperLeaf = cap
	}
	if b.UpperRoot > b.UpperLeaf {
		b.UpperRoot = b.UpperLeaf
	}
	return b
}

// size returns the encoded size of a sorted, duplicate-free run as one
// leaf (0 for an empty run).
func (f *format) size(elems []uint64) int {
	if f.raw {
		return 8 * len(elems)
	}
	return codec.SizeOfRun(elems)
}

// fit returns the end e of the longest run elems[s:e] that encodes as one
// leaf of at most budget bytes, but at least one key, and how much smaller
// the size of elems[s:] is than that of elems[e:]: the run's bytes, less
// the head that elems[e] then takes in place of its code.
func (f *format) fit(elems []uint64, s, budget int) (e, taken int) {
	if f.raw {
		e = min(len(elems), s+max(1, budget/8))
		return e, 8 * (e - s)
	}
	size := codec.HeadBytes
	for e = s + 1; e < len(elems); e++ {
		n := codec.Len(elems[e] - elems[e-1])
		if size+n > budget {
			return e, size + n - codec.HeadBytes
		}
		size += n
	}
	return e, size
}

// encode writes a sorted, duplicate-free, non-empty run to dst and
// returns the bytes written.
func (f *format) encode(dst []byte, elems []uint64) int {
	if !f.raw {
		return codec.EncodeRun(dst, elems)
	}
	for i, v := range elems {
		binary.LittleEndian.PutUint64(dst[8*i:], v)
	}
	return 8 * len(elems)
}

// used derives a leaf slab's encoded bytes, which end at its zero
// terminator (codec.RunUsed), or uncompressed at its first zero word: the
// first word rawSearch stops at for the largest key, unless that key, which
// can only be last, is stored.
func (f *format) used(ld []byte) int {
	if !f.raw {
		return codec.RunUsed(ld)
	}
	return rawUsed(ld)
}

func rawUsed(ld []byte) int {
	off, last := rawSearch(ld, ^uint64(0))
	if last {
		off += 8
	}
	return off
}

// count returns the number of keys in a leaf of used bytes.
func (f *format) count(ld []byte, used int) int {
	if f.raw {
		return used / 8
	}
	return codec.CountRun(ld, used)
}

// decode appends the keys of a leaf of used bytes to dst.
func (f *format) decode(dst []uint64, src []byte, used int) []uint64 {
	if !f.raw {
		return codec.DecodeRun(dst, src, used)
	}
	for off := 0; off < used; off += 8 {
		dst = append(dst, binary.LittleEndian.Uint64(src[off:]))
	}
	return dst
}

// rawSearch binary-searches the keys of an uncompressed leaf (or of a
// part of it) for the first key >= x, returning its byte offset, or
// where the keys end, and whether it equals x. x must be nonzero.
func rawSearch(ld []byte, x uint64) (int, bool) {
	lo, hi := 0, len(ld)/8
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k := binary.LittleEndian.Uint64(ld[8*mid:]); k != 0 && k < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	off := 8 * lo
	return off, off < len(ld) && binary.LittleEndian.Uint64(ld[off:]) == x
}

// leafSeek returns the leaf's first key >= x, the offset where its bytes
// start and the key stored before it (0 for the first key); ok is false
// when the leaf holds no such key.
func (c *CPMA) leafSeek(leaf int, x uint64) (v uint64, off int, prev uint64, ok bool) {
	ld := c.leafData(leaf)
	if codec.Head(ld) == 0 {
		return 0, 0, 0, false
	}
	if c.f.raw {
		off, _ := rawSearch(ld, x)
		if off == len(ld) || binary.LittleEndian.Uint64(ld[off:]) == 0 {
			return 0, 0, 0, false
		}
		return binary.LittleEndian.Uint64(ld[off:]), off, 0, true
	}
	prev, v, start, end := codec.Seek(ld, x)
	return v, start, prev, start < end
}

// leafIterFrom applies f, in order until f returns false, to the leaf's
// keys stored from byte offset off on, where prev is the key stored before
// them (unused at offset 0 and in the uncompressed format). It reports
// whether the rest of the leaf was visited.
func (c *CPMA) leafIterFrom(leaf, off int, prev uint64, f func(uint64) bool) bool {
	ld := c.leafData(leaf)
	if c.f.raw {
		for ; off < len(ld); off += 8 {
			if k := binary.LittleEndian.Uint64(ld[off:]); k == 0 || !f(k) {
				return k == 0
			}
		}
		return true
	}
	if off == 0 {
		if prev = codec.Head(ld); prev == 0 {
			return true
		}
		if !f(prev) {
			return false
		}
		off = codec.HeadBytes
	}
	return codec.Walk(ld, off, prev, f)
}

// leafIter applies f to the leaf's keys in order until f returns false.
// It reports whether the full leaf was visited.
func (c *CPMA) leafIter(leaf int, f func(uint64) bool) bool {
	return c.leafIterFrom(leaf, 0, 0, f)
}

// leafHas reports whether x is in the leaf.
func (c *CPMA) leafHas(leaf int, x uint64) bool {
	v, _, _, ok := c.leafSeek(leaf, x)
	return ok && v == x
}

// codeSplice is the compressed format's splice. v is the leaf key at hand,
// stored in rd[r:r+n]; out is the last key the edited run holds so far (0
// before its head) and in the key before v: while they are equal, the old
// codes are the new ones.
func codeSplice(dst, rd []byte, sub []uint64, insert bool) (start, w, from, used, changed int) {
	var in, v uint64
	r, n := 0, 0
	if codec.Head(rd) != 0 {
		in, v, r, n = codec.Seek(rd, sub[0])
		used = codec.RunEnd(rd, n)
		n -= r
	}
	start, w, from = r, r, r
	out, i := in, 0
	for r < used {
		j := i
		for j < len(sub) && sub[j] < v {
			j++
		}
		hit := j < len(sub) && sub[j] == v
		if insert && j > i || hit && !insert || out != in {
			// An edit point: copy the unchanged codes before v, then
			// encode the new keys and v, unless v goes.
			w += putBytes(dst, w, rd[from:r])
			for ; insert && i < j; i++ {
				w += putKey(dst, w, out, sub[i])
				out = sub[i]
				changed++
			}
			if hit && !insert {
				changed++
			} else {
				w += putKey(dst, w, out, v)
				out = v
			}
			from = r + n
		} else {
			out = v
		}
		in, r, i = v, r+n, j
		if hit {
			i++
		}
		if r == used || i == len(sub) && out == in {
			break
		}
		var d uint64
		d, n = codec.Step(rd, r)
		v = in + d
	}
	if insert && i < len(sub) {
		// The rest of sub follows the leaf's last key.
		w += putBytes(dst, w, rd[from:used])
		for _, x := range sub[i:] {
			w += putKey(dst, w, out, x)
			out = x
		}
		from, changed = used, changed+len(sub)-i
	}
	return start, w, from, used, changed
}

// putKey writes k at dst[w:] if it fits, as the head if out is 0 and else
// as its delta from out, and returns the bytes it takes.
func putKey(dst []byte, w int, out, k uint64) int {
	if out == 0 {
		if w+codec.HeadBytes <= len(dst) {
			codec.PutHead(dst[w:], k)
		}
		return codec.HeadBytes
	}
	n := codec.Len(k - out)
	if w+n <= len(dst) {
		codec.Put(dst[w:], k-out)
	}
	return n
}

// putBytes copies b to dst[w:] as far as it fits and returns len(b).
func putBytes(dst []byte, w int, b []byte) int {
	if w < len(dst) {
		copy(dst[w:], b)
	}
	return len(b)
}

// rawSplice is the uncompressed format's splice. Its edit points are only
// the inserted and the removed keys, each found by a binary search of the
// rest of the slab, whose zero words past the keys sort last.
func rawSplice(dst, rd []byte, sub []uint64, insert bool) (start, w, from, used, changed int) {
	start, hit := rawSearch(rd, sub[0])
	w, from = start, start
	for r, i := start, 0; ; {
		if hit != insert {
			w += putBytes(dst, w, rd[from:r])
			if insert {
				w += putRaw(dst, w, sub[i])
			} else {
				r += 8
			}
			from = r
			changed++
		}
		if i++; i == len(sub) {
			break
		}
		off, h := rawSearch(rd[r:], sub[i])
		r, hit = r+off, h
	}
	return start, w, from, rawUsed(rd), changed
}

// putRaw writes k at dst[w:] if it fits and returns its 8 bytes.
func putRaw(dst []byte, w int, k uint64) int {
	if w+8 <= len(dst) {
		binary.LittleEndian.PutUint64(dst[w:], k)
	}
	return 8
}

// leafSum returns the sum of the leaf's keys. The free words of an
// uncompressed leaf are zero and add nothing.
func (c *CPMA) leafSum(leaf int) uint64 {
	if !c.f.raw {
		var s uint64
		c.leafIter(leaf, func(k uint64) bool { s += k; return true })
		return s
	}
	var s uint64
	ld := c.leafData(leaf)
	for off := 0; off < len(ld); off += 8 {
		s += binary.LittleEndian.Uint64(ld[off:])
	}
	return s
}
