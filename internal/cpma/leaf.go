package cpma

import (
	"encoding/binary"

	"repro/internal/codec"
	"repro/internal/parallel"
	"repro/internal/pmatree"
)

// This file holds the two leaf formats. Every leaf operation dispatches on
// the format once, so no loop over keys branches on it.
//
//   - Compressed: an 8-byte head, then one delta byte code per further key
//     (internal/codec). Every mutation is one forward walk over the codes
//     with an in-place byte shift at the edit point (§5, Figure 6).
//   - Uncompressed: every key as 8 little-endian bytes, the first of them
//     the head. Point operations binary-search the leaf.

// format holds the array-scale constants of a leaf format. Density is
// measured in bytes for both, so one implicit tree (pmatree) plans for
// either.
type format struct {
	raw bool // fixed 8-byte keys instead of delta codes
	// minLeafBytes is the smallest leaf. For the compressed format it
	// keeps enough slack in every leaf that the byte-budget redistribution
	// always succeeds (see scatterElems).
	minLeafBytes int
	// unit is the size in bytes of what the array counts when it grows and
	// sizes leaves automatically (Θ(log n) units per leaf): a byte when
	// compressed, an 8-byte key (the PMA's cell) when not.
	unit int
	// slack is the most bytes one point insert can add to a leaf. Insert
	// rebalances a leaf with less free space first, and redistribution
	// leaves at least this much free in every leaf.
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
}

var (
	compressed = &format{
		minLeafBytes: 256,
		unit:         1,
		slack:        codec.MaxGrowth,
		// Redistribution may re-spend up to MaxGrowth bytes per leaf on
		// chunk boundaries and must still leave MaxGrowth bytes of
		// insertion slack, so a redistributed leaf never immediately
		// re-triggers a rebalance.
		reserve:  2*codec.MaxGrowth + codec.MaxLen,
		headCost: codec.HeadBytes,
		// One maximal code past the fair share guarantees the greedy
		// split places the whole run whenever it fits.
		slop: codec.MaxLen + codec.HeadBytes,
	}
	uncompressed = &format{
		raw:          true,
		minLeafBytes: 64, // eight keys
		unit:         8,
		// One key; the reserve only bites on eight-key leaves, whose 0.9
		// leaf bound would otherwise allow a full leaf.
		slack:   8,
		reserve: 8,
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

// prefix returns what runBytes needs to size sub-runs of elems: for the
// compressed format, the prefix sums of the delta code sizes, P[i] = sum
// of codec.Len(elems[j]-elems[j-1]) for j in [1, i]. The uncompressed
// format needs none.
func (f *format) prefix(elems []uint64) []int {
	if f.raw {
		return nil
	}
	p := make([]int, len(elems))
	if len(elems) == 0 {
		return p
	}
	// Parallel by blocks: sizes are independent, only the sum is sequential.
	grain := 64 << 10
	if len(elems) <= grain || parallel.Serial() {
		for i := 1; i < len(elems); i++ {
			p[i] = p[i-1] + codec.Len(elems[i]-elems[i-1])
		}
		return p
	}
	parallel.ForRange(len(elems), grain, func(lo, hi int) {
		if lo == 0 {
			lo = 1
		}
		for i := lo; i < hi; i++ {
			p[i] = codec.Len(elems[i] - elems[i-1])
		}
	})
	for i := 1; i < len(elems); i++ {
		p[i] += p[i-1]
	}
	return p
}

// runBytes returns the encoded size of the run elems[s:e] as one leaf,
// given prefix(elems).
func (f *format) runBytes(prefix []int, s, e int) int {
	switch {
	case e <= s:
		return 0
	case f.raw:
		return 8 * (e - s)
	}
	return codec.HeadBytes + prefix[e-1] - prefix[s]
}

// runSize returns the encoded size of a sorted, duplicate-free run.
func (f *format) runSize(elems []uint64) int {
	if f.raw {
		return 8 * len(elems)
	}
	return codec.SizeOfRun(elems)
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

// rawSearch binary-searches an uncompressed leaf of used bytes for the
// first key >= x, returning its byte offset and whether it equals x.
func rawSearch(src []byte, used int, x uint64) (int, bool) {
	lo, hi := 0, used/8
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if binary.LittleEndian.Uint64(src[8*mid:]) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	off := 8 * lo
	return off, off < used && binary.LittleEndian.Uint64(src[off:]) == x
}

// leafInsert inserts x into a leaf with at least the format's slack bytes
// free, so the shifted keys or codes always fit. Returns false if x was
// already present.
func (c *CPMA) leafInsert(leaf int, x uint64) bool {
	// Unshare up front: duplicate hits leave an unshared-but-unchanged
	// leaf, which the COW contract allows (contents identical).
	ld := c.leafDataW(leaf)
	u := c.usedOf(leaf)
	e := int32(c.ecntOf(leaf))
	if c.f.raw {
		off, found := rawSearch(ld, u, x)
		if found {
			return false
		}
		copy(ld[off+8:u+8], ld[off:u])
		binary.LittleEndian.PutUint64(ld[off:], x)
		c.setLeafMeta(leaf, int32(u+8), e+1)
		return true
	}
	if u == 0 {
		codec.PutHead(ld, x)
		c.setLeafMeta(leaf, codec.HeadBytes, 1)
		return true
	}
	head := codec.Head(ld)
	if x == head {
		return false
	}
	if x < head {
		// New head; the old head becomes the first delta.
		var code [codec.MaxLen]byte
		k := codec.Put(code[:], head-x)
		copy(ld[codec.HeadBytes+k:u+k], ld[codec.HeadBytes:u])
		copy(ld[codec.HeadBytes:], code[:k])
		codec.PutHead(ld, x)
		c.setLeafMeta(leaf, int32(u+k), e+1)
		return true
	}
	prev := head
	off := codec.HeadBytes
	for off < u {
		d, k := codec.Get(ld[off:])
		cur := prev + d
		if cur == x {
			return false
		}
		if cur > x {
			// Split delta d into (x-prev, cur-x).
			var code [2 * codec.MaxLen]byte
			w := codec.Put(code[:], x-prev)
			w += codec.Put(code[w:], cur-x)
			grow := w - k
			copy(ld[off+w:u+grow], ld[off+k:u])
			copy(ld[off:], code[:w])
			c.setLeafMeta(leaf, int32(u+grow), e+1)
			return true
		}
		prev = cur
		off += k
	}
	// x is the new maximum: append one delta.
	w := codec.Put(ld[u:], x-prev)
	c.setLeafMeta(leaf, int32(u+w), e+1)
	return true
}

// leafRemove removes x from the leaf if present. Removal never grows a
// leaf: compressed neighbors' deltas merge into one.
func (c *CPMA) leafRemove(leaf int, x uint64) bool {
	u := c.usedOf(leaf)
	if u == 0 {
		return false
	}
	// Unshare before the walk (misses leave an unchanged unshared leaf;
	// see leafInsert).
	ld := c.leafDataW(leaf)
	e := int32(c.ecntOf(leaf))
	if c.f.raw {
		off, found := rawSearch(ld, u, x)
		if !found {
			return false
		}
		copy(ld[off:], ld[off+8:u])
		clearBytes(ld[u-8 : u])
		c.setLeafMeta(leaf, int32(u-8), e-1)
		return true
	}
	head := codec.Head(ld)
	if x < head {
		return false
	}
	if x == head {
		if u == codec.HeadBytes {
			// Last element gone; leaf becomes empty.
			clearBytes(ld[:u])
			c.setLeafMeta(leaf, 0, 0)
			return true
		}
		d, k := codec.Get(ld[codec.HeadBytes:])
		copy(ld[codec.HeadBytes:u-k], ld[codec.HeadBytes+k:u])
		clearBytes(ld[u-k : u])
		codec.PutHead(ld, head+d)
		c.setLeafMeta(leaf, int32(u-k), e-1)
		return true
	}
	prev := head
	off := codec.HeadBytes
	for off < u {
		d, k := codec.Get(ld[off:])
		cur := prev + d
		switch {
		case cur < x:
			prev = cur
			off += k
		case cur > x:
			return false
		default: // cur == x
			if off+k == u {
				// Removing the maximum: drop the trailing delta.
				clearBytes(ld[off:u])
				c.setLeafMeta(leaf, int32(off), e-1)
				return true
			}
			d2, k2 := codec.Get(ld[off+k:])
			var code [codec.MaxLen]byte
			w := codec.Put(code[:], d+d2) // next element relative to prev
			shrink := k + k2 - w
			copy(ld[off:], code[:w])
			copy(ld[off+w:u-shrink], ld[off+k+k2:u])
			clearBytes(ld[u-shrink : u])
			c.setLeafMeta(leaf, int32(u-shrink), e-1)
			return true
		}
	}
	return false
}

// leafHas reports whether x is in the leaf.
func (c *CPMA) leafHas(leaf int, x uint64) bool {
	ld := c.leafData(leaf)
	u := c.usedOf(leaf)
	if c.f.raw {
		_, found := rawSearch(ld, u, x)
		return found
	}
	if u == 0 {
		return false
	}
	v := codec.Head(ld)
	if v == x {
		return true
	}
	if v > x {
		return false
	}
	for off := codec.HeadBytes; off < u; {
		d, k := codec.Get(ld[off:])
		v += d
		if v == x {
			return true
		}
		if v > x {
			return false
		}
		off += k
	}
	return false
}

// leafIter applies f to the leaf's keys in order until f returns false.
// It reports whether the full leaf was visited. The byte-code decode is
// inlined by hand: Go does not inline functions containing loops, and this
// is the range-map hot path.
func (c *CPMA) leafIter(leaf int, f func(uint64) bool) bool {
	ld := c.leafData(leaf)
	u := c.usedOf(leaf)
	if c.f.raw {
		for off := 0; off < u; off += 8 {
			if !f(binary.LittleEndian.Uint64(ld[off:])) {
				return false
			}
		}
		return true
	}
	if u == 0 {
		return true
	}
	v := codec.Head(ld)
	if !f(v) {
		return false
	}
	for off := codec.HeadBytes; off < u; {
		b := ld[off]
		off++
		d := uint64(b & 0x7f)
		for shift := uint(7); b >= 0x80; shift += 7 {
			b = ld[off]
			off++
			d |= uint64(b&0x7f) << shift
		}
		v += d
		if !f(v) {
			return false
		}
	}
	return true
}

// leafSum returns the sum of the leaf's keys (inlined decode; see leafIter).
func (c *CPMA) leafSum(leaf int) uint64 {
	ld := c.leafData(leaf)
	u := c.usedOf(leaf)
	if c.f.raw {
		var s uint64
		for off := 0; off < u; off += 8 {
			s += binary.LittleEndian.Uint64(ld[off:])
		}
		return s
	}
	if u == 0 {
		return 0
	}
	v := codec.Head(ld)
	s := v
	for off := codec.HeadBytes; off < u; {
		b := ld[off]
		off++
		d := uint64(b & 0x7f)
		for shift := uint(7); b >= 0x80; shift += 7 {
			b = ld[off]
			off++
			d |= uint64(b&0x7f) << shift
		}
		v += d
		s += v
	}
	return s
}
