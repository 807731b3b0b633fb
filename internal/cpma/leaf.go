package cpma

import (
	"encoding/binary"
	"math/bits"

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
	// always succeeds (see scatterElems), and it is also the leaf size:
	// the automatic Θ(log n) term, 8·log2 of the capacity in units, never
	// exceeds 512 bytes, so only an explicit LeafBytes makes leaves larger.
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

// used derives a leaf slab's encoded bytes, which end at its zero
// terminator (codec.RunUsed), or uncompressed at its first zero word: the
// first word rawSearch stops at for the largest key, unless that key, which
// can only be last, is stored.
func (f *format) used(ld []byte) int {
	if !f.raw {
		return codec.RunUsed(ld)
	}
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
// prefix of it) for the first key >= x, returning its byte offset, or
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

// The compressed-leaf kernels: every in-leaf walk is seek or walk (or the
// loops of leafSum and LeafMapPos), each with the decode in its own loop,
// so no walk pays a call per key. ld is a non-empty leaf slab unless
// stated; a walk ends at a zero code (the leaf's end) or the slab's end.
//
// The loops decode from 8-byte loads: a code ends at its first byte
// without a continue bit, which bits.TrailingZeros64 finds, and groups
// packs its 7-bit groups, so no loop branches on a code's length (that
// branch mispredicts on leaves mixing code lengths). seek also takes the
// second code of a load when it ends inside the same eight bytes, which
// halves the loads its carried offset waits on. A byte-at-a-time seek
// took ~1.3x as long on graph edge keys and ~1.2x on uniform 40-bit keys
// (2.1 GHz Xeon, go1.24). The slab's last seven bytes and codes of more
// than eight bytes (deltas of 2^56 or more) go through codec.Get. A load
// may reach past the leaf's end into its free bytes; those lie past the
// zero code ending the leaf and are masked off or never decoded.

// seek finds a leaf's first key >= x. It returns that key v, the key
// before it (prev, 0 for the head) and the bytes [start, end) holding v:
// [0, HeadBytes) for the head, else v's delta code. When every key is
// below x it returns start == end == used and prev == v == the last key.
func seek(ld []byte, x uint64) (prev, v uint64, start, end int) {
	v = codec.Head(ld)
	if v >= x {
		return 0, v, 0, codec.HeadBytes
	}
	for off := codec.HeadBytes; off < len(ld); {
		if off+8 <= len(ld) {
			w := binary.LittleEndian.Uint64(ld[off:])
			if stop := ^w & 0x8080808080808080; stop != 0 {
				t1 := uint(bits.TrailingZeros64(stop)) // bit 7 of the code's last byte
				d1, n1 := groups(w&lowBits(t1)), int(t1+1)>>3
				if v+d1 >= x {
					return v, v + d1, off, off + n1
				}
				if d1 == 0 {
					return v, v, off, off
				}
				v += d1
				// The next code, if it ends in this word and is not the
				// zero one; else keep zeroes it and v stays below x.
				rest := stop & (stop - 1)
				t2 := uint(bits.TrailingZeros64(rest)) // 64 if none
				var keep uint64
				n := n1
				if rest != 0 && w>>(t1+1)&0xff != 0 {
					keep, n = ^uint64(0), int(t2+1)>>3
				}
				d2 := groups(w>>(t1+1)&lowBits((t2-t1-1)&63)) & keep
				if v+d2 >= x {
					return v, v + d2, off + n1, off + n
				}
				v += d2
				off += n
				continue
			}
		}
		d, n := codec.Get(ld[off:])
		if v+d >= x {
			return v, v + d, off, off + n
		}
		if d == 0 {
			return v, v, off, off
		}
		v += d
		off += n
	}
	return v, v, len(ld), len(ld)
}

// walk applies f to the keys whose codes start at or after off, where v
// is the key before off, until f returns false. It reports whether it
// reached the end of the leaf. The leaf may be empty.
func walk(ld []byte, off int, v uint64, f func(uint64) bool) bool {
	for off < len(ld) {
		d, n := uint64(0), 0
		if off+8 <= len(ld) {
			d, n = wordCode(binary.LittleEndian.Uint64(ld[off:]))
		}
		if n == 0 {
			d, n = codec.Get(ld[off:])
		}
		if d == 0 {
			break
		}
		v += d
		off += n
		if !f(v) {
			return false
		}
	}
	return true
}

// wordCode decodes the code at the start of w, eight leaf bytes loaded
// little-endian. It returns n == 0 when all eight carry continue bits.
func wordCode(w uint64) (d uint64, n int) {
	stop := ^w & 0x8080808080808080
	if stop == 0 {
		return 0, 0
	}
	t := uint(bits.TrailingZeros64(stop))
	return groups(w & lowBits(t)), int(t+1) >> 3
}

// lowBits masks bits 0 through t.
func lowBits(t uint) uint64 { return ^uint64(0) >> (63 - t) }

// groups packs the 7-bit groups of up to eight code bytes, least
// significant first, into the value they encode.
func groups(w uint64) uint64 {
	w &= 0x7f7f7f7f7f7f7f7f
	w = w&0x007f007f007f007f | w>>1&0x3f803f803f803f80
	w = w&0x00003fff00003fff | w>>2&0x0fffc0000fffc000
	return w&0x000000000fffffff | w>>4&0x00fffffff0000000
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
	prev, v, start, end := seek(ld, x)
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
	return walk(ld, off, prev, f)
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

// noRoom is the size leafInsert reports for a leaf short of the room asked.
const noRoom = -1

// leafInsert inserts x into the leaf unless x is present or the leaf has
// fewer than room bytes free; room is at least the format's slack, so the
// shifted keys or codes always fit. It returns the leaf's used bytes
// afterwards and whether x was inserted, or noRoom. The search reads the
// leaf as it is, and only an actual insert takes the write gateway: the
// copy it may make holds the same bytes, so the offsets found still apply.
// A compressed leaf's end is found past the search, where the shift reads
// anyway, so no byte before it is read twice.
func (c *CPMA) leafInsert(leaf int, x uint64, room int) (int, bool) {
	ld := c.leafData(leaf)
	if c.f.raw {
		u := c.f.used(ld)
		off, found := rawSearch(ld[:u], x)
		switch {
		case found:
			return u, false
		case u+room > len(ld):
			return noRoom, false
		}
		ld = c.leafW(leaf)
		copy(ld[off+8:u+8], ld[off:u])
		binary.LittleEndian.PutUint64(ld[off:], x)
		return u + 8, true
	}
	if codec.Head(ld) == 0 {
		codec.PutHead(c.leafW(leaf), x)
		return codec.HeadBytes, true
	}
	prev, v, start, end := seek(ld, x)
	u := codec.RunEnd(ld, end)
	switch {
	case start < end && v == x:
		return u, false
	case u+room > len(ld):
		return noRoom, false
	}
	ld = c.leafW(leaf)
	var code [2 * codec.MaxLen]byte
	var w int
	switch {
	case start == end:
		// x is the new maximum: append one delta.
		return u + codec.Put(ld[u:], x-prev), true
	case start == 0:
		// New head; the old head becomes the first delta.
		w = codec.Put(code[:], v-x)
		codec.PutHead(ld, x)
		start, end = codec.HeadBytes, codec.HeadBytes
	default:
		// Split v's delta into (x-prev, v-x).
		w = codec.Put(code[:], x-prev)
		w += codec.Put(code[w:], v-x)
	}
	grow := w - (end - start)
	copy(ld[start+w:u+grow], ld[end:u])
	copy(ld[start:], code[:w])
	return u + grow, true
}

// leafRemove removes x from the leaf if present, returning the leaf's new
// used bytes, or -1 if x was absent. Removal never grows a leaf:
// compressed neighbors' deltas merge into one. Like leafInsert, it takes
// the write gateway only on a hit.
func (c *CPMA) leafRemove(leaf int, x uint64) int {
	ld := c.leafData(leaf)
	if codec.Head(ld) == 0 {
		return -1
	}
	if c.f.raw {
		u := c.f.used(ld)
		off, found := rawSearch(ld[:u], x)
		if !found {
			return -1
		}
		ld = c.leafW(leaf)
		copy(ld[off:], ld[off+8:u])
		clearBytes(ld[u-8 : u])
		return u - 8
	}
	prev, v, start, end := seek(ld, x)
	if start == end || v != x {
		return -1
	}
	u := codec.RunEnd(ld, end)
	ld = c.leafW(leaf)
	if end == u {
		// x is the last key: drop its bytes (the whole leaf if the head).
		clearBytes(ld[start:u])
		return start
	}
	// The next key takes x's place: it becomes the head, or its delta
	// grows to reach back from prev. One code, so one codec.Get.
	d, k := codec.Get(ld[end:])
	var code [codec.MaxLen]byte
	w := 0
	if start == 0 {
		codec.PutHead(ld, x+d)
		start = codec.HeadBytes
	} else {
		w = codec.Put(code[:], x+d-prev)
	}
	shrink := end + k - start - w
	copy(ld[start:], code[:w])
	copy(ld[start+w:u-shrink], ld[end+k:u])
	clearBytes(ld[u-shrink : u])
	return u - shrink
}

// leafSum returns the sum of the leaf's keys. The free words of an
// uncompressed leaf are zero and add nothing.
func (c *CPMA) leafSum(leaf int) uint64 {
	ld := c.leafData(leaf)
	var s uint64
	if c.f.raw {
		for off := 0; off < len(ld); off += 8 {
			s += binary.LittleEndian.Uint64(ld[off:])
		}
		return s
	}
	v := codec.Head(ld)
	s = v
	for off := codec.HeadBytes; off < len(ld) && v != 0; {
		d, n := uint64(0), 0
		if off+8 <= len(ld) {
			d, n = wordCode(binary.LittleEndian.Uint64(ld[off:]))
		}
		if n == 0 {
			d, n = codec.Get(ld[off:])
		}
		if d == 0 {
			break
		}
		v += d
		s += v
		off += n
	}
	return s
}
