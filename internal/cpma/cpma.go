// Package cpma implements the Compressed Packed Memory Array (paper §5),
// the paper's primary contribution: a PMA whose leaves store an uncompressed
// 8-byte head followed by delta-encoded byte codes, with density bounds
// measured in bytes. It supports the same point operations, range maps, and
// three-phase parallel batch updates as the uncompressed PMA (§4) — the
// batch algorithm is identical, only the leaf representation changes.
//
// Keys are uint64; key 0 is reserved (an all-zero head marks an empty leaf,
// and no delta byte code contains a zero byte).
package cpma

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/bitutil"
	"repro/internal/codec"
	"repro/internal/parallel"
	"repro/internal/pmatree"
)

// Options configures a CPMA; semantics match pma.Options.
type Options struct {
	// GrowthFactor is the growing factor applied on root violations
	// (Appendix C studies 1.1–2.0; the paper's benchmarks use 1.2).
	GrowthFactor float64
	// LeafBytes fixes the leaf size in bytes (power of two, >= 128).
	// 0 selects Θ(log n) scaled automatically.
	LeafBytes int
	// PointThreshold is the batch size below which batch ops degrade to
	// point updates.
	PointThreshold int
}

func (o Options) withDefaults() Options {
	if o.GrowthFactor <= 1 {
		o.GrowthFactor = 1.2
	}
	if o.PointThreshold <= 0 {
		o.PointThreshold = 100
	}
	return o
}

// rebuildFraction r: batches with k >= r*n rebuild the whole array.
const rebuildFraction = 0.1

const (
	// minLeafBytes keeps enough slack in every leaf that the byte-budget
	// redistribution always succeeds (see scatterElems).
	minLeafBytes = 256
	maxLeafBytes = 2048
	// minCapacity is the smallest byte capacity the CPMA shrinks to.
	minCapacity = 4 * minLeafBytes
	// leafSlack is the headroom the effective leaf density bound reserves:
	// redistribution may re-spend up to MaxGrowth bytes per leaf on chunk
	// boundaries and must still leave MaxGrowth bytes of insertion slack, so
	// a redistributed leaf never immediately re-triggers a rebalance.
	leafSlack = 2*codec.MaxGrowth + codec.MaxLen
)

// CPMA is a compressed batch-parallel Packed Memory Array storing a set of
// nonzero uint64 keys. Single writer; batch operations parallelize
// internally.
type CPMA struct {
	lf         []atomic.Pointer[leafChunk] // chunked per-leaf slab + metadata spine (see cow.go)
	ownChunk   *parallel.Bitset            // spine chunks private to this CPMA
	claimChunk *parallel.Bitset            // unshare claim tickets (see unshareChunk)
	overflow   [][]uint64
	tree       *pmatree.Tree
	leafLog2   uint
	leaves     int
	n          int
	opt        Options

	// Copy-on-write bookkeeping (cow.go). dirty/dirtyAll accumulate the
	// leaves mutated since the last Clone; pubAll/pubDirty hold the window
	// a Clone captured from its parent (DirtySince). cowBytes counts
	// unshare copies since the last Clone (atomic: parallel batch phases
	// unshare concurrently); cloneBytes is the materialization cost of
	// this handle; clones counts Clone calls taken of this CPMA.
	dirty      *parallel.Bitset
	dirtyAll   bool
	pubAll     bool
	pubDirty   *parallel.Bitset
	cowBytes   uint64
	cloneBytes uint64
	clones     uint64
}

// New returns an empty CPMA; opts may be nil for defaults.
func New(opts *Options) *CPMA {
	var o Options
	if opts != nil {
		o = *opts
	}
	c := &CPMA{opt: o.withDefaults()}
	c.rebuildFrom(nil)
	return c
}

// Clone returns a logically deep copy that may be read and mutated
// independently of c: the original may keep mutating (or be mutated) while
// the clone serves reads, and the clone is itself a fully functional CPMA.
// Physically the copy is leaf-granular copy-on-write: only the chunk
// pointer table (8 bytes per 64 leaves) is copied eagerly; spine chunks
// and every leaf's byte slab are shared and unshared lazily on first
// write by either side, so a clone costs O(dirty leaves) — CloneCost
// reports the exact bytes — instead of O(n). The implicit pmatree is
// immutable and shared. Clone also hands the parent's accumulated dirty
// window to the clone (see DirtySince) and starts a fresh window on both
// sides. Must be called at rest and never concurrently with mutations of
// c; see the COW contract in cow.go.
func (c *CPMA) Clone() *CPMA {
	d := *c
	d.lf = make([]atomic.Pointer[leafChunk], len(c.lf))
	for i := range c.lf {
		d.lf[i].Store(c.lf[i].Load())
	}
	// Every chunk (and therefore every slab) is now shared: both sides
	// restart with empty ownership, and stale owned flags inside the
	// chunks are void until a chunk is re-unshared (which clears them).
	nch := len(c.lf)
	c.ownChunk, c.claimChunk = parallel.NewBitset(nch), parallel.NewBitset(nch)
	d.ownChunk, d.claimChunk = parallel.NewBitset(nch), parallel.NewBitset(nch)
	if c.overflow != nil {
		// At rest overflow entries are nil (CheckInvariants enforces it), so
		// this copies only the spine; entries are cloned defensively in case
		// a caller clones mid-batch.
		d.overflow = make([][]uint64, len(c.overflow))
		for i, ov := range c.overflow {
			if ov != nil {
				d.overflow[i] = append([]uint64(nil), ov...)
			}
		}
	}
	// Window handoff: the clone carries what changed since the parent's
	// previous Clone; the parent starts accumulating a fresh window.
	d.pubAll, d.pubDirty = c.dirtyAll, c.dirty
	c.resetDirty()
	d.resetDirty()
	// Eager cost: the pointer table plus the four fresh ownership bitsets
	// (8 bytes per chunk pointer, 2 bits per chunk per side).
	spineOverhead := uint64(nch)*8 + 4*uint64(8*((nch+63)/64))
	d.cloneBytes = atomic.SwapUint64(&c.cowBytes, 0) + spineOverhead
	d.cowBytes = 0
	d.clones = 0
	atomic.AddUint64(&c.clones, 1)
	return &d
}

// FromSorted builds a CPMA from sorted, duplicate-free, nonzero keys.
func FromSorted(keys []uint64, opts *Options) *CPMA {
	c := New(opts)
	if len(keys) > 0 {
		if keys[0] == 0 {
			panic("cpma: key 0 is reserved")
		}
		c.rebuildFrom(keys)
	}
	return c
}

// Len returns the number of keys stored.
func (c *CPMA) Len() int { return c.n }

// Capacity returns the total byte capacity.
func (c *CPMA) Capacity() int { return c.leaves << c.leafLog2 }

// LeafBytes returns the byte capacity of one leaf.
func (c *CPMA) LeafBytes() int { return 1 << c.leafLog2 }

// Leaves returns the number of leaves.
func (c *CPMA) Leaves() int { return c.leaves }

// UsedBytes returns the total encoded payload bytes across leaves.
func (c *CPMA) UsedBytes() int {
	total := 0
	for i := 0; i < c.leaves; i++ {
		total += c.usedOf(i)
	}
	return total
}

// SizeBytes returns the logical memory footprint: data capacity plus
// per-leaf used/ecnt metadata (the quantity the paper's get_size reports,
// and the baseline a non-COW full copy of this CPMA would cost).
func (c *CPMA) SizeBytes() uint64 {
	return uint64(c.Capacity() + 8*c.leaves)
}

// Read-side accessors; mutations must go through leafDataW/setLeafMeta
// (cow.go) instead.
func (c *CPMA) leafData(leaf int) []byte { return c.leafSt(leaf).data }
func (c *CPMA) head(leaf int) uint64     { return codec.Head(c.leafSt(leaf).data) }
func (c *CPMA) usedOf(leaf int) int      { return int(c.leafSt(leaf).used) }
func (c *CPMA) ecntOf(leaf int) int      { return int(c.leafSt(leaf).ecnt) }

// effectiveBounds returns the default density bounds (in bytes) with the
// upper bounds capped so that any in-bounds region can always be
// redistributed into chunks of at most leafBytes - MaxGrowth bytes — which
// both guarantees the greedy byte-budget scatter succeeds and leaves every
// redistributed leaf enough slack for the next point insert.
func effectiveBounds(leafBytes int) pmatree.Bounds {
	b := pmatree.DefaultBounds()
	cap := float64(leafBytes-leafSlack) / float64(leafBytes)
	if b.UpperLeaf > cap {
		b.UpperLeaf = cap
	}
	if b.UpperRoot > b.UpperLeaf {
		b.UpperRoot = b.UpperLeaf
	}
	return b
}

// autoLeafBytes picks a power-of-two leaf size of Θ(log n) scaled bytes.
func autoLeafBytes(totalBytes int) int {
	lb := int(bitutil.CeilPow2(uint64(8 * bitutil.Log2Ceil(uint64(totalBytes)+1))))
	if lb < minLeafBytes {
		lb = minLeafBytes
	}
	if lb > maxLeafBytes {
		lb = maxLeafBytes
	}
	return lb
}

// deltaPrefix builds the prefix sums of per-element delta code sizes:
// P[i] = sum of codec.Len(elems[j]-elems[j-1]) for j in [1, i]. A run
// [s, e) then encodes to 8 + P[e-1] - P[s] bytes.
func deltaPrefix(elems []uint64) []int {
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

// capacityFor sizes the array for the given elements by applying the
// growing factor until the encoded payload fits under the root bound.
func (c *CPMA) capacityFor(elems []uint64, prefix []int) int {
	payload := 0
	if len(elems) > 0 {
		payload = codec.HeadBytes + prefix[len(elems)-1]
	}
	cap := minCapacity
	for {
		lb := c.leafBytesFor(cap)
		leaves := bitutil.Max(1, cap/lb)
		bounds := effectiveBounds(lb)
		// Every extra leaf re-spends a head; budget for the worst case.
		need := payload + (leaves-1)*codec.HeadBytes
		if float64(need) <= bounds.UpperRoot*float64(leaves*lb) {
			return leaves * lb
		}
		next := int(float64(cap) * c.opt.GrowthFactor)
		if next <= cap {
			next = cap + 1
		}
		cap = next
	}
}

func (c *CPMA) leafBytesFor(capacity int) int {
	lb := c.opt.LeafBytes
	if lb <= 0 {
		lb = autoLeafBytes(capacity)
	}
	lb = int(bitutil.CeilPow2(uint64(lb)))
	if lb < minLeafBytes {
		lb = minLeafBytes
	}
	return lb
}

// rebuildFrom replaces the structure with a fresh array holding the sorted,
// duplicate-free keys.
func (c *CPMA) rebuildFrom(all []uint64) {
	prefix := deltaPrefix(all)
	capacity := c.capacityFor(all, prefix)
	lb := c.leafBytesFor(capacity)
	leaves := bitutil.Max(1, capacity/lb)
	c.leafLog2 = uint(bitutil.Log2Ceil(uint64(lb)))
	c.leaves = leaves
	c.lf = newLeafSpine(leaves, lb)
	c.ownAllChunks()
	c.overflow = nil
	c.tree = pmatree.New(leaves, lb, effectiveBounds(lb))
	c.n = len(all)
	// A rebuild replaces every leaf: the whole geometry is dirty relative
	// to any prior Clone, and no prior slab is shared anymore.
	c.dirty = parallel.NewBitset(leaves)
	c.dirtyAll = true
	if err := c.scatterElems(all, prefix, 0, leaves); err != nil {
		// capacityFor guarantees fit; reaching here is a bug.
		panic(err)
	}
}

// scatterElems splits a sorted run across leaves [loLeaf, hiLeaf) so every
// leaf stays within its byte capacity, encoding each chunk in parallel. The
// split walks the leaves greedily, giving each one min(capacity, fair share
// + one max code) bytes — which both balances the leaves and guarantees
// that the whole run is placed whenever it fits.
func (c *CPMA) scatterElems(elems []uint64, prefix []int, loLeaf, hiLeaf int) error {
	nl := hiLeaf - loLeaf
	if len(elems) == 0 {
		forLeaves(nl, func(i int) { c.clearLeaf(loLeaf + i) })
		return nil
	}
	leafCap := c.LeafBytes()
	starts := make([]int, nl+1)
	start := 0
	n := len(elems)
	for t := 0; t < nl; t++ {
		if start >= n {
			starts[t+1] = n
			continue
		}
		remLeaves := nl - t
		remBytes := remLeaves*codec.HeadBytes + prefix[n-1] - prefix[start]
		fair := bitutil.CeilDiv(remBytes, remLeaves)
		budget := fair + codec.MaxLen + codec.HeadBytes
		// Always keep MaxGrowth bytes free so the next point insert into the
		// leaf cannot exceed its capacity.
		if max := leafCap - codec.MaxGrowth; budget > max {
			budget = max
		}
		// Largest e with 8 + P[e-1] - P[start] <= budget; e >= start+1.
		k := sort.Search(n-(start+1), func(k int) bool {
			return codec.HeadBytes+prefix[start+1+k]-prefix[start] > budget
		})
		starts[t+1] = start + 1 + k
		start = starts[t+1]
	}
	if start < n {
		return fmt.Errorf("cpma: scatter overflow (%d of %d elements placed over %d leaves)", start, n, nl)
	}
	forLeaves(nl, func(i int) {
		leaf := loLeaf + i
		s, e := starts[i], starts[i+1]
		if s == e {
			c.clearLeaf(leaf)
			return
		}
		ld := c.leafDataW(leaf)
		w := codec.EncodeRun(ld, elems[s:e])
		clearBytes(ld[w:])
		c.setLeafMeta(leaf, int32(w), int32(e-s))
		if c.overflow != nil {
			c.overflow[leaf] = nil
		}
	})
	return nil
}

func (c *CPMA) clearLeaf(leaf int) {
	hasOverflow := c.overflow != nil && c.overflow[leaf] != nil
	if c.usedOf(leaf) == 0 && !hasOverflow {
		// Already empty: nothing to clear, and redistribution over empty
		// leaves must not dirty (or unshare) them.
		return
	}
	ld := c.leafDataW(leaf)
	// used transiently exceeds the slab length on overflow leaves; the slab
	// itself never holds more than its capacity of stale bytes.
	u := c.usedOf(leaf)
	if u > len(ld) {
		u = len(ld)
	}
	clearBytes(ld[:u])
	c.setLeafMeta(leaf, 0, 0)
	if hasOverflow {
		c.overflow[leaf] = nil
	}
}

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

func forLeaves(n int, f func(i int)) {
	parallel.For(n, 32, f)
}

// gatherElems decodes leaves [loLeaf, hiLeaf) — draining overflow buffers —
// into a sorted slice, in parallel via element-count prefix sums.
func (c *CPMA) gatherElems(loLeaf, hiLeaf int) []uint64 {
	nl := hiLeaf - loLeaf
	offsets := make([]int, nl+1)
	for i := 0; i < nl; i++ {
		offsets[i+1] = offsets[i] + c.ecntOf(loLeaf+i)
	}
	buf := make([]uint64, offsets[nl])
	forLeaves(nl, func(i int) {
		leaf := loLeaf + i
		lo, hi := offsets[i], offsets[i+1]
		if c.overflow != nil && c.overflow[leaf] != nil {
			copy(buf[lo:hi], c.overflow[leaf])
			return
		}
		// Append in place: capacity is exactly the leaf's element count, so
		// DecodeRun fills buf[lo:hi] without reallocating.
		codec.DecodeRun(buf[lo:lo:hi], c.leafData(leaf), c.usedOf(leaf))
	})
	return buf
}

// redistribute evens out a planned region by byte budget.
func (c *CPMA) redistribute(r pmatree.Region) error {
	elems := c.gatherElems(r.LoLeaf, r.HiLeaf)
	return c.scatterElems(elems, deltaPrefix(elems), r.LoLeaf, r.HiLeaf)
}

// applyPlan executes a rebalance plan; a failed regional scatter (possible
// only in pathological byte-skew cases) escalates to a full rebuild.
func (c *CPMA) applyPlan(plan pmatree.Plan) {
	if plan.Grow || plan.Shrink {
		c.rebuildFrom(c.gatherElems(0, c.leaves))
		return
	}
	failed := false
	parallel.For(len(plan.Redistribute), 1, func(i int) {
		if err := c.redistribute(plan.Redistribute[i]); err != nil {
			failed = true
		}
	})
	if failed {
		c.rebuildFrom(c.gatherElems(0, c.leaves))
	}
}

// CheckInvariants verifies structural invariants; tests call it after every
// mutation batch.
func (c *CPMA) CheckInvariants() error {
	if chunksFor(c.leaves) != len(c.lf) {
		return fmt.Errorf("cpma: geometry mismatch (%d leaves, %d spine chunks)", c.leaves, len(c.lf))
	}
	if c.dirty == nil || c.dirty.Len() != c.leaves {
		return fmt.Errorf("cpma: dirty bitmap missized for %d leaves", c.leaves)
	}
	total := 0
	var prev uint64
	for leaf := 0; leaf < c.leaves; leaf++ {
		u := c.usedOf(leaf)
		if u < 0 || u > c.LeafBytes() {
			return fmt.Errorf("cpma: leaf %d used %d out of range", leaf, u)
		}
		if c.overflow != nil && c.overflow[leaf] != nil {
			return fmt.Errorf("cpma: leaf %d has undrained overflow", leaf)
		}
		ld := c.leafData(leaf)
		if len(ld) != c.LeafBytes() {
			return fmt.Errorf("cpma: leaf %d slab is %d bytes, want %d", leaf, len(ld), c.LeafBytes())
		}
		if u == 0 {
			if c.ecntOf(leaf) != 0 {
				return fmt.Errorf("cpma: empty leaf %d has ecnt %d", leaf, c.ecntOf(leaf))
			}
			for i, b := range ld {
				if b != 0 {
					return fmt.Errorf("cpma: empty leaf %d has nonzero byte at %d", leaf, i)
				}
			}
			continue
		}
		if u < codec.HeadBytes {
			return fmt.Errorf("cpma: leaf %d used %d < head size", leaf, u)
		}
		elems := codec.DecodeRun(nil, ld, u)
		if len(elems) != c.ecntOf(leaf) {
			return fmt.Errorf("cpma: leaf %d decodes to %d elements, ecnt says %d", leaf, len(elems), c.ecntOf(leaf))
		}
		if got := codec.SizeOfRun(elems); got != u {
			return fmt.Errorf("cpma: leaf %d used %d but re-encode is %d", leaf, u, got)
		}
		for i, v := range elems {
			if v == 0 {
				return fmt.Errorf("cpma: zero key in leaf %d", leaf)
			}
			if v <= prev {
				return fmt.Errorf("cpma: order violation in leaf %d pos %d (%d <= %d)", leaf, i, v, prev)
			}
			prev = v
		}
		for i := u; i < c.LeafBytes(); i++ {
			if ld[i] != 0 {
				return fmt.Errorf("cpma: leaf %d byte %d nonzero past used", leaf, i)
			}
		}
		total += len(elems)
	}
	if total != c.n {
		return fmt.Errorf("cpma: n=%d but leaves hold %d", c.n, total)
	}
	return nil
}
