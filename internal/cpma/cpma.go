// Package cpma implements the batch-parallel Packed Memory Array engine of
// paper §3–5 once, over two leaf formats:
//
//   - compressed (New, FromSorted): the Compressed Packed Memory Array of
//     §5, the paper's primary contribution. A leaf stores an uncompressed
//     8-byte head followed by delta-encoded byte codes, and density bounds
//     are measured in bytes.
//   - uncompressed (NewUncompressed, UncompressedFromSorted): the PMA of
//     §3–4. A leaf stores every key as 8 little-endian bytes, Θ(log n) keys
//     per leaf.
//
// Both formats start a non-empty leaf with its smallest key as an 8-byte
// little-endian head and live in the same byte slabs, so the leaf search,
// the range maps and the three-phase parallel batch updates are one engine
// (§5: "the batch-update algorithm in the CPMA is identical to the
// batch-update algorithm for PMAs described in Section 4"). Only the
// per-leaf operations in leaf.go and a few geometry constants differ by
// format. Copy-on-write clones work on both; serialization
// (encoding.go) is defined for compressed sets only.
//
// There is one update algorithm. InsertBatch and RemoveBatch run every
// batch, however small, through the batch algorithm of §4, whose per-leaf
// step splices a run of one or two keys in place: that splice is the
// point update of §3, with the single pass of Figure 6 as its place step.
// A batch into an empty set, or of at least n/10 keys, rebuilds the array
// instead. Insert and Remove are one-key batches, so an Insert into a set
// of fewer than 10 keys rebuilds it too. The paper hands small batches to
// point updates; here a small batch allocates nothing, and
// BenchmarkSmallBatch times k one-key batches against one k-key batch.
//
// Keys are uint64; key 0 is reserved (an all-zero head marks an empty leaf,
// and no delta byte code contains a zero byte). A leaf is only its bytes:
// its used size and key count are derived from its zero terminator.
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

// Options configures a CPMA of either format. The zero value selects the
// defaults of the paper's evaluation (growing factor 1.2); a batch of at
// least n/10 keys always rebuilds the array.
type Options struct {
	// GrowthFactor is the growing factor applied on root violations
	// (Appendix C studies 1.1–2.0; the paper's benchmarks use 1.2).
	GrowthFactor float64
	// LeafBytes fixes the leaf size in bytes. It is rounded up to a power
	// of two and clamped to [512, 1 MiB] for the compressed format and to
	// [64, 1 MiB] for the uncompressed one. 0 selects Θ(log n) scaled
	// automatically on each rebuild: 8·log2 of the capacity in the
	// format's units, which never exceeds 512 bytes, so compressed leaves
	// are 512 bytes unless LeafBytes asks for more.
	LeafBytes int
}

func (o Options) withDefaults() Options {
	if o.GrowthFactor <= 1 {
		o.GrowthFactor = 1.2
	}
	return o
}

// rebuildFraction r: batches with k >= r*n rebuild the whole array with a
// two-finger merge (paper §4: k >= n/10).
const rebuildFraction = 0.1

// maxLeafLog2 bounds every leaf, automatic or set by LeafBytes. The
// decoder enforces the same bound, so every image WriteTo produces can be
// read back.
const maxLeafLog2 = 20

// CPMA is a batch-parallel Packed Memory Array storing a set of nonzero
// uint64 keys in one of the two leaf formats. Single writer; batch
// operations parallelize internally (batch-parallel, not concurrent —
// paper §2).
type CPMA struct {
	lf       []atomic.Pointer[leafChunk] // chunked spine of per-leaf slabs (see cow.go)
	tree     *pmatree.Tree
	leafLog2 uint
	leaves   int
	n        int
	opt      Options
	f        *format

	// Mid-batch only (batchRecords): the encoded size of each leaf the
	// batch wrote (0: none), and the merged runs that outgrew their leaf.
	// dirty is the writer's scratch for the list of leaves a batch wrote,
	// and key for the one-key batch of a point update.
	sizes    []int32
	overflow [][]uint64
	dirty    []int
	key      [1]uint64

	// Copy-on-write generations (cow.go). gen stamps this CPMA's writes;
	// geomGen is the generation of its last rebuild or load. spineBytes and
	// slabBytes count the unshare copies since the last Clone (atomic:
	// parallel batch phases unshare concurrently); cost is what producing
	// this handle copied.
	gen        uint64
	geomGen    uint64
	spineBytes uint64
	slabBytes  uint64
	cost       CloneBytes

	// Rebalances run (applyPlan): redistributions of regions wider than
	// one leaf, and growths. A Clone inherits its parent's counts.
	multiLeaf int
	grows     int
}

// New returns an empty compressed CPMA; opts may be nil for defaults.
func New(opts *Options) *CPMA { return newFormat(compressed, opts) }

// NewUncompressed returns an empty CPMA in the uncompressed format: the
// PMA of paper §3–4. opts may be nil for defaults.
func NewUncompressed(opts *Options) *CPMA { return newFormat(uncompressed, opts) }

func newFormat(f *format, opts *Options) *CPMA {
	var o Options
	if opts != nil {
		o = *opts
	}
	c := &CPMA{opt: o.withDefaults(), f: f, gen: newGen()}
	c.rebuildFrom(nil)
	return c
}

// Clone returns a logically deep copy that may be read and mutated
// independently of c: the original may keep mutating (or be mutated) while
// the clone serves reads, and the clone is itself a fully functional CPMA.
// Physically the copy is leaf-granular copy-on-write: only the chunk
// pointer table (8 bytes per 64 leaves) is copied eagerly; spine chunks
// and every leaf's byte slab are shared and unshared lazily on first
// write by either side, so a clone costs O(written leaves) — CloneCost
// reports the exact bytes — instead of O(n). The implicit pmatree is
// immutable and shared. Must be called at rest and never concurrently
// with mutations of c; see the COW contract in cow.go.
func (c *CPMA) Clone() *CPMA {
	d := *c
	d.lf = make([]atomic.Pointer[leafChunk], len(c.lf))
	for i := range c.lf {
		d.lf[i].Store(c.lf[i].Load())
	}
	// At rest every batch record is zero (CheckInvariants enforces it); the
	// clone allocates its own records and scratch at its first batch.
	d.sizes, d.overflow, d.dirty = nil, nil, nil
	// Fresh generations share every chunk and slab on both sides. The
	// clone's is the older one, so the parent's later writes are newer than
	// anything the handle holds (ChangedSince).
	d.gen = newGen()
	c.gen = newGen()
	d.cost = CloneBytes{
		Table: uint64(len(c.lf)) * 8,
		Spine: atomic.SwapUint64(&c.spineBytes, 0),
		Slab:  atomic.SwapUint64(&c.slabBytes, 0),
	}
	d.spineBytes, d.slabBytes = 0, 0
	return &d
}

// FromSorted builds a compressed CPMA from sorted, duplicate-free, nonzero
// keys. The slice is not retained.
func FromSorted(keys []uint64, opts *Options) *CPMA { return New(opts).load(keys) }

// UncompressedFromSorted builds an uncompressed CPMA from sorted,
// duplicate-free, nonzero keys. The slice is not retained.
func UncompressedFromSorted(keys []uint64, opts *Options) *CPMA {
	return NewUncompressed(opts).load(keys)
}

func (c *CPMA) load(keys []uint64) *CPMA {
	if len(keys) > 0 {
		if keys[0] == 0 {
			panic("cpma: key 0 is reserved")
		}
		c.rebuildFrom(keys)
	}
	return c
}

// Rebalances reports how many redistributions of more than one leaf and
// how many growths this CPMA has run since it was built or loaded,
// counting those of the CPMA it was cloned from. Tests use it to check
// that a workload exercises both.
func (c *CPMA) Rebalances() (multiLeaf, grows int) { return c.multiLeaf, c.grows }

// Len returns the number of keys stored.
func (c *CPMA) Len() int { return c.n }

// Capacity returns the total byte capacity.
func (c *CPMA) Capacity() int { return c.leaves << c.leafLog2 }

// LeafBytes returns the byte capacity of one leaf.
func (c *CPMA) LeafBytes() int { return 1 << c.leafLog2 }

// Leaves returns the number of leaves.
func (c *CPMA) Leaves() int { return c.leaves }

// SizeBytes returns the logical memory footprint, Capacity (the quantity
// the paper's get_size reports, and the baseline a non-COW full copy would
// cost). It excludes the copy-on-write spine, 16 bytes per leaf (cow.go).
func (c *CPMA) SizeBytes() uint64 { return uint64(c.Capacity()) }

// head returns the leaf's smallest key, 0 when it is empty.
func (c *CPMA) head(leaf int) uint64 { return codec.Head(c.leafData(leaf)) }

// usedOf returns the leaf's encoded bytes: the size a batch recorded, else
// what its slab derives.
func (c *CPMA) usedOf(leaf int) int {
	if c.sizes != nil && c.sizes[leaf] != 0 {
		return int(c.sizes[leaf])
	}
	return c.f.used(c.leafData(leaf))
}

// overflowed reports whether the leaf's merged run outgrew its slab, which
// then still holds its old bytes.
func (c *CPMA) overflowed(leaf int) bool { return c.overflow != nil && c.overflow[leaf] != nil }

// batchRecords allocates the per-leaf batch records on a batch's first use.
func (c *CPMA) batchRecords() {
	if c.sizes == nil {
		c.sizes, c.overflow = make([]int32, c.leaves), make([][]uint64, c.leaves)
	}
}

// dropRecord clears a leaf's batch records. Every write after the batch's
// own must: the records describe the bytes the batch left.
func (c *CPMA) dropRecord(leaf int) {
	if c.sizes != nil {
		c.sizes[leaf], c.overflow[leaf] = 0, nil
	}
}

// capacityFor sizes the array for a run of payload encoded bytes by
// applying the growing factor, in the format's units, until it fits under
// the root bound, the way repeated root violations would grow it.
func (c *CPMA) capacityFor(payload int) int {
	units := c.f.minCapacity() / c.f.unit
	for {
		cap := units * c.f.unit
		lb := c.leafBytesFor(cap)
		leaves := max(1, cap/lb)
		// Every extra leaf may re-spend a head; budget for the worst case.
		need := payload + (leaves-1)*c.f.headCost
		if float64(need) <= c.f.bounds(lb).UpperRoot*float64(leaves*lb) {
			return leaves * lb
		}
		next := int(float64(units) * c.opt.GrowthFactor)
		if next <= units {
			next = units + 1
		}
		units = next
	}
}

// leafBytesFor picks the leaf size of an array of capacity bytes: the
// LeafBytes option, or Θ(log n) units of the format, rounded up to a power
// of two within the format's bounds.
func (c *CPMA) leafBytesFor(capacity int) int {
	lb := c.opt.LeafBytes
	if lb <= 0 {
		lb = 8 * bitutil.Log2Ceil(uint64(capacity/c.f.unit)+1)
	}
	lb = int(bitutil.CeilPow2(uint64(lb)))
	return min(max(lb, c.f.minLeafBytes), 1<<maxLeafLog2)
}

// rebuildFrom replaces the structure with a fresh array holding the sorted,
// duplicate-free keys.
func (c *CPMA) rebuildFrom(all []uint64) {
	prefix := c.f.prefix(all)
	capacity := c.capacityFor(c.f.runBytes(prefix, 0, len(all)))
	lb := c.leafBytesFor(capacity)
	c.setGeometry(max(1, capacity/lb), lb)
	c.n = len(all)
	if err := c.scatterElems(all, prefix, 0, c.leaves); err != nil {
		// capacityFor guarantees fit; reaching here is a bug.
		panic(err)
	}
}

// setGeometry installs a fresh, zeroed array of leaves slabs of lb bytes.
// Every leaf differs from any earlier handle's, so the geometry is stamped
// as changed in the current generation, and no slab is shared.
func (c *CPMA) setGeometry(leaves, lb int) {
	c.leafLog2 = uint(bitutil.Log2Ceil(uint64(lb)))
	c.leaves = leaves
	c.lf = newLeafSpine(leaves, lb, c.gen)
	c.geomGen = c.gen
	c.sizes, c.overflow = nil, nil
	c.tree = pmatree.New(leaves, lb, c.f.bounds(lb))
}

// scatterElems splits a sorted run across leaves [loLeaf, hiLeaf) so every
// leaf stays within its byte capacity, encoding each chunk in parallel. The
// split walks the leaves greedily, giving each one min(capacity - slack,
// fair share + the format's slop) bytes — which both balances the leaves
// and, for the compressed format, guarantees that the whole run is placed
// whenever it fits. The uncompressed format has no slop, so its leaves get
// an even split of keys.
func (c *CPMA) scatterElems(elems []uint64, prefix []int, loLeaf, hiLeaf int) error {
	nl := hiLeaf - loLeaf
	if len(elems) == 0 {
		forLeaves(nl, func(i int) { c.clearLeaf(loLeaf + i) })
		return nil
	}
	// Always keep slack bytes free so the next point insert into the leaf
	// cannot exceed its capacity.
	maxBudget := c.LeafBytes() - c.f.slack
	starts := make([]int, nl+1)
	start := 0
	n := len(elems)
	for t := 0; t < nl; t++ {
		if start >= n {
			starts[t+1] = n
			continue
		}
		remLeaves := nl - t
		remBytes := (remLeaves-1)*c.f.headCost + c.f.runBytes(prefix, start, n)
		budget := min(bitutil.CeilDiv(remBytes, remLeaves)+c.f.slop, maxBudget)
		// Largest e with runBytes(start, e) <= budget; e >= start+1.
		k := sort.Search(n-(start+1), func(k int) bool {
			return c.f.runBytes(prefix, start, start+2+k) > budget
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
		ld := c.leafW(leaf)
		clearBytes(ld[c.f.encode(ld, elems[s:e]):])
		c.dropRecord(leaf)
	})
	return nil
}

func (c *CPMA) clearLeaf(leaf int) {
	if c.head(leaf) == 0 && !c.overflowed(leaf) {
		// Already empty: nothing to clear, and redistribution over empty
		// leaves must not stamp (or unshare) them.
		return
	}
	// An overflowed leaf's slab still holds its old, zero-terminated bytes.
	ld := c.leafW(leaf)
	clearBytes(ld[:c.f.used(ld)])
	c.dropRecord(leaf)
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
// into a sorted slice, in parallel via prefix sums of the key counts a
// first parallel pass derives.
func (c *CPMA) gatherElems(loLeaf, hiLeaf int) []uint64 {
	nl := hiLeaf - loLeaf
	used, offsets := make([]int, nl), make([]int, nl+1)
	forLeaves(nl, func(i int) {
		if leaf := loLeaf + i; c.overflowed(leaf) {
			offsets[i+1] = len(c.overflow[leaf])
		} else {
			used[i] = c.usedOf(leaf)
			offsets[i+1] = c.f.count(c.leafData(leaf), used[i])
		}
	})
	for i := 0; i < nl; i++ {
		offsets[i+1] += offsets[i]
	}
	buf := make([]uint64, offsets[nl])
	forLeaves(nl, func(i int) {
		leaf := loLeaf + i
		lo, hi := offsets[i], offsets[i+1]
		if c.overflowed(leaf) {
			copy(buf[lo:hi], c.overflow[leaf])
			return
		}
		// Append in place: capacity is exactly the leaf's element count, so
		// decode fills buf[lo:hi] without reallocating.
		c.f.decode(buf[lo:lo:hi], c.leafData(leaf), used[i])
	})
	return buf
}

// redistribute evens out a planned region by byte budget.
func (c *CPMA) redistribute(r pmatree.Region) error {
	elems := c.gatherElems(r.LoLeaf, r.HiLeaf)
	return c.scatterElems(elems, c.f.prefix(elems), r.LoLeaf, r.HiLeaf)
}

// applyPlan executes a rebalance plan; a failed regional scatter (possible
// only in pathological byte-skew cases) escalates to a full rebuild.
func (c *CPMA) applyPlan(plan pmatree.Plan) {
	switch {
	case plan.Grow || plan.Shrink:
		if plan.Grow {
			c.grows++
		}
		c.rebuildFrom(c.gatherElems(0, c.leaves))
		return
	case len(plan.Redistribute) == 0:
		return
	}
	for _, r := range plan.Redistribute {
		if r.HiLeaf-r.LoLeaf > 1 {
			c.multiLeaf++
		}
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
