package cpma

// Leaf-granular copy-on-write. Clone used to memcpy the whole data array,
// making every published snapshot cost O(n) even when a drain touched a
// handful of leaves — the scalability cliff ROADMAP calls out. The fix
// keeps the paper's pointer-free layout but slices it per leaf: each leaf
// owns a leafState holding its byte slab and used/ecnt metadata, and the
// first mutation of a shared leaf unshares it — copies the one leaf — so
// total copy cost is O(dirty leaves), not O(n).
//
// The leafState spine itself is also shared, at chunk granularity: the
// spine is an array of pointers to fixed-size chunks of chunkLeaves
// leafStates, and Clone copies only that pointer table (8 bytes per 64
// leaves) plus fresh ownership bitsets. A per-CPMA ownChunk bitset says
// which chunks hold spine metadata private to this CPMA; the first
// metadata write into a shared chunk copies the one chunk. Without this
// second level, the eager spine memcpy (≈40 bytes/leaf) put an O(n) floor
// under every publication — about 1/7 of a full copy at the minimum leaf
// size, which is exactly the cliff the leaf-granular design exists to
// remove.
//
// COW contract:
//
//   - Clone may only be called at rest (no batch in flight) and never
//     concurrently with any mutation of the receiver; the shard layer
//     guarantees this by publishing only from a shard's sole mutator.
//   - After Clone, BOTH sides may be mutated independently; whichever side
//     writes a shared leaf first pays the one-leaf copy (plus the one-chunk
//     spine copy if the chunk is still shared). Within one CPMA, the batch
//     recursion partitions leaves disjointly across goroutines (see
//     mergeRange), but two goroutines' leaves can share a chunk, so chunk
//     unsharing is arbitrated with a lock-free claim bitset: exactly one
//     claimant copies and installs the chunk, the rest spin until the
//     ownership bit publishes it.
//   - A leaf's owned flag is meaningful only inside a chunk this CPMA owns
//     (ownChunk bit set): unsharing a chunk clears every owned flag in the
//     copy, because after a Clone all slabs are shared regardless of what
//     the flags said in the previous window.
//   - Shared slabs are never written in place: leafDataW is the single
//     gateway to a writable slab and unshares (chunk, then slab) first.
//     Read accessors (leafData et al.) must not be used to mutate.
//
// Dirty tracking rides on the same write gateway. c.dirty records the
// leaves mutated since the last Clone (c.dirtyAll marks whole-geometry
// rebuilds). Clone hands the accumulated window to the clone — retrievable
// via DirtySince — and resets the parent's window, so the shard's journal
// can checkpoint exactly the leaves that changed between two published
// handles (see internal/persist's delta checkpoints).

import (
	"runtime"
	"sync/atomic"

	"repro/internal/parallel"
)

// leafState is one leaf's storage: its byte slab plus the used/ecnt
// metadata that used to live in parallel flat slices. owned reports
// whether data is exclusive to this CPMA — but only inside a chunk whose
// ownChunk bit this CPMA holds; in a shared chunk the flags are void and
// every slab must be treated as shared.
type leafState struct {
	data  []byte
	used  int32 // encoded bytes (0 = empty leaf); transiently > cap during overflow
	ecnt  int32 // elements in the leaf (or its overflow buffer)
	owned bool
}

// leafSpineBytes approximates the in-memory cost of one leafState (slice
// header 24 + 2×int32 + bool, padded). Unsharing a chunk charges it per
// leaf of the chunk copy.
const leafSpineBytes = 40

// Spine chunking: chunkLeaves leafStates per chunk, so Clone's eager copy
// is one pointer per chunk instead of one leafState per leaf.
const (
	chunkLog    = 6
	chunkLeaves = 1 << chunkLog
	chunkMask   = chunkLeaves - 1
)

type leafChunk [chunkLeaves]leafState

func chunksFor(leaves int) int { return (leaves + chunkMask) >> chunkLog }

// newLeafSpine allocates a spine of leaves equally sized slabs carved from
// one contiguous backing array, preserving the paper's cache-friendly flat
// layout for freshly rebuilt arrays. All leaves start owned; the caller
// (rebuildFrom / ReadFrom) must install matching all-owned chunk bitsets
// via ownAllChunks.
func newLeafSpine(leaves, leafBytes int) []atomic.Pointer[leafChunk] {
	return leafSpineOver(make([]byte, leaves*leafBytes), leaves, leafBytes)
}

// leafSpineOver builds the chunked spine over an existing flat data array
// (leaf i owning backing[i*leafBytes : (i+1)*leafBytes]).
func leafSpineOver(backing []byte, leaves, leafBytes int) []atomic.Pointer[leafChunk] {
	lf := make([]atomic.Pointer[leafChunk], chunksFor(leaves))
	for ch := range lf {
		nc := new(leafChunk)
		for j := 0; j < chunkLeaves; j++ {
			i := ch<<chunkLog + j
			if i >= leaves {
				break
			}
			off := i * leafBytes
			nc[j].data = backing[off : off+leafBytes : off+leafBytes]
			nc[j].owned = true
		}
		lf[ch].Store(nc)
	}
	return lf
}

// ownAllChunks resets the receiver's chunk ownership to fully private —
// the state after a rebuild or a slab load, when no other CPMA can
// reference any chunk.
func (c *CPMA) ownAllChunks() {
	nch := len(c.lf)
	c.ownChunk = parallel.NewBitset(nch)
	c.claimChunk = parallel.NewBitset(nch)
	for ch := 0; ch < nch; ch++ {
		c.ownChunk.Set(ch)
	}
}

// leafSt returns the leaf's state for reading only.
func (c *CPMA) leafSt(leaf int) *leafState {
	return &c.lf[leaf>>chunkLog].Load()[leaf&chunkMask]
}

// leafStW returns the leaf's state for writing, unsharing its spine chunk
// first if a clone may still reference it.
func (c *CPMA) leafStW(leaf int) *leafState {
	ch := leaf >> chunkLog
	if !c.ownChunk.Get(ch) {
		c.unshareChunk(ch)
	}
	return &c.lf[ch].Load()[leaf&chunkMask]
}

// unshareChunk gives this CPMA a private copy of chunk ch. Concurrent
// callers (parallel batch goroutines whose disjoint leaves share a chunk)
// are arbitrated by claimChunk: the goroutine that wins the claim copies
// the chunk, installs it, and publishes ownership; losers spin on the
// ownership bit, whose atomic set/get orders the pointer store before
// their reload.
func (c *CPMA) unshareChunk(ch int) {
	for !c.ownChunk.Get(ch) {
		if !c.claimChunk.TrySet(ch) {
			runtime.Gosched()
			continue
		}
		nc := *c.lf[ch].Load()
		// The copy's slabs are shared with whoever else references the old
		// chunk; stale flags from a pre-Clone window must not claim them.
		for j := range nc {
			nc[j].owned = false
		}
		c.lf[ch].Store(&nc)
		atomic.AddUint64(&c.cowBytes, chunkLeaves*leafSpineBytes)
		c.ownChunk.Set(ch)
	}
}

// leafDataW returns the leaf's byte slab for writing, unsharing it first if
// a clone may still reference the current array. Callers that bail out
// without writing leave an unshared-but-unchanged leaf behind, which is
// correctness-neutral (unshared ≠ dirty; the contents are identical).
func (c *CPMA) leafDataW(leaf int) []byte {
	st := c.leafStW(leaf)
	if !st.owned {
		st.data = append(make([]byte, 0, len(st.data)), st.data...)
		st.owned = true
		// Parallel batch goroutines unshare distinct leaves concurrently;
		// only the counter needs synchronizing.
		atomic.AddUint64(&c.cowBytes, uint64(len(st.data)))
	}
	return st.data
}

// setLeafMeta records the leaf's new used/ecnt and marks it dirty. Every
// leaf mutation funnels through here (or rebuildFrom), which is what makes
// the dirty window a sound superset of the bytes that changed.
func (c *CPMA) setLeafMeta(leaf int, used, ecnt int32) {
	st := c.leafStW(leaf)
	st.used = used
	st.ecnt = ecnt
	c.dirty.Set(leaf)
}

// resetDirty clears the mutation window (fresh bitset, dirtyAll off).
func (c *CPMA) resetDirty() {
	c.dirty = parallel.NewBitset(c.leaves)
	c.dirtyAll = false
}

// DirtySince describes which of the receiver's leaves changed between the
// parent's previous Clone and the Clone that produced this handle: all
// means the geometry itself changed (a rebuild — every leaf differs), and
// otherwise dirty holds the changed leaf indices (possibly none). It is
// meaningful only on handles produced by Clone; the bitset must be treated
// as immutable. Handles not produced by Clone report (false, nil), which
// consumers must treat as unknown.
func (c *CPMA) DirtySince() (all bool, dirty *parallel.Bitset) {
	return c.pubAll, c.pubDirty
}

// CloneCost returns the bytes materialized to produce this handle: the
// chunk pointer table and ownership bitsets, plus every spine chunk and
// leaf slab the parent (or this handle) unshared since the parent's
// previous Clone. It is the actual copy cost of the snapshot, as opposed
// to SizeBytes — the full-copy baseline.
func (c *CPMA) CloneCost() uint64 { return c.cloneBytes }

// Clones returns how many times Clone has been called on this CPMA.
func (c *CPMA) Clones() uint64 { return atomic.LoadUint64(&c.clones) }
