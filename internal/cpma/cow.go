package cpma

// Leaf-granular copy-on-write. Clone used to memcpy the whole data array,
// making every published snapshot cost O(n) even when a drain touched a
// handful of leaves. The fix keeps the paper's pointer-free layout but
// slices it per leaf: each leaf's leafState points at its byte slab, and
// the first write to a shared leaf gives that one leaf a fresh slab, which
// the write fills, so the total copy cost is O(written leaves), not O(n).
// A leaf is only its bytes (leaf.go), so a leafState is one pointer and
// one stamp, 16 bytes.
//
// The leafState spine is shared too, at chunk granularity: the spine is an
// array of pointers to chunks of chunkLeaves leafStates, and Clone copies
// only that pointer table (8 bytes per 64 leaves). The first write into a
// shared chunk copies the one chunk.
//
// One generation stamp answers every copy-on-write question. A process-wide
// counter issues generations in increasing order. Every CPMA writes in its
// own generation, gen; a chunk records the generation that copied it, and a
// leaf the generation that last wrote it:
//
//   - Ownership: a chunk is private iff chunk.gen == c.gen, and a leaf's
//     slab is private iff leaf.gen == c.gen. Clone gives the clone and then
//     the parent fresh generations, so right after it every chunk and slab
//     is shared on both sides.
//   - Change: a leaf changed since handle H iff leaf.gen > H.Gen(), since
//     every later write to H's parent stamps a newer generation. A chunk
//     with chunk.gen <= H.Gen() holds no such leaf. A rebuild or load
//     stamps geomGen, and ChangedSince then reports the whole geometry.
//
// COW contract:
//
//   - Clone may only be called at rest (no batch in flight) and never
//     concurrently with any mutation of the receiver; the shard layer
//     guarantees this by publishing only from a shard's sole mutator.
//   - After Clone, both sides may be mutated independently; whichever side
//     writes a shared leaf first pays the one-leaf slab (plus the one-chunk
//     spine copy if the chunk is still shared).
//   - leafW is the only way to a writable leaf. It unshares the chunk, then
//     the slab, and so stamps the leaf; an unshared slab starts zeroed, and
//     the writer reads the old bytes from the shared one. Read accessors
//     (leafSt, leafData and the rest) must not be used to mutate.
//   - Within one CPMA, the batch recursion partitions leaves disjointly
//     across goroutines (see batchRange), but two goroutines' leaves can
//     share a chunk. The goroutine that unshares it installs its copy with
//     CompareAndSwap; one that loses the race reloads the winner's copy.
//     A shared chunk is never written, so copying it races with nothing.

import (
	"sync/atomic"
	"unsafe"
)

// genCounter issues generations. It is global so that stamps from any two
// CPMAs compare: a set built after a checkpoint always looks newer.
var genCounter atomic.Uint64

func newGen() uint64 { return genCounter.Add(1) }

// leafState is one leaf's storage: the first byte of its slab, which is
// LeafBytes long, and the generation of the window that last wrote it.
type leafState struct {
	data *byte
	gen  uint64
}

// Spine chunking: chunkLeaves leafStates per chunk, so Clone's eager copy
// is one pointer per chunk instead of one leafState per leaf.
const (
	chunkLog    = 6
	chunkLeaves = 1 << chunkLog
	chunkMask   = chunkLeaves - 1
)

// leafChunk is one unit of spine sharing. gen is the generation that
// copied or built it.
type leafChunk struct {
	gen    uint64
	leaves [chunkLeaves]leafState
}

// chunkBytes is what unsharing one chunk copies.
const chunkBytes = uint64(unsafe.Sizeof(leafChunk{}))

func chunksFor(leaves int) int { return (leaves + chunkMask) >> chunkLog }

// newLeafSpine allocates a spine of leaves equally sized slabs carved from
// one contiguous backing array, preserving the paper's cache-friendly flat
// layout for freshly rebuilt arrays. Every chunk and leaf is stamped gen:
// private to the CPMA writing in gen.
func newLeafSpine(leaves, leafBytes int, gen uint64) []atomic.Pointer[leafChunk] {
	backing := make([]byte, leaves*leafBytes)
	lf := make([]atomic.Pointer[leafChunk], chunksFor(leaves))
	for ch := range lf {
		nc := &leafChunk{gen: gen}
		for j := range nc.leaves {
			i := ch<<chunkLog + j
			if i >= leaves {
				break
			}
			nc.leaves[j] = leafState{data: &backing[i*leafBytes], gen: gen}
		}
		lf[ch].Store(nc)
	}
	return lf
}

// leafSt returns the leaf's state for reading only.
func (c *CPMA) leafSt(leaf int) *leafState {
	return &c.lf[leaf>>chunkLog].Load().leaves[leaf&chunkMask]
}

// leafData returns the leaf's slab for reading only.
func (c *CPMA) leafData(leaf int) []byte {
	return unsafe.Slice(c.leafSt(leaf).data, c.LeafBytes())
}

// leafW returns the leaf's slab for writing: the single write gateway. It
// unshares the leaf's chunk and then its slab if either is still shared,
// which stamps the leaf with the receiver's generation. An unshared slab
// is fresh and zeroed, not a copy: every writer writes the whole leaf, and
// one that edits it reads the old bytes through leafData, taken before the
// call. Concurrent callers must hold distinct leaves; those sharing a chunk
// race to install its copy and the losers adopt the winner's.
func (c *CPMA) leafW(leaf int) []byte {
	slot := &c.lf[leaf>>chunkLog]
	ch := slot.Load()
	for ch.gen != c.gen {
		nc := *ch
		nc.gen = c.gen
		if slot.CompareAndSwap(ch, &nc) {
			atomic.AddUint64(&c.spineBytes, chunkBytes)
		}
		ch = slot.Load()
	}
	st := &ch.leaves[leaf&chunkMask]
	ld := unsafe.Slice(st.data, c.LeafBytes())
	if st.gen != c.gen {
		ld = make([]byte, len(ld))
		st.data, st.gen = &ld[0], c.gen
		atomic.AddUint64(&c.slabBytes, uint64(len(ld)))
	}
	return ld
}

// Gen returns the receiver's generation. Every leaf it holds is stamped at
// or below it; on a Clone handle, every later write to the parent is
// stamped above it.
func (c *CPMA) Gen() uint64 { return c.gen }

// ChangedSince reports which of the receiver's leaves were written after
// generation gen, typically the Gen of an earlier handle of the same set:
// all means a rebuild or load replaced the whole geometry since, and
// otherwise leaves lists the written leaves in ascending order (possibly
// none). The list covers every leaf whose bytes changed, and
// only leaves that passed the write gateway. The receiver must not be
// mutated concurrently; frozen Clone handles never are.
func (c *CPMA) ChangedSince(gen uint64) (all bool, leaves []int) {
	if c.geomGen > gen {
		return true, nil
	}
	for i := range c.lf {
		ch := c.lf[i].Load()
		if ch.gen <= gen {
			continue
		}
		for j := range ch.leaves {
			if leaf := i<<chunkLog + j; leaf < c.leaves && ch.leaves[j].gen > gen {
				leaves = append(leaves, leaf)
			}
		}
	}
	return false, leaves
}

// CloneBytes is what producing one Clone handle copied: its chunk-pointer
// table, plus the spine chunks and leaf slabs its parent unshared since
// the parent's previous Clone.
type CloneBytes struct{ Table, Spine, Slab uint64 }

// Total is the handle's whole copy cost, as opposed to SizeBytes, the
// full-copy baseline.
func (b CloneBytes) Total() uint64 { return b.Table + b.Spine + b.Slab }

// CloneCost returns the bytes materialized to produce this handle.
func (c *CPMA) CloneCost() CloneBytes { return c.cost }
