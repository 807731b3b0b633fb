// Package cachesim is the stand-in for the hardware performance counters of
// paper Table 1 ("we measured the number of cache misses during batch
// inserts ... with perf stat"): a set-associative LRU cache hierarchy plus
// per-structure memory-access replay models for the batch-insert workload.
//
// Pure Go cannot read PMU counters portably, so we simulate the quantity
// Table 1 measures — cache lines touched and their reuse distance — by
// replaying the address patterns each data structure performs during batch
// inserts (binary-search probes, sequential leaf/block scans, pointer-chased
// root-to-block walks, redistribution copies), at a scaled-down size with
// proportionally scaled caches.
package cachesim

// cache is one set-associative LRU cache level.
type cache struct {
	sets     int
	ways     int
	lineLog2 uint
	tags     [][]uint64 // tags[set] ordered MRU..LRU
	hits     uint64
	misses   uint64
}

// newCache builds a cache of the given total size, associativity, and line
// size (all powers of two).
func newCache(sizeBytes, ways, lineBytes int) *cache {
	lines := sizeBytes / lineBytes
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	c := &cache{sets: sets, ways: ways, tags: make([][]uint64, sets)}
	for lineBytes > 1 {
		lineBytes >>= 1
		c.lineLog2++
	}
	return c
}

// Access touches the line containing addr, returns whether it hit, and
// updates LRU state.
func (c *cache) Access(addr uint64) bool {
	line := addr >> c.lineLog2
	set := int(line % uint64(c.sets))
	tags := c.tags[set]
	for i, t := range tags {
		if t == line {
			// Move to front (MRU).
			copy(tags[1:i+1], tags[:i])
			tags[0] = line
			c.hits++
			return true
		}
	}
	c.misses++
	if len(tags) < c.ways {
		tags = append(tags, 0)
	}
	copy(tags[1:], tags)
	tags[0] = line
	c.tags[set] = tags
	return false
}

// Install fills the line containing addr without counting a hit or miss —
// how prefetched lines enter a cache. Prefetch fills compete for capacity
// exactly like demand fills (they evict the LRU way).
func (c *cache) Install(addr uint64) {
	line := addr >> c.lineLog2
	set := int(line % uint64(c.sets))
	tags := c.tags[set]
	for i, t := range tags {
		if t == line {
			copy(tags[1:i+1], tags[:i])
			tags[0] = line
			return
		}
	}
	if len(tags) < c.ways {
		tags = append(tags, 0)
	}
	copy(tags[1:], tags)
	tags[0] = line
	c.tags[set] = tags
}

// Misses returns the miss count.
func (c *cache) Misses() uint64 { return c.misses }

// hierarchy is a two-level inclusive hierarchy standing in for the paper
// machine's L1 and L3 (we skip L2; Table 1 reports L1 and L3 only), plus a
// hardware-style stream prefetcher: sequential line streams are detected
// and their next lines served without a demand L3 miss. The prefetcher is
// what gives contiguous layouts (PMA/CPMA) their dramatic L3 advantage over
// pointer-chased blocks in the paper's Table 1.
type hierarchy struct {
	L1 *cache
	L3 *cache
	// streams holds the next expected line of each tracked sequential
	// stream (round-robin replacement, as in simple hardware prefetchers).
	streams [32]uint64
	rr      int
}

// newHierarchy builds the scaled hierarchy: a 48 KB 12-way L1 (one core of
// the paper's Xeon) and an L3 scaled to keep the same structure:L3 size
// ratio as the paper's 108 MB against 100M-element structures.
func newHierarchy(l3Bytes int) *hierarchy {
	h := &hierarchy{
		L1: newCache(48<<10, 12, 64),
		L3: newCache(l3Bytes, 16, 64),
	}
	for i := range h.streams {
		h.streams[i] = ^uint64(0) // no stream expects line 0 initially
	}
	return h
}

// Access touches addr in L1; L1 misses either match a prefetch stream (no
// demand L3 miss) or fall through to L3 and start a new stream.
func (h *hierarchy) Access(addr uint64) {
	if h.L1.Access(addr) {
		return
	}
	line := addr >> 6
	for i, next := range h.streams {
		if line == next {
			h.streams[i] = line + 1
			// Prefetched lines still occupy (and evict) L3 capacity.
			h.L3.Install(addr)
			return
		}
	}
	h.L3.Access(addr)
	h.streams[h.rr] = line + 1
	h.rr = (h.rr + 1) % len(h.streams)
}

// Range touches every line in [addr, addr+bytes) — a sequential scan.
func (h *hierarchy) Range(addr uint64, bytes int) {
	for b := 0; b < bytes; b += 64 {
		h.Access(addr + uint64(b))
	}
}
