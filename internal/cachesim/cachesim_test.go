package cachesim

import (
	"slices"
	"testing"

	"repro/internal/cpma"
	"repro/internal/workload"
)

func TestCacheBasics(t *testing.T) {
	c := newCache(1024, 2, 64) // 16 lines, 8 sets, 2-way
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) || !c.Access(63) {
		t.Fatal("same line should hit")
	}
	if c.Access(64) {
		t.Fatal("different line hit")
	}
	if c.hits != 2 || c.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d", c.hits, c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(128, 2, 64) // 1 set, 2 ways
	c.Access(0)
	c.Access(64)
	c.Access(0)   // 0 is MRU, 64 is LRU
	c.Access(128) // evicts 64
	if !c.Access(0) {
		t.Fatal("MRU line was evicted")
	}
	if c.Access(64) {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestCacheSetIndexing(t *testing.T) {
	c := newCache(8192, 1, 64) // direct-mapped, 128 sets
	// Two addresses in different sets must not evict each other.
	c.Access(0)
	c.Access(64)
	if !c.Access(0) || !c.Access(64) {
		t.Fatal("different sets interfered")
	}
	// Same set (stride = sets*line) must conflict in a direct-mapped cache.
	c.Access(0)
	c.Access(128 * 64)
	if c.Access(0) {
		t.Fatal("conflict miss expected")
	}
}

func TestHierarchyFallthrough(t *testing.T) {
	h := newHierarchy(1 << 20)
	h.Access(0)
	if h.L1.Misses() != 1 || h.L3.Misses() != 1 {
		t.Fatal("cold miss should reach L3")
	}
	h.Access(0)
	if h.L1.Misses() != 1 {
		t.Fatal("warm access missed L1")
	}
}

func TestRangeTouchesEveryLine(t *testing.T) {
	h := newHierarchy(1 << 20)
	h.Range(0, 640)
	if h.L1.Misses() != 10 {
		t.Fatalf("Range touched %d lines, want 10", h.L1.Misses())
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 500_000
	cfg.BatchSize = 5_000
	cfg.Batches = 5
	cfg.L3Bytes = 1 << 19 // keep the structure:L3 ratio
	res := Table1(cfg)
	byName := map[string]Result{}
	for _, r := range res {
		byName[r.Name] = r
	}
	upac, cpac, pma, cpma := byName["U-PaC"], byName["C-PaC"], byName["PMA"], byName["CPMA"]
	// Paper Table 1 orderings that must be preserved by the model:
	if pma.L1Misses >= upac.L1Misses {
		t.Fatalf("PMA L1 misses %d should be well below U-PaC %d", pma.L1Misses, upac.L1Misses)
	}
	if cpma.L1Misses > pma.L1Misses {
		t.Fatalf("CPMA L1 misses %d should not exceed PMA %d", cpma.L1Misses, pma.L1Misses)
	}
	if cpac.L1Misses >= upac.L1Misses {
		t.Fatalf("C-PaC L1 %d should be below U-PaC %d", cpac.L1Misses, upac.L1Misses)
	}
	if cpma.L3Misses >= pma.L3Misses {
		t.Fatalf("CPMA L3 %d should be below PMA %d", cpma.L3Misses, pma.L3Misses)
	}
	if cpma.L3Misses >= cpac.L3Misses {
		t.Fatalf("CPMA L3 %d should be below C-PaC %d", cpma.L3Misses, cpac.L3Misses)
	}
}

// TestTable1LeafMatchesEngine: the CPMA replay's leaf size is the one the
// engine picks for the replay's structure.
func TestTable1LeafMatchesEngine(t *testing.T) {
	cfg := DefaultConfig()
	keys := workload.Uniform(workload.NewRNG(cfg.Seed), cfg.N, workload.UniformBits)
	slices.Sort(keys)
	c := cpma.FromSorted(slices.Compact(keys), nil)
	if got := c.LeafBytes(); got != cpmaLeafBytes {
		t.Fatalf("the engine builds %d-byte leaves for %d keys, the model replays %d-byte ones", got, c.Len(), cpmaLeafBytes)
	}
}
