// Package parallel implements the fork-join primitives the batch-parallel
// PMA/CPMA and the tree baselines are built on: binary forking (Do), grained
// parallel loops (For, ForRange), load-balanced parallel merge, parallel
// reductions, and SortedSet, the one place a caller's batch becomes sorted,
// duplicate-free keys.
//
// It plays the role Parlaylib plays for the paper's C++ implementation. All
// primitives degrade to plain serial loops when GOMAXPROCS is 1, so serial
// baselines measured with runtime.GOMAXPROCS(1) incur no scheduling overhead.
//
// Determinism: SortedSet's repeat filter, LSD radix sort and compaction
// are serial, and the keys it returns are a pure function of its input at
// every GOMAXPROCS (TestSortedSet runs at each -cpu value); so is
// dedupSorted, which SortedSet calls for a sorted batch with repeats. The
// merges (merge, MergeRuns, MergeDedup) fork, but their output does not
// depend on how the work was split.
package parallel

import (
	"runtime"
	"sync"
)

// procs reports the current GOMAXPROCS setting, i.e. the number of workers
// fork-join primitives will try to keep busy.
func procs() int {
	return runtime.GOMAXPROCS(0)
}

// Serial reports whether the runtime is limited to a single worker, in which
// case every primitive in this package runs inline without spawning.
func Serial() bool {
	return procs() == 1
}

// Do runs f and g as a binary fork, joining before it returns. When only one
// worker is available both run inline.
func Do(f, g func()) {
	if Serial() {
		f()
		g()
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g()
	}()
	f()
	wg.Wait()
}

// DoIf forks f and g when cond is true and runs them sequentially otherwise.
// Callers use it to cut off forking below a work threshold.
func DoIf(cond bool, f, g func()) {
	if cond {
		Do(f, g)
	} else {
		f()
		g()
	}
}

// defaultGrain picks a loop grain that gives each worker roughly eight
// chunks, bounded below by 1.
func defaultGrain(n int) int {
	g := n / (8 * procs())
	if g < 1 {
		g = 1
	}
	return g
}

// For runs f(i) for every i in [0, n) with fork-join parallelism. Chunks of
// at most grain iterations run sequentially; grain <= 0 selects
// defaultGrain(n). f must be safe to call concurrently for distinct i.
func For(n, grain int, f func(i int)) {
	ForRange(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// ForRange runs f over disjoint subranges [lo, hi) covering [0, n), each of
// length at most grain. It is the block form of For, avoiding per-index
// closure calls in hot loops.
func ForRange(n, grain int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = defaultGrain(n)
	}
	if Serial() || n <= grain {
		f(0, n)
		return
	}
	forRange(0, n, grain, f)
}

func forRange(lo, hi, grain int, f func(lo, hi int)) {
	if hi-lo <= grain {
		f(lo, hi)
		return
	}
	mid := lo + (hi-lo)/2
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		forRange(mid, hi, grain, f)
	}()
	forRange(lo, mid, grain, f)
	wg.Wait()
}

// ReduceSum computes the sum of f(i) for i in [0, n) as a parallel tree
// reduction with the given grain (<= 0 selects defaultGrain).
func ReduceSum(n, grain int, f func(i int) uint64) uint64 {
	var total uint64
	var mu sync.Mutex
	ForRange(n, grain, func(lo, hi int) {
		var s uint64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		mu.Lock()
		total += s
		mu.Unlock()
	})
	return total
}
