package parallel

// Race coverage for the fork-join primitives: these tests run the
// primitives from several client goroutines at once — the usage pattern the
// sharded front-end introduces, where independent batch writers each spin
// up their own parallel loops — and are meaningful mostly under
// `go test -race` (the CI race job runs exactly that).

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRaceConcurrentForClients(t *testing.T) {
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]int, 10000)
			For(len(out), 64, func(i int) { out[i] = i + c })
			for i, v := range out {
				if v != i+c {
					t.Errorf("client %d: out[%d] = %d", c, i, v)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestRaceNestedForkJoin(t *testing.T) {
	var total atomic.Int64
	Do(
		func() {
			ForRange(1000, 16, func(lo, hi int) { total.Add(int64(hi - lo)) })
		},
		func() {
			Do(
				func() { For(1000, 16, func(int) { total.Add(1) }) },
				func() { total.Add(int64(ReduceSum(1000, 16, func(int) uint64 { return 1 }))) },
			)
		},
	)
	if got := total.Load(); got != 3000 {
		t.Fatalf("nested fork-join total = %d, want 3000", got)
	}
}

func TestRaceConcurrentSortAndMerge(t *testing.T) {
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			keys := make([]uint64, 50000)
			for i := range keys {
				keys[i] = 1 + uint64((i*2654435761+c)%1000003)
			}
			a := SortedSet(keys, false)
			for i := 1; i < len(a); i++ {
				if a[i-1] >= a[i] {
					t.Errorf("client %d: sorted-set order violated at %d", c, i)
					return
				}
			}
			merged, _ := MergeDedup(a[:len(a)/2], a[len(a)/2:])
			for i := 1; i < len(merged); i++ {
				if merged[i-1] >= merged[i] {
					t.Errorf("client %d: merge-dedup order violated at %d", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
