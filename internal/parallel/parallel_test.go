package parallel

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDo(t *testing.T) {
	var a, b int
	Do(func() { a = 1 }, func() { b = 2 })
	if a != 1 || b != 2 {
		t.Fatalf("Do did not run both functions: a=%d b=%d", a, b)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000, 100_003} {
		hits := make([]int32, n)
		For(n, 13, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForRangeDisjointCover(t *testing.T) {
	n := 12345
	var total int64
	seen := make([]int32, n)
	ForRange(n, 100, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad range [%d,%d)", lo, hi)
		}
		atomic.AddInt64(&total, int64(hi-lo))
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	if total != int64(n) {
		t.Fatalf("ranges covered %d of %d", total, n)
	}
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d covered %d times", i, s)
		}
	}
}

func TestReduceSum(t *testing.T) {
	n := 100_000
	got := ReduceSum(n, 0, func(i int) uint64 { return uint64(i) })
	want := uint64(n) * uint64(n-1) / 2
	if got != want {
		t.Fatalf("ReduceSum = %d, want %d", got, want)
	}
}

func randSorted(r *rand.Rand, n int, max uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = r.Uint64() % max
	}
	slices.Sort(a)
	return a
}

func TestMergeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, na := range []int{0, 1, 100, 50_000} {
		for _, nb := range []int{0, 1, 333, 70_000} {
			a := randSorted(r, na, 1<<20)
			b := randSorted(r, nb, 1<<20)
			out := make([]uint64, na+nb)
			merge(a, b, out)
			want := append(append([]uint64{}, a...), b...)
			slices.Sort(want)
			if !slices.Equal(out, want) {
				t.Fatalf("merge(%d,%d) mismatch", na, nb)
			}
		}
	}
}

// TestMergeRuns merges k runs for k = 0..9, reusing one pair of arenas
// across calls, against a sort of the concatenation.
func TestMergeRuns(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var bufs [2][]uint64
	for k := 0; k <= 9; k++ {
		var runs [][]uint64
		var want []uint64
		for i := 0; i < k; i++ {
			run := randSorted(r, r.Intn(200), 1<<10)
			runs = append(runs, run)
			want = append(want, run...)
		}
		slices.Sort(want)
		if got := MergeRuns(runs, &bufs); !slices.Equal(got, want) {
			t.Fatalf("k=%d: MergeRuns mismatch", k)
		}
	}
}

func TestMergeDedup(t *testing.T) {
	a := []uint64{1, 3, 5, 7}
	b := []uint64{2, 3, 6, 7, 9}
	got, fresh := MergeDedup(a, b)
	want := []uint64{1, 2, 3, 5, 6, 7, 9}
	if !slices.Equal(got, want) || fresh != 3 {
		t.Fatalf("MergeDedup = %v fresh=%d, want %v fresh=3", got, fresh, want)
	}
}

func TestMergeDedupLarge(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := dedupSorted(randSorted(r, 60_000, 1<<22))
	b := dedupSorted(randSorted(r, 60_000, 1<<22))
	got, fresh := MergeDedup(a, b)
	seen := map[uint64]bool{}
	for _, v := range a {
		seen[v] = true
	}
	wantFresh := 0
	for _, v := range b {
		if !seen[v] {
			wantFresh++
			seen[v] = true
		}
	}
	if fresh != wantFresh {
		t.Fatalf("fresh = %d, want %d", fresh, wantFresh)
	}
	if len(got) != len(seen) {
		t.Fatalf("len = %d, want %d", len(got), len(seen))
	}
	if !slices.IsSorted(got) {
		t.Fatal("result not sorted")
	}
}

func TestDedupSorted(t *testing.T) {
	cases := [][]uint64{
		nil,
		{5},
		{1, 1, 1},
		{1, 2, 2, 3, 3, 3, 10},
	}
	wants := [][]uint64{nil, {5}, {1}, {1, 2, 3, 10}}
	for i, c := range cases {
		got := dedupSorted(c)
		if !slices.Equal(got, wants[i]) {
			t.Errorf("dedupSorted(%v) = %v, want %v", c, got, wants[i])
		}
	}
	// Runs longer than a parallel block: whole blocks repeat the key
	// before them, and every block ends on a repeat.
	long := make([]uint64, 40_000)
	for i := range long {
		long[i] = uint64(i/5000) + 1
	}
	if got := dedupSorted(long); !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("dedupSorted of 5000-key runs = %v", got)
	}
}

func TestDedupSortedLargeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randSorted(r, 40_000, 1<<15) // many duplicates
		got := dedupSorted(a)
		want := slices.Compact(slices.Clone(a))
		return slices.Equal(got, want)
	}
	cfg := &quick.Config{MaxCount: 8}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 1000, 200_000} {
		a := make([]uint64, n)
		for i := range a {
			a[i] = r.Uint64() | 1 // key 0 is reserved
		}
		want := slices.Compact(slices.Sorted(slices.Values(a)))
		if got := SortedSet(a, false); !slices.Equal(got, want) {
			t.Fatalf("SortedSet(n=%d) mismatch", n)
		}
		if got := SortedSet(want, true); !slices.Equal(got, want) {
			t.Fatalf("SortedSet(n=%d, sorted) mismatch", n)
		}
	}
}

func TestSortedCopyLeavesInputUnchanged(t *testing.T) {
	a := []uint64{3, 1, 2}
	got := SortedSet(a, false)
	if !slices.Equal(a, []uint64{3, 1, 2}) {
		t.Fatal("input mutated")
	}
	if !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
}
