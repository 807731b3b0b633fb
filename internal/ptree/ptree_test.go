package ptree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func uniqueRandom(r *rand.Rand, n int, max uint64) []uint64 {
	set := make(map[uint64]bool, n)
	for len(set) < n {
		set[1+r.Uint64()%max] = true
	}
	out := make([]uint64, 0, n)
	for k := range set {
		out = append(out, k)
	}
	return out
}

// keys collects the tree's keys (all below 2^64-1) in ascending order.
func keys(tr *Tree) []uint64 {
	var out []uint64
	tr.MapRange(0, ^uint64(0), func(v uint64) bool {
		out = append(out, v)
		return true
	})
	return out
}

// fromSortedTree builds a tree over sorted, duplicate-free keys: a
// sorted batch into an empty tree is one O(n) treap build.
func fromSortedTree(keys []uint64) *Tree {
	tr := New()
	tr.InsertBatch(keys, true)
	return tr
}

func TestEmpty(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || len(keys(tr)) != 0 || tr.Sum() != 0 {
		t.Fatal("empty tree misbehaves")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFromSortedBuild(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, 10_000} {
		want := uniqueRandom(r, n, 1<<40)
		slices.Sort(want)
		tr := fromSortedTree(want)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !slices.Equal(keys(tr), want) {
			t.Fatalf("n=%d: contents mismatch", n)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
	}
}

func TestInsertBatch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	base := uniqueRandom(r, 20_000, 1<<40)
	tr := New()
	if added := tr.InsertBatch(base, false); added != len(base) {
		t.Fatalf("added = %d, want %d", added, len(base))
	}
	batch := uniqueRandom(r, 10_000, 1<<40)
	present := map[uint64]bool{}
	for _, k := range base {
		present[k] = true
	}
	wantNew := 0
	for _, k := range batch {
		if !present[k] {
			wantNew++
			present[k] = true
		}
	}
	if added := tr.InsertBatch(batch, false); added != wantNew {
		t.Fatalf("added = %d, want %d", added, wantNew)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 0, len(present))
	for k := range present {
		want = append(want, k)
	}
	slices.Sort(want)
	if !slices.Equal(keys(tr), want) {
		t.Fatal("contents mismatch after batch insert")
	}
}

func TestRemoveBatch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	base := uniqueRandom(r, 20_000, 1<<40)
	tr := New()
	tr.InsertBatch(base, false)
	toRemove := append(slices.Clone(base[:10_000]), uniqueRandom(r, 500, 1<<20)...)
	present := map[uint64]bool{}
	for _, k := range base {
		present[k] = true
	}
	wantRemoved := 0
	for _, k := range toRemove {
		if present[k] {
			wantRemoved++
			delete(present, k)
		}
	}
	if got := tr.RemoveBatch(toRemove, false); got != wantRemoved {
		t.Fatalf("removed = %d, want %d", got, wantRemoved)
	}
	if tr.Len() != len(present) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(present))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMapRangeAndSums(t *testing.T) {
	var keys []uint64
	for i := 1; i <= 1000; i++ {
		keys = append(keys, uint64(i*3))
	}
	tr := fromSortedTree(keys)
	var got []uint64
	tr.MapRange(10, 31, func(v uint64) bool {
		got = append(got, v)
		return true
	})
	if !slices.Equal(got, []uint64{12, 15, 18, 21, 24, 27, 30}) {
		t.Fatalf("MapRange = %v", got)
	}
	sum, count := tr.RangeSum(10, 31)
	if sum != 12+15+18+21+24+27+30 || count != 7 {
		t.Fatalf("RangeSum = %d/%d", sum, count)
	}
	var want uint64
	for _, k := range keys {
		want += k
	}
	if tr.Sum() != want {
		t.Fatalf("Sum = %d, want %d", tr.Sum(), want)
	}
}

func TestSizeBytes(t *testing.T) {
	tr := fromSortedTree([]uint64{1, 2, 3, 4})
	if tr.SizeBytes() != 128 {
		t.Fatalf("SizeBytes = %d, want 128", tr.SizeBytes())
	}
}

func TestBatchPropertyAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New()
		ref := map[uint64]bool{}
		for round := 0; round < 5; round++ {
			batch := make([]uint64, 500+r.Intn(2000))
			for i := range batch {
				batch[i] = 1 + r.Uint64()%(1<<18)
			}
			if r.Intn(2) == 0 {
				tr.InsertBatch(batch, false)
				for _, k := range batch {
					ref[k] = true
				}
			} else {
				tr.RemoveBatch(batch, false)
				for _, k := range batch {
					delete(ref, k)
				}
			}
			if tr.Len() != len(ref) {
				return false
			}
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		want := make([]uint64, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		slices.Sort(want)
		return slices.Equal(keys(tr), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTreeHeightIsLogarithmic(t *testing.T) {
	// Sequential keys are the adversarial case for unbalanced BSTs; hashed
	// priorities must keep the treap shallow.
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	tr := fromSortedTree(keys)
	h := height(tr.root)
	if h > 4*17 { // ~ 4 log2(n) is a generous expected-case bound
		t.Fatalf("height %d too large for n=%d", h, len(keys))
	}
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	l, r := height(n.left), height(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
