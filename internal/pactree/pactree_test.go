package pactree

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

// keys collects the tree's keys in ascending order.
func keys(tr *Tree) []uint64 {
	var out []uint64
	tr.Map(func(v uint64) bool {
		out = append(out, v)
		return true
	})
	return out
}

// fromSorted builds a tree over sorted, duplicate-free keys: a sorted
// batch into an empty tree is one balanced build.
func fromSorted(keys []uint64, opts *Options) *Tree {
	tr := New(opts)
	tr.InsertBatch(keys, true)
	return tr
}

func bothVariants(t *testing.T, f func(t *testing.T, opts *Options)) {
	t.Run("U-PaC", func(t *testing.T) { f(t, &Options{Compressed: false}) })
	t.Run("C-PaC", func(t *testing.T) { f(t, &Options{Compressed: true}) })
}

func TestEmpty(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts *Options) {
		tr := New(opts)
		if tr.Len() != 0 || len(keys(tr)) != 0 || tr.Sum() != 0 {
			t.Fatal("empty tree misbehaves")
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFromSortedRoundTrip(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts *Options) {
		r := rand.New(rand.NewSource(1))
		for _, n := range []int{1, 2, 255, 256, 257, 10_000} {
			want := uniqueRandom(r, n, 1<<40)
			slices.Sort(want)
			tr := fromSorted(want, opts)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if !slices.Equal(keys(tr), want) {
				t.Fatalf("n=%d: round trip mismatch", n)
			}
		}
	})
}

func TestInsertBatchAgainstModel(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts *Options) {
		r := rand.New(rand.NewSource(2))
		base := uniqueRandom(r, 30_000, 1<<40)
		tr := New(opts)
		if added := tr.InsertBatch(base, false); added != len(base) {
			t.Fatalf("added = %d", added)
		}
		batch := uniqueRandom(r, 15_000, 1<<40)
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
			t.Fatal("contents mismatch")
		}
	})
}

func TestRemoveBatch(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts *Options) {
		r := rand.New(rand.NewSource(3))
		base := uniqueRandom(r, 20_000, 1<<40)
		tr := New(opts)
		tr.InsertBatch(base, false)
		del := append(slices.Clone(base[:12_000]), uniqueRandom(r, 300, 1<<16)...)
		present := map[uint64]bool{}
		for _, k := range base {
			present[k] = true
		}
		wantRemoved := 0
		for _, k := range del {
			if present[k] {
				wantRemoved++
				delete(present, k)
			}
		}
		if got := tr.RemoveBatch(del, false); got != wantRemoved {
			t.Fatalf("removed = %d, want %d", got, wantRemoved)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(present) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(present))
		}
	})
}

func TestRemoveEverything(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts *Options) {
		r := rand.New(rand.NewSource(4))
		base := uniqueRandom(r, 5000, 1<<40)
		tr := New(opts)
		tr.InsertBatch(base, false)
		if got := tr.RemoveBatch(base, false); got != len(base) {
			t.Fatalf("removed %d", got)
		}
		if tr.Len() != 0 || tr.root != nil {
			t.Fatal("tree not empty")
		}
	})
}

func TestMapRangeAndNext(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts *Options) {
		var want []uint64
		for i := 1; i <= 3000; i++ {
			want = append(want, uint64(i*5))
		}
		tr := fromSorted(want, opts)
		var got []uint64
		tr.MapRange(21, 51, func(v uint64) bool {
			got = append(got, v)
			return true
		})
		if !slices.Equal(got, []uint64{25, 30, 35, 40, 45, 50}) {
			t.Fatalf("MapRange = %v", got)
		}
		// next is the successor query as a MapRange that stops at its
		// first key: the early exit must end the walk across blocks.
		next := func(x uint64) (res uint64, ok bool) {
			calls := 0
			tr.MapRange(x, ^uint64(0), func(v uint64) bool {
				calls++
				res, ok = v, true
				return false
			})
			if calls > 1 {
				t.Fatalf("MapRange from %d went on after f returned false", x)
			}
			return res, ok
		}
		if v, ok := next(22); !ok || v != 25 {
			t.Fatalf("next(22) = %d,%v", v, ok)
		}
		if v, ok := next(15000); !ok || v != 15000 {
			t.Fatalf("next(15000) = %d,%v", v, ok)
		}
		if _, ok := next(15001); ok {
			t.Fatal("next past max should fail")
		}
	})
}

func TestSum(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts *Options) {
		r := rand.New(rand.NewSource(5))
		keys := uniqueRandom(r, 30_000, 1<<40)
		tr := New(opts)
		tr.InsertBatch(keys, false)
		var want uint64
		for _, k := range keys {
			want += k
		}
		if got := tr.Sum(); got != want {
			t.Fatalf("Sum = %d, want %d", got, want)
		}
	})
}

func TestCompressedSmallerThanUncompressed(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	keys := uniqueRandom(r, 100_000, 1<<40)
	u := New(&Options{Compressed: false})
	c := New(&Options{Compressed: true})
	u.InsertBatch(keys, false)
	c.InsertBatch(keys, false)
	if c.SizeBytes() >= u.SizeBytes() {
		t.Fatalf("C-PaC %d bytes >= U-PaC %d bytes", c.SizeBytes(), u.SizeBytes())
	}
	perElem := float64(u.SizeBytes()) / float64(len(keys))
	if perElem < 8 || perElem > 10 {
		t.Fatalf("U-PaC %.2f bytes/elem outside the ~8.1 paper range", perElem)
	}
}

func TestBatchPropertyAgainstModel(t *testing.T) {
	f := func(seed int64, compressed bool) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(&Options{Compressed: compressed, BlockMax: 64})
		ref := map[uint64]bool{}
		for round := 0; round < 5; round++ {
			batch := make([]uint64, 300+r.Intn(2000))
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
			if tr.CheckInvariants() != nil {
				return false
			}
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

func TestDepthStaysLogarithmic(t *testing.T) {
	keys := make([]uint64, 1<<17)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	tr := New(nil)
	// Insert in adversarial ascending order in many batches.
	for i := 0; i < len(keys); i += 1 << 12 {
		tr.InsertBatch(keys[i:i+1<<12], true)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d := depth(tr.root)
	if d > 40 {
		t.Fatalf("depth %d too large", d)
	}
}

func depth(n *node) int {
	if n == nil {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
