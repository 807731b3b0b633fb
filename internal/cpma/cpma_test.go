package cpma

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// formats lists both leaf formats. Every test that does not depend on the
// compressed byte codes runs on each, as a subtest named after the format.
var formats = []struct {
	name       string
	new        func(*Options) *CPMA
	fromSorted func([]uint64, *Options) *CPMA
	minLeaf    int
}{
	{"compressed", New, FromSorted, compressed.minLeafBytes},
	{"uncompressed", NewUncompressed, UncompressedFromSorted, uncompressed.minLeafBytes},
}

// eachFormat runs test once per leaf format.
func eachFormat(t *testing.T, test func(t *testing.T, newSet func(*Options) *CPMA)) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) { test(t, f.new) })
	}
}

// sortedUnion returns the sorted, duplicate-free union of a and b.
func sortedUnion(a, b []uint64) []uint64 {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

func checkAgainst(t *testing.T, c *CPMA, want []uint64) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if c.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(want))
	}
	got := c.Keys()
	if !slices.Equal(got, want) {
		t.Fatalf("contents mismatch: got %d keys, want %d", len(got), len(want))
	}
}

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

func TestEmpty(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		c := newSet(nil)
		if c.Len() != 0 || c.Has(42) {
			t.Fatal("empty set misbehaves")
		}
		if _, ok := c.Min(); ok {
			t.Fatal("Min on empty")
		}
		if _, ok := c.Next(1); ok {
			t.Fatal("Next on empty")
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPointInsertSmall(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		c := newSet(nil)
		keys := []uint64{5, 3, 9, 1, 7, 3, 5, 1 << 40, 1<<40 + 1}
		added := 0
		for _, k := range keys {
			if c.Insert(k) {
				added++
			}
		}
		if added != 7 {
			t.Fatalf("added = %d, want 7", added)
		}
		checkAgainst(t, c, []uint64{1, 3, 5, 7, 9, 1 << 40, 1<<40 + 1})
		if !c.Has(1<<40) || c.Has(2) || c.Has(10) {
			t.Fatal("membership wrong")
		}
	})
}

func TestPointInsertManyRandom(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(1))
		keys := uniqueRandom(r, 20_000, 1<<40)
		c := newSet(nil)
		for _, k := range keys {
			if !c.Insert(k) {
				t.Fatalf("Insert(%d) reported duplicate", k)
			}
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		checkAgainst(t, c, want)
		for _, k := range keys[:200] {
			if c.Insert(k) {
				t.Fatalf("duplicate insert of %d succeeded", k)
			}
		}
	})
}

func TestDenseSequentialInserts(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		c := newSet(nil)
		n := 60_000
		for i := 1; i <= n; i++ {
			c.Insert(uint64(i))
		}
		if c.Len() != n {
			t.Fatalf("Len = %d", c.Len())
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if v, _ := c.Max(); v != uint64(n) {
			t.Fatalf("Max = %d", v)
		}
		// Consecutive keys give 1-byte deltas: maximal compression stress
		// on the byte-budget redistribution, and the compression should be
		// dramatic, ~1 byte per element + heads.
		if c.f == compressed && c.SizeBytes() > uint64(4*n) {
			t.Fatalf("dense set uses %d bytes for %d elements", c.SizeBytes(), n)
		}
	})
}

func TestDescendingInserts(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		c := newSet(nil)
		n := 30_000
		for i := n; i >= 1; i-- {
			c.Insert(uint64(i) << 20)
		}
		if c.Len() != n {
			t.Fatalf("Len = %d", c.Len())
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if v, _ := c.Min(); v != 1<<20 {
			t.Fatalf("Min = %d", v)
		}
	})
}

func TestAscendingAndDescendingInserts(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		n := 50_000
		for _, tc := range []struct {
			name string
			key  func(i int) uint64
		}{
			{"ascending", func(i int) uint64 { return uint64(i + 1) }},
			{"descending", func(i int) uint64 { return uint64(n - i) }},
		} {
			t.Run(tc.name, func(t *testing.T) {
				c := newSet(nil)
				for i := 0; i < n; i++ {
					c.Insert(tc.key(i))
				}
				if c.Len() != n {
					t.Fatalf("Len = %d", c.Len())
				}
				if err := c.Validate(); err != nil {
					t.Fatal(err)
				}
				if v, _ := c.Min(); v != 1 {
					t.Fatalf("Min = %d", v)
				}
				if v, _ := c.Max(); v != uint64(n) {
					t.Fatalf("Max = %d", v)
				}
			})
		}
	})
}

func TestPointRemove(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(2))
		keys := uniqueRandom(r, 5000, 1<<34)
		c := newSet(nil)
		for _, k := range keys {
			c.Insert(k)
		}
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		var left []uint64
		for i, k := range sorted {
			if i%2 == 0 {
				if !c.Remove(k) {
					t.Fatalf("Remove(%d) failed", k)
				}
			} else {
				left = append(left, k)
			}
		}
		if c.Remove(sorted[0]) {
			t.Fatal("double remove succeeded")
		}
		if c.Remove(0) {
			t.Fatal("Remove(0) succeeded")
		}
		checkAgainst(t, c, left)
	})
}

func TestRemoveAllShrinks(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		c := newSet(nil)
		n := 30_000
		for i := 1; i <= n; i++ {
			c.Insert(uint64(i) * 1000)
		}
		grown := c.Capacity()
		for i := 1; i <= n; i++ {
			if !c.Remove(uint64(i) * 1000) {
				t.Fatalf("Remove failed at %d", i)
			}
		}
		if c.Len() != 0 {
			t.Fatalf("Len = %d", c.Len())
		}
		if c.Capacity() >= grown {
			t.Fatalf("capacity did not shrink: %d -> %d", grown, c.Capacity())
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestNextMinMax(t *testing.T) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			c := f.fromSorted([]uint64{10, 20, 30, 1 << 35}, nil)
			cases := []struct {
				x    uint64
				want uint64
				ok   bool
			}{
				{1, 10, true}, {10, 10, true}, {11, 20, true}, {31, 1 << 35, true}, {1<<35 + 1, 0, false},
			}
			for _, cse := range cases {
				got, ok := c.Next(cse.x)
				if got != cse.want || ok != cse.ok {
					t.Errorf("Next(%d) = (%d,%v), want (%d,%v)", cse.x, got, ok, cse.want, cse.ok)
				}
			}
			if v, _ := c.Min(); v != 10 {
				t.Errorf("Min = %d", v)
			}
			if v, _ := c.Max(); v != 1<<35 {
				t.Errorf("Max = %d", v)
			}
		})
	}
}

func TestFromSorted(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	keys := uniqueRandom(r, 12_345, 1<<40)
	slices.Sort(keys)
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) { checkAgainst(t, f.fromSorted(keys, nil), keys) })
	}
}

func TestMapRange(t *testing.T) {
	var keys []uint64
	for i := 1; i <= 2000; i++ {
		keys = append(keys, uint64(i*7))
	}
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			c := f.fromSorted(keys, nil)
			var got []uint64
			c.MapRange(70, 140, func(v uint64) bool {
				got = append(got, v)
				return true
			})
			var want []uint64
			for _, k := range keys {
				if k >= 70 && k < 140 {
					want = append(want, k)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("MapRange got %v, want %v", got, want)
			}
			calls := 0
			c.MapRange(0, ^uint64(0), func(uint64) bool {
				calls++
				return calls < 5
			})
			if calls != 5 {
				t.Fatalf("early exit after %d calls", calls)
			}
		})
	}
}

// TestBatchLargestKey: the largest key, 2^64-1, takes the batch merge and
// the batch remove into the last non-empty leaf like any other key. Both
// once split the batch at a "no next leaf" sentinel equal to that key: the
// insert panicked and the remove skipped it.
func TestBatchLargestKey(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		c := newSet(nil)
		var base []uint64
		for k := uint64(1000); k <= 20_000_000; k += 1000 {
			base = append(base, k)
		}
		c.InsertBatch(base, true)
		batch := []uint64{^uint64(0)}
		for k := uint64(5); len(batch) < 200; k += 100_000 {
			batch = append(batch, k)
		}
		c.InsertBatch(batch, false)
		checkAgainst(t, c, sortedUnion(base, batch))
		if removed := c.RemoveBatch(batch, false); removed != len(batch) {
			t.Fatalf("RemoveBatch removed %d of %d keys", removed, len(batch))
		}
		checkAgainst(t, c, base)
	})
}

// TestInsertBatchRMA checks the segment-at-a-time comparator of Table 4
// after every batch against a sorted model and against InsertBatch on a
// twin set: into an empty set, below the first head, at the largest key,
// with repeats within and across batches, and with segments that overflow
// a leaf, so that both a multi-leaf redistribution and a growth run.
func TestInsertBatchRMA(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		c, twin := newSet(nil), newSet(nil)
		var model []uint64
		step := func(name string, batch []uint64) {
			t.Helper()
			want := sortedUnion(model, batch)
			fresh := len(want) - len(model)
			if got := c.InsertBatchRMA(batch, false); got != fresh {
				t.Fatalf("%s: InsertBatchRMA added %d, want %d", name, got, fresh)
			}
			if got := twin.InsertBatch(batch, false); got != fresh {
				t.Fatalf("%s: InsertBatch added %d, want %d", name, got, fresh)
			}
			model = want
			checkAgainst(t, c, model)
			checkAgainst(t, twin, model)
		}
		step("nothing", nil)
		var base []uint64
		for i := uint64(1); i <= 1000; i++ {
			base = append(base, i<<32, i<<32) // repeats within the batch
		}
		step("empty set", base)
		step("below the first head", []uint64{1, 2, 3, 1<<32 - 1})
		step("largest key", []uint64{^uint64(0), 7 << 32, 1<<32 + 1})
		step("repeats across batches", append(slices.Clone(base[:300]), ^uint64(0), 5))
		var run []uint64
		for i := uint64(1); i <= 4000; i++ {
			run = append(run, 500<<32+i)
		}
		step("one overflowing segment", run)
		r := rand.New(rand.NewSource(1))
		for round := 0; round < 20; round++ {
			batch := make([]uint64, 100+r.Intn(2000))
			for i := range batch {
				batch[i] = 1 + r.Uint64()%(1<<42)
			}
			step(fmt.Sprintf("random %d", round), batch)
		}
		if multi, grows := c.Rebalances(); multi == 0 || grows == 0 {
			t.Fatalf("Rebalances() = %d multi-leaf, %d growths; want both", multi, grows)
		}
	})
}

// TestInsertBatchRMASkewedSegments sends a presorted run of 4000 keys into
// the one leaf that holds one key of a sparse base, so a single segment
// overflows its leaf and the comparator must grow or redistribute at once.
func TestInsertBatchRMASkewedSegments(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		var base []uint64
		for i := uint64(1); i <= 1000; i++ {
			base = append(base, i<<32)
		}
		c := newSet(nil)
		if added := c.InsertBatchRMA(base, true); added != len(base) {
			t.Fatalf("base added = %d, want %d", added, len(base))
		}
		var run []uint64
		for i := uint64(1); i <= 4000; i++ {
			run = append(run, base[500]+i)
		}
		if added := c.InsertBatchRMA(run, true); added != len(run) {
			t.Fatalf("run added = %d, want %d", added, len(run))
		}
		checkAgainst(t, c, sortedUnion(base, run))
	})
}

// TestInsertBatchRMAPropertyAgainstModel applies random batches drawn from a
// small key space, so most batches repeat keys within themselves and across
// earlier batches, and checks the set against a model after every batch.
func TestInsertBatchRMAPropertyAgainstModel(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			c := newSet(nil)
			var model []uint64
			for round := 0; round < 5; round++ {
				batch := make([]uint64, 100+r.Intn(2000))
				for i := range batch {
					batch[i] = 1 + r.Uint64()%(1<<20)
				}
				want := sortedUnion(model, batch)
				if c.InsertBatchRMA(batch, false) != len(want)-len(model) {
					return false
				}
				model = want
				if c.Validate() != nil || !slices.Equal(c.Keys(), model) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}

func TestSum(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(5))
		keys := uniqueRandom(r, 30_000, 1<<40)
		c := newSet(nil)
		c.InsertBatch(keys, false)
		var want uint64
		for _, k := range keys {
			want += k
		}
		if got := c.Sum(); got != want {
			t.Fatalf("Sum = %d, want %d", got, want)
		}
		small := newSet(nil)
		small.InsertBatch([]uint64{1, 2, 3, 4, 5, 100, 200}, true)
		if sum, count := small.RangeSum(2, 100); sum != 2+3+4+5 || count != 4 {
			t.Fatalf("RangeSum = %d/%d", sum, count)
		}
	})
}

// TestInsertBatchMatchesPMA is a differential between the two leaf
// formats: the compressed and uncompressed sets must report the same
// counts and hold exactly the same set after identical mixed batch
// workloads.
func TestInsertBatchMatchesPMA(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	c := New(nil)
	p := NewUncompressed(nil)
	for round := 0; round < 8; round++ {
		ins := make([]uint64, 3000)
		for i := range ins {
			ins[i] = 1 + r.Uint64()%(1<<22)
		}
		ca := c.InsertBatch(ins, false)
		pa := p.InsertBatch(ins, false)
		if ca != pa {
			t.Fatalf("round %d: added %d vs %d", round, ca, pa)
		}
		del := make([]uint64, 2000)
		for i := range del {
			del[i] = 1 + r.Uint64()%(1<<22)
		}
		cr := c.RemoveBatch(del, false)
		pr := p.RemoveBatch(del, false)
		if cr != pr {
			t.Fatalf("round %d: removed %d vs %d", round, cr, pr)
		}
		for _, s := range []*CPMA{c, p} {
			if err := s.Validate(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if c.Len() != p.Len() {
			t.Fatalf("round %d: Len %d vs %d", round, c.Len(), p.Len())
		}
	}
	if !slices.Equal(c.Keys(), p.Keys()) {
		t.Fatal("compressed and uncompressed sets disagree on final contents")
	}
}

func TestInsertBatchIntoEmpty(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(10))
		keys := uniqueRandom(r, 10_000, 1<<40)
		c := newSet(nil)
		if added := c.InsertBatch(keys, false); added != len(keys) {
			t.Fatalf("added = %d, want %d", added, len(keys))
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		checkAgainst(t, c, want)
	})
}

func TestInsertBatchSizesAgainstModel(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(11))
		base := uniqueRandom(r, 40_000, 1<<40)
		// 1..1000 take the three-phase merge, and 5000 and up (k >= n/10)
		// the rebuild merge.
		for _, bs := range []int{1, 7, 100, 101, 1000, 5000, 39_999} {
			t.Run(fmt.Sprintf("bs%d", bs), func(t *testing.T) {
				c := newSet(nil)
				if added := c.InsertBatch(base, false); added != len(base) {
					t.Fatalf("added %d of %d keys into an empty set", added, len(base))
				}
				batch := uniqueRandom(r, bs, 1<<40)
				want := sortedUnion(base, batch)
				if added := c.InsertBatch(batch, false); added != len(want)-len(base) {
					t.Fatalf("added = %d, want %d", added, len(want)-len(base))
				}
				checkAgainst(t, c, want)
			})
		}
	})
}

func TestInsertBatchTriggersRebuildMergePath(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(12))
		base := uniqueRandom(r, 10_000, 1<<40)
		batch := uniqueRandom(r, 9_000, 1<<40) // k ≈ n: full rebuild path
		c := newSet(nil)
		c.InsertBatch(base, false)
		c.InsertBatch(batch, false)
		checkAgainst(t, c, sortedUnion(base, batch))
	})
}

func TestInsertBatchWithManyDuplicates(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		c := newSet(nil)
		base := make([]uint64, 1000)
		for i := range base {
			base[i] = uint64(2 * (i + 1)) // evens
		}
		c.InsertBatch(base, true)
		// Batch: half already present, half odd (new), plus in-batch dups.
		batch := append([]uint64{}, base[:500]...)
		for i := 0; i < 500; i++ {
			batch = append(batch, uint64(2*i+1), uint64(2*i+1))
		}
		if added := c.InsertBatch(batch, false); added != 500 {
			t.Fatalf("added = %d, want 500", added)
		}
		if c.Len() != 1500 {
			t.Fatalf("Len = %d, want 1500", c.Len())
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInsertBatchSkewedToOneLeaf(t *testing.T) {
	// All batch keys land between two adjacent existing keys: the worst case
	// for a single leaf, exercising the overflow-buffer path (Figure 4).
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		c := newSet(nil)
		var base []uint64
		for i := 1; i <= 2000; i++ {
			base = append(base, uint64(i)<<32)
		}
		c.InsertBatch(base, true)
		var batch []uint64
		target := base[1000]
		for i := 1; i <= 5000; i++ {
			batch = append(batch, target+uint64(i))
		}
		if added := c.InsertBatch(batch, true); added != 5000 {
			t.Fatalf("added = %d", added)
		}
		checkAgainst(t, c, sortedUnion(base, batch))
	})
}

func TestInsertBatchAllSmallerThanExisting(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		c := newSet(nil)
		var base []uint64
		for i := 0; i < 3000; i++ {
			base = append(base, 1<<39+uint64(i)*64)
		}
		c.InsertBatch(base, true)
		var batch []uint64
		for i := 1; i <= 3000; i++ {
			batch = append(batch, uint64(i)*3)
		}
		c.InsertBatch(batch, true)
		checkAgainst(t, c, sortedUnion(base, batch))
	})
}

func TestBatchInsertPresortedFlag(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(16))
		keys := uniqueRandom(r, 5000, 1<<40)
		slices.Sort(keys)
		sorted := newSet(nil)
		sorted.InsertBatch(keys, true)
		shuffled := slices.Clone(keys)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		unsorted := newSet(nil)
		unsorted.InsertBatch(shuffled, false)
		if !slices.Equal(sorted.Keys(), unsorted.Keys()) {
			t.Fatal("sorted and unsorted insertion disagree")
		}
	})
}

func TestRemoveBatch(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(13))
		base := uniqueRandom(r, 30_000, 1<<40)
		c := newSet(nil)
		c.InsertBatch(base, false)
		sorted := slices.Clone(base)
		slices.Sort(sorted)
		present := map[uint64]bool{}
		for _, k := range sorted {
			present[k] = true
		}
		// Every third key, mixed with keys that are absent.
		var mixed []uint64
		for i := 0; i < len(sorted); i += 3 {
			mixed = append(mixed, sorted[i])
		}
		mixed = append(mixed, uniqueRandom(r, 1000, 1<<20)...)
		wantRemoved := 0
		for _, k := range mixed {
			if present[k] {
				wantRemoved++
				delete(present, k)
			}
		}
		if got := c.RemoveBatch(mixed, false); got != wantRemoved {
			t.Fatalf("RemoveBatch = %d, want %d", got, wantRemoved)
		}
		var want []uint64
		for _, k := range sorted {
			if present[k] {
				want = append(want, k)
			}
		}
		checkAgainst(t, c, want)
	})
}

func TestRemoveBatchEverything(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(7))
		base := uniqueRandom(r, 20_000, 1<<40)
		c := newSet(nil)
		c.InsertBatch(base, false)
		if got := c.RemoveBatch(base, false); got != len(base) {
			t.Fatalf("removed %d, want %d", got, len(base))
		}
		checkAgainst(t, c, nil)
	})
}

// TestSmallBatchAllocs pins the batch path's cost for a small batch: a
// sorted, distinct 2-key InsertBatch and the RemoveBatch that takes it
// back, into a leaf that stays within its density bounds, allocate
// nothing. The batch is used uncopied, the dirty list is the set's
// scratch, and the planner's callback is built only for a violation. The
// same keys unsorted cost one allocation per call: parallel.SortedSet's
// private copy, sorted in place below the radix sort's crossover. A point
// Insert+Remove round trip is a one-key batch in the set's own scratch and
// allocates nothing either.
func TestSmallBatchAllocs(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(18))
		c := newSet(nil)
		c.InsertBatch(uniqueRandom(r, 20_000, 1<<40), false)
		// A leaf at least a quarter full, with slack for two keys below
		// three quarters, takes two keys right after its head and gives
		// them back without breaking a bound.
		leaf := 0
		for u := c.usedOf(leaf); u < c.LeafBytes()/4 || u+2*c.f.slack > c.LeafBytes()*3/4; u = c.usedOf(leaf) {
			if leaf++; leaf == c.Leaves() {
				t.Fatal("no leaf has room for two keys")
			}
		}
		h := c.head(leaf)
		batch := []uint64{h + 1, h + 2}
		want := c.Keys()
		multi, grows := c.Rebalances()
		if a := testing.AllocsPerRun(100, func() {
			if c.InsertBatch(batch, true) != 2 || c.RemoveBatch(batch, true) != 2 {
				t.Fatal("the round trip did not add and remove both keys")
			}
		}); a != 0 {
			t.Fatalf("2-key InsertBatch+RemoveBatch round trip: %v allocations, want 0", a)
		}
		unsorted := []uint64{h + 2, h + 1}
		if a := testing.AllocsPerRun(100, func() {
			if c.InsertBatch(unsorted, false) != 2 || c.RemoveBatch(unsorted, false) != 2 {
				t.Fatal("the unsorted round trip did not add and remove both keys")
			}
		}); a != 2 {
			t.Fatalf("unsorted 2-key InsertBatch+RemoveBatch round trip: %v allocations, want 2", a)
		}
		if a := testing.AllocsPerRun(100, func() {
			if !c.Insert(h+1) || !c.Remove(h+1) {
				t.Fatal("the point round trip did not add and remove the key")
			}
		}); a != 0 {
			t.Fatalf("one-key Insert+Remove round trip: %v allocations, want 0", a)
		}
		if m, g := c.Rebalances(); m != multi || g != grows {
			t.Fatalf("the round trip rebalanced: multi-leaf %d -> %d, grows %d -> %d", multi, m, grows, g)
		}
		checkAgainst(t, c, want)
	})
}

func TestAlternatingBatchInsertDelete(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(15))
		c := newSet(nil)
		ref := map[uint64]bool{}
		for round := 0; round < 20; round++ {
			ins := uniqueRandom(r, 2000, 1<<24)
			c.InsertBatch(ins, false)
			for _, k := range ins {
				ref[k] = true
			}
			del := uniqueRandom(r, 1500, 1<<24)
			wantDel := 0
			for _, k := range del {
				if ref[k] {
					wantDel++
					delete(ref, k)
				}
			}
			if got := c.RemoveBatch(del, false); got != wantDel {
				t.Fatalf("round %d: removed %d, want %d", round, got, wantDel)
			}
			if c.Len() != len(ref) {
				t.Fatalf("round %d: Len %d, want %d", round, c.Len(), len(ref))
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	})
}

// TestBatchForkDeterminism pins batchRange's determinism contract: the
// dirty list, and so the plan and every leaf, does not depend on how the
// forked branches are scheduled. Twin sets get the same inserts and
// removes, batches below and above mergeForkGrain, clustered and spread,
// one twin at GOMAXPROCS 1 (no forks) and the other at 4. They must stay
// leaf-for-leaf identical, with equal rebalance counts.
func TestBatchForkDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(21))
		base := uniqueRandom(r, 100_000, 1<<40)
		serial, forked := newSet(nil), newSet(nil)
		apply := func(op func(c *CPMA) int) {
			runtime.GOMAXPROCS(1)
			a := op(serial)
			runtime.GOMAXPROCS(4)
			if b := op(forked); a != b {
				t.Fatalf("the twins changed %d and %d keys", a, b)
			}
		}
		apply(func(c *CPMA) int { return c.InsertBatch(base, false) })
		for round := 0; round < 6; round++ {
			for _, k := range []int{300, mergeForkGrain + 1000, 8000} {
				ins := uniqueRandom(r, k, 1<<40)
				apply(func(c *CPMA) int { return c.InsertBatch(ins, false) })
				// Remove k present keys: a contiguous run, which empties
				// leaves, or every (n/k)th key, plus as many absent ones.
				keys := serial.Keys()
				var del []uint64
				if round%2 == 0 {
					at := r.Intn(len(keys) - k)
					del = slices.Clone(keys[at : at+k])
				} else {
					for i := r.Intn(len(keys) / k); i < len(keys); i += len(keys) / k {
						del = append(del, keys[i])
					}
				}
				del = append(del, uniqueRandom(r, k, 1<<40)...)
				apply(func(c *CPMA) int { return c.RemoveBatch(del, false) })
				for leaf := 0; leaf < max(serial.Leaves(), forked.Leaves()); leaf++ {
					if serial.Leaves() != forked.Leaves() || !slices.Equal(serial.leafData(leaf), forked.leafData(leaf)) {
						t.Fatalf("round %d, %d-key batches: the twins differ at leaf %d of %d/%d",
							round, k, leaf, serial.Leaves(), forked.Leaves())
					}
				}
				sm, sg := serial.Rebalances()
				fm, fg := forked.Rebalances()
				if sm != fm || sg != fg {
					t.Fatalf("round %d, %d-key batches: rebalances %d/%d serial, %d/%d forked", round, k, sm, sg, fm, fg)
				}
			}
		}
		if m, _ := serial.Rebalances(); m == 0 {
			t.Fatal("no multi-leaf redistribution ran")
		}
		checkAgainst(t, forked, serial.Keys())
	})
}

func TestBatchPropertyAgainstModel(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			c := newSet(nil)
			ref := map[uint64]bool{}
			for round := 0; round < 6; round++ {
				n := 200 + r.Intn(3000)
				batch := make([]uint64, n)
				for i := range batch {
					batch[i] = 1 + r.Uint64()%(1<<20)
				}
				if r.Intn(2) == 0 {
					c.InsertBatch(batch, false)
					for _, k := range batch {
						ref[k] = true
					}
				} else {
					c.RemoveBatch(batch, false)
					for _, k := range batch {
						delete(ref, k)
					}
				}
				if c.Len() != len(ref) {
					return false
				}
			}
			if c.Validate() != nil {
				return false
			}
			got := c.Keys()
			want := make([]uint64, 0, len(ref))
			for k := range ref {
				want = append(want, k)
			}
			slices.Sort(want)
			return slices.Equal(got, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Error(err)
		}
	})
}

func TestPointOpsPropertyAgainstModel(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			c := newSet(nil)
			ref := map[uint64]bool{}
			for op := 0; op < 1500; op++ {
				k := 1 + r.Uint64()%400 // small key space forces collisions
				switch r.Intn(3) {
				case 0:
					if c.Insert(k) == ref[k] {
						return false
					}
					ref[k] = true
				case 1:
					if c.Remove(k) != ref[k] {
						return false
					}
					delete(ref, k)
				default:
					if c.Has(k) != ref[k] {
						return false
					}
				}
			}
			return c.Validate() == nil && c.Len() == len(ref)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}

func TestCompressionBeatsUncompressed(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	keys := uniqueRandom(r, 200_000, 1<<40) // paper's 40-bit uniform workload
	c := New(nil)
	p := NewUncompressed(nil)
	c.InsertBatch(keys, false)
	p.InsertBatch(keys, false)
	cs, ps := c.SizeBytes(), p.SizeBytes()
	if cs*2 > ps {
		t.Fatalf("CPMA %d bytes not ≥2x smaller than PMA %d bytes (paper Table 6)", cs, ps)
	}
	// At 200k keys in a 40-bit space the average delta needs a 4-byte code,
	// so ~6.5 B/elem is the expected figure (the paper's 4.77 B/elem is at
	// 1M keys where deltas fit 3 bytes).
	bytesPerElem := float64(cs) / float64(len(keys))
	if bytesPerElem > 7 {
		t.Fatalf("CPMA uses %.2f bytes/element on 40-bit uniform keys", bytesPerElem)
	}
}

func TestGrowingFactorAffectsCapacity(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		keys := make([]uint64, 50_000)
		for i := range keys {
			keys[i] = uint64(i+1) * 17
		}
		small := newSet(&Options{GrowthFactor: 1.1})
		big := newSet(&Options{GrowthFactor: 2.0})
		small.InsertBatch(keys, true)
		big.InsertBatch(keys, true)
		if small.Capacity() > big.Capacity() {
			t.Fatalf("growth 1.1 capacity %d > growth 2.0 capacity %d", small.Capacity(), big.Capacity())
		}
		for _, c := range []*CPMA{small, big} {
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestInsertZeroPanics(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on key 0")
			}
		}()
		newSet(nil).Insert(0)
	})
}

// TestLeafBytesOption runs each format at its smallest leaf size, which
// forces many redistributions and growths, and checks that an explicit
// leaf size survives every rebuild.
func TestLeafBytesOption(t *testing.T) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			c := f.new(&Options{LeafBytes: f.minLeaf, GrowthFactor: 1.3})
			if c.LeafBytes() != f.minLeaf {
				t.Fatalf("LeafBytes = %d", c.LeafBytes())
			}
			r := rand.New(rand.NewSource(17))
			ref := map[uint64]bool{}
			for round := 0; round < 10; round++ {
				batch := make([]uint64, 1000)
				for i := range batch {
					batch[i] = 1 + r.Uint64()%(1<<40)
				}
				c.InsertBatch(batch, false)
				for _, k := range batch {
					ref[k] = true
				}
				if err := c.Validate(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if c.LeafBytes() != f.minLeaf {
				t.Fatalf("LeafBytes changed to %d", c.LeafBytes())
			}
			if c.Len() != len(ref) {
				t.Fatalf("Len %d, want %d", c.Len(), len(ref))
			}
		})
	}
}

func TestHugeDeltasNearMaxUint(t *testing.T) {
	// Keys spread across the full 64-bit space: 10-byte codes everywhere.
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		keys := []uint64{1, 1 << 20, 1 << 40, 1 << 62, 1<<63 + 5, ^uint64(0)}
		c := newSet(nil)
		for _, k := range keys {
			c.Insert(k)
		}
		checkAgainst(t, c, keys)
		for _, k := range keys {
			if !c.Remove(k) {
				t.Fatalf("Remove(%d) failed", k)
			}
		}
		checkAgainst(t, c, nil)
	})
}

func TestZipfianBatchesRegression(t *testing.T) {
	// Regression: zipfian (scrambled hot-key) batches used to hit the
	// "batch elements with no target leaf range" panic when the median's
	// leaf was the leftmost of a recursion range but the sub-batch held
	// smaller keys.
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(99))
		c := newSet(nil)
		ref := map[uint64]bool{}
		for round := 0; round < 12; round++ {
			batch := make([]uint64, 1500)
			for i := range batch {
				// Heavy-tailed: many repeats of a few hot keys plus a spread.
				if r.Intn(3) == 0 {
					batch[i] = 1 + uint64(r.Intn(20))
				} else {
					batch[i] = 1 + r.Uint64()%(1<<34)
				}
			}
			c.InsertBatch(batch, false)
			for _, k := range batch {
				ref[k] = true
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if c.Len() != len(ref) {
			t.Fatalf("Len %d, want %d", c.Len(), len(ref))
		}
	})
}

// cloneEqual asserts that two CPMAs hold identical contents and that both
// pass the strict leaf invariants.
func cloneEqual(t *testing.T, a, b *CPMA) {
	t.Helper()
	if a.Len() != b.Len() || a.Sum() != b.Sum() {
		t.Fatalf("Len/Sum diverge: %d/%d vs %d/%d", a.Len(), a.Sum(), b.Len(), b.Sum())
	}
	if !slices.Equal(a.Keys(), b.Keys()) {
		t.Fatal("Keys diverge")
	}
	for _, c := range []*CPMA{a, b} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloneEquality(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(31))
		for _, n := range []int{0, 1, 100, 20000} {
			c := newSet(&Options{LeafBytes: 512})
			keys := uniqueRandom(r, n, 1<<30)
			c.InsertBatch(keys, false)
			d := c.Clone()
			cloneEqual(t, c, d)
			slices.Sort(keys)
			if !slices.Equal(d.Keys(), keys) {
				t.Fatalf("n=%d: clone contents wrong", n)
			}
		}
	})
}

// TestCloneIsolation: mutating the original — including through growth and
// shrink rebuilds that replace every internal array — must never change a
// previously taken clone, and mutating the clone must never change the
// original.
func TestCloneIsolation(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(32))
		c := newSet(&Options{LeafBytes: 512})
		c.InsertBatch(uniqueRandom(r, 5000, 1<<28), false)
		frozen := c.Clone()
		want := frozen.Keys()

		// Growth rebuilds: quadruple the original's contents.
		c.InsertBatch(uniqueRandom(r, 15000, 1<<28), false)
		if !slices.Equal(frozen.Keys(), want) {
			t.Fatal("growth rebuild of the original leaked into the clone")
		}
		if err := frozen.Validate(); err != nil {
			t.Fatalf("clone after original growth: %v", err)
		}

		// Shrink rebuilds: remove almost everything from the original.
		all := c.Keys()
		c.RemoveBatch(all[:len(all)-10], true)
		if !slices.Equal(frozen.Keys(), want) {
			t.Fatal("shrink rebuild of the original leaked into the clone")
		}

		// The clone is itself a live CPMA: mutate it through its own growth and
		// shrink rebuilds, then check the (tiny) original never noticed.
		origKeys := c.Keys()
		frozen.InsertBatch(uniqueRandom(r, 20000, 1<<28), false)
		if err := frozen.Validate(); err != nil {
			t.Fatalf("clone after its own growth: %v", err)
		}
		fk := frozen.Keys()
		frozen.RemoveBatch(fk[:len(fk)-20], true)
		if err := frozen.Validate(); err != nil {
			t.Fatalf("clone after its own shrink: %v", err)
		}
		if !slices.Equal(c.Keys(), origKeys) {
			t.Fatal("mutating the clone leaked into the original")
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCloneChain: clones of clones stay independent (each publication epoch
// in the sharded snapshot pipeline clones the same live set repeatedly).
func TestCloneChain(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(33))
		c := newSet(&Options{LeafBytes: 512})
		var snaps []*CPMA
		var wants [][]uint64
		for round := 0; round < 8; round++ {
			c.InsertBatch(uniqueRandom(r, 2000, 1<<26), false)
			c.RemoveBatch(uniqueRandom(r, 500, 1<<26), false)
			snaps = append(snaps, c.Clone())
			wants = append(wants, c.Keys())
		}
		for i, sn := range snaps {
			if !slices.Equal(sn.Keys(), wants[i]) {
				t.Fatalf("snapshot %d drifted", i)
			}
			if err := sn.Validate(); err != nil {
				t.Fatalf("snapshot %d: %v", i, err)
			}
		}
	})
}
