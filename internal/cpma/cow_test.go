package cpma

// COW-specific behavior: the generation stamps behind ChangedSince across
// clone windows, what a Clone and its first writes copy, parallel
// unsharing of one chunk, delta round-trips against ChangedSince, and
// delta rejection on corrupt input. The structural isolation of clones
// (mutate either side through growth/shrink rebuilds, nothing leaks)
// lives in the TestClone* tests of cpma_test.go.

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// cloneEqualState asserts a and b hold identical key sets and both pass
// the strict validator.
func cloneEqualState(t *testing.T, a, b *CPMA, what string) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: Len %d vs %d", what, a.Len(), b.Len())
	}
	if a.Sum() != b.Sum() {
		t.Fatalf("%s: Sum mismatch", what)
	}
	if !slices.Equal(a.Keys(), b.Keys()) {
		t.Fatalf("%s: key sets differ", what)
	}
	for _, c := range []*CPMA{a, b} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

// checkWindow checks h.ChangedSince(prev.Gen()) for a window in which
// only h's parent was written: it reports all exactly when wantAll, and
// otherwise lists, in ascending order, exactly the leaves whose slab the
// window copied. The write gateway copies a shared slab on a leaf's first
// write after a Clone, so a new slab marks a leaf that went through it.
// Every leaf whose bytes or metadata differ must be listed. It returns
// the listed leaves.
func checkWindow(t *testing.T, what string, prev, h *CPMA, wantAll bool) []int {
	t.Helper()
	all, leaves := h.ChangedSince(prev.Gen())
	if all != wantAll {
		t.Fatalf("%s: ChangedSince all = %v, want %v", what, all, wantAll)
	}
	if all {
		return nil
	}
	if !slices.IsSorted(leaves) {
		t.Fatalf("%s: leaves not ascending: %v", what, leaves)
	}
	listed := make(map[int]bool, len(leaves))
	for _, leaf := range leaves {
		listed[leaf] = true
	}
	for i := 0; i < h.Leaves(); i++ {
		if copied := prev.leafSt(i).data != h.leafSt(i).data; copied != listed[i] {
			t.Fatalf("%s: leaf %d listed %v but its slab copied %v", what, i, listed[i], copied)
		}
		if !listed[i] && !bytes.Equal(prev.leafData(i), h.leafData(i)) {
			t.Fatalf("%s: leaf %d changed but is not listed", what, i)
		}
	}
	return leaves
}

// TestChangedSince walks a set through one kind of write per Clone
// window and checks each handle against its predecessor, then checks one
// handle against a handle several windows older: its list must be the
// union of the windows'. A rebuild reports all, and the window after it
// lists leaves again.
func TestChangedSince(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(41))
		c := newSet(&Options{LeafBytes: 512})
		c.InsertBatch(uniqueRandom(r, 5000, 1<<28), false)
		first := c.Clone()
		prev := first
		union := map[int]bool{}
		window := func(what string, wantAll bool, write func()) []int {
			t.Helper()
			write()
			for _, s := range []*CPMA{c, prev} {
				if err := s.Validate(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			h := c.Clone()
			leaves := checkWindow(t, what, prev, h, wantAll)
			for _, leaf := range leaves {
				union[leaf] = true
			}
			prev = h
			return leaves
		}

		if got := window("idle", false, func() {}); len(got) != 0 {
			t.Fatalf("idle window lists %v", got)
		}
		k, _ := c.Min()
		if got := window("point insert", false, func() { c.Insert(k + 1) }); len(got) == 0 {
			t.Fatal("point insert lists no leaf")
		}
		if got := window("point remove", false, func() { c.Remove(k + 1) }); len(got) == 0 {
			t.Fatal("point remove lists no leaf")
		}
		if got := window("duplicate insert and missing remove", false, func() {
			c.Insert(k)
			c.Remove(k + 1)
		}); len(got) != 0 {
			t.Fatalf("writes that changed nothing list %v", got)
		}
		window("batch merge", false, func() { c.InsertBatch(uniqueRandom(r, 200, 1<<28), false) })
		// A dense run into one leaf's span outgrows the leaf: the merge
		// parks it in the overflow buffer and a redistribution spreads it.
		multi, _ := c.Rebalances()
		window("overflowing leaf", false, func() {
			lo := c.head(c.Leaves() / 2)
			run := make([]uint64, 300)
			for i := range run {
				run[i] = lo + 1 + uint64(i)
			}
			c.InsertBatch(run, true)
		})
		if m, _ := c.Rebalances(); m == multi {
			t.Fatal("the dense run did not redistribute")
		}
		window("removal to empty", false, func() {
			leaf := c.Leaves() / 3
			var keys []uint64
			c.leafIter(leaf, func(v uint64) bool { keys = append(keys, v); return true })
			c.RemoveBatch(keys, true)
		})

		all, leaves := prev.ChangedSince(first.Gen())
		if all || len(leaves) != len(union) {
			t.Fatalf("across windows: all=%v, %d leaves, the windows listed %d", all, len(leaves), len(union))
		}
		for _, leaf := range leaves {
			if !union[leaf] {
				t.Fatalf("across windows: leaf %d listed but in no window", leaf)
			}
		}

		window("rebuild", true, func() { c.InsertBatch(uniqueRandom(r, c.Len(), 1<<28), false) })
		if got := window("point insert after rebuild", false, func() { c.Insert(k + 1) }); len(got) == 0 {
			t.Fatal("point insert after rebuild lists no leaf")
		}
	})
}

// TestLeafStateSize pins the spine's layout: a leaf is only its bytes, so
// its leafState is a slab pointer and a generation stamp, and a chunk copy
// is those for chunkLeaves leaves plus the chunk's 8-byte generation.
func TestLeafStateSize(t *testing.T) {
	if got := unsafe.Sizeof(leafState{}); got != 16 {
		t.Fatalf("leafState is %d bytes, want 16", got)
	}
	if chunkBytes != 1032 {
		t.Fatalf("chunkBytes = %d, want 1032", chunkBytes)
	}
}

// TestCloneCostPointInsert: one point insert after a Clone copies exactly
// one spine chunk (chunkBytes) and one leaf slab; the next Clone charges
// that plus its pointer table.
func TestCloneCostPointInsert(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(44))
		c := newSet(&Options{LeafBytes: 512})
		c.InsertBatch(uniqueRandom(r, 20000, 1<<40), false)
		_ = c.Clone()
		// The emptiest leaf takes one more key without a rebalance.
		leaf := 0
		for i := 1; i < c.Leaves(); i++ {
			if c.usedOf(i) < c.usedOf(leaf) {
				leaf = i
			}
		}
		multi, grows := c.Rebalances()
		if !c.Insert(c.head(leaf) + 1) {
			t.Fatal("insert found its key present")
		}
		if m, g := c.Rebalances(); m != multi || g != grows {
			t.Fatal("the insert rebalanced")
		}
		want := CloneBytes{
			Table: 8 * uint64(chunksFor(c.Leaves())),
			Spine: chunkBytes,
			Slab:  uint64(c.LeafBytes()),
		}
		if got := c.Clone().CloneCost(); got != want {
			t.Fatalf("CloneCost after one point insert = %+v, want %+v", got, want)
		}
	})
}

var cloneSink *CPMA

// TestCloneAllocs: Clone allocates the handle and its chunk-pointer table
// and nothing else, even when the parent's overflow spine is allocated.
func TestCloneAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	c := New(nil)
	c.InsertBatch(uniqueRandom(r, 50000, 1<<40), false)
	c.InsertBatch(uniqueRandom(r, 1000, 1<<40), false)
	if c.overflow == nil {
		t.Fatal("the batch merge left no overflow spine")
	}
	if a := testing.AllocsPerRun(50, func() { cloneSink = c.Clone() }); a != 2 {
		t.Fatalf("Clone made %v allocations, want 2", a)
	}
}

// TestCloneSharedChunkRace: right after a Clone, one parallel batch sends
// goroutines into disjoint leaves of the same shared chunks, where they
// race to install the chunk copies. The clone must stay bytewise
// unchanged and the parent must hold the model's keys. CI runs it under
// the race detector.
func TestCloneSharedChunkRace(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	c := New(&Options{LeafBytes: 512})
	want := uniqueRandom(r, 60000, 1<<40)
	c.InsertBatch(want, false)
	slices.Sort(want)
	for round := 0; round < 4; round++ {
		h := c.Clone()
		img := make([][]byte, h.Leaves())
		for i := range img {
			img[i] = bytes.Clone(h.leafData(i))
		}
		// Above mergeForkGrain keys, so the batch merge forks, spread over
		// the key span of chunk 1's leaves.
		lo, hi := c.head(c.firstNonEmptyIn(chunkLeaves, c.Leaves()-1)), c.head(c.firstNonEmptyIn(2*chunkLeaves, c.Leaves()-1))
		batch := make([]uint64, 3000)
		for i := range batch {
			batch[i] = lo + r.Uint64()%(hi-lo)
		}
		c.InsertBatch(batch, false)
		want = sortedUnion(want, batch)

		for i := range img {
			if !bytes.Equal(h.leafData(i), img[i]) {
				t.Fatalf("round %d: the clone's leaf %d changed", round, i)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !slices.Equal(c.Keys(), want) {
			t.Fatalf("round %d: parent keys differ from the model", round)
		}
	}
}

// TestDeltaRoundTripDifferential walks a mutation history, maintaining a
// shadow copy that advances only through serialized deltas (or full
// slabs when a rebuild dirtied everything). After every step the shadow
// must be indistinguishable from a fresh clone of the live set — the
// exact contract persist's delta checkpoints recover by.
func TestDeltaRoundTripDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	opts := &Options{LeafBytes: 512}
	c := New(opts)
	c.InsertBatch(uniqueRandom(r, 8000, 1<<26), false)

	prev := c.Clone() // open the first window
	shadow := fullSlabCopy(t, c, opts)
	fulls, deltas := 0, 0

	for round := 0; round < 30; round++ {
		switch round % 5 {
		case 0: // growth-sized batch (may rebuild)
			c.InsertBatch(uniqueRandom(r, 4000, 1<<26), false)
		case 1: // removals (may shrink-rebuild)
			all := c.Keys()
			r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			c.RemoveBatch(all[:len(all)/3], false)
		case 2: // clustered batch: a contiguous run hitting few leaves
			base := 1 + r.Uint64()%(1<<26)
			run := make([]uint64, 512)
			for i := range run {
				run[i] = base + uint64(i)
			}
			c.InsertBatch(run, true)
		case 3: // point ops
			for i := 0; i < 50; i++ {
				c.Insert(1 + r.Uint64()%(1<<26))
				c.Remove(1 + r.Uint64()%(1<<26))
			}
		case 4: // no-op round: empty window must round-trip too
		}

		handle := c.Clone()
		all, leaves := handle.ChangedSince(prev.Gen())
		prev = handle
		if all {
			shadow = fullSlabCopy(t, handle, opts)
			fulls++
		} else {
			var buf bytes.Buffer
			want := handle.EncodedSize(leaves)
			n, err := handle.WriteDeltaTo(&buf, leaves)
			if err != nil {
				t.Fatalf("round %d: WriteDeltaTo: %v", round, err)
			}
			if uint64(n) != want || uint64(buf.Len()) != want {
				t.Fatalf("round %d: wrote %d bytes, EncodedSize said %d", round, n, want)
			}
			if err := shadow.ApplyDeltaFrom(&buf); err != nil {
				t.Fatalf("round %d: ApplyDeltaFrom: %v", round, err)
			}
			deltas++
		}
		cloneEqualState(t, shadow, handle, "shadow after delta")
	}
	if fulls == 0 || deltas == 0 {
		t.Fatalf("walk not exercising both paths: %d full, %d delta", fulls, deltas)
	}
}

func fullSlabCopy(t *testing.T, c *CPMA, opts *Options) *CPMA {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	s, err := ReadFrom(&buf, opts)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	return s
}

// TestDeltaCorruptionRejected: any single corrupted byte in a delta
// stream must be rejected, and a failed apply must leave the receiver
// exactly as it was.
func TestDeltaCorruptionRejected(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	opts := &Options{LeafBytes: 512}
	c := New(opts)
	c.InsertBatch(uniqueRandom(r, 6000, 1<<26), false)
	prev := c.Clone()
	base := fullSlabCopy(t, c, opts)
	baseKeys := base.Keys()

	c.InsertBatch(uniqueRandom(r, 200, 1<<26), false)
	handle := c.Clone()
	all, leaves := handle.ChangedSince(prev.Gen())
	if all {
		t.Fatal("small batch unexpectedly rebuilt")
	}
	var buf bytes.Buffer
	if _, err := handle.WriteDeltaTo(&buf, leaves); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, off := range []int{0, 9, 13, 20, 33, len(good) / 2, len(good) - 3, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x5a
		if err := base.ApplyDeltaFrom(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
		if !slices.Equal(base.Keys(), baseKeys) {
			t.Fatalf("failed apply at offset %d mutated the receiver", off)
		}
	}
	// Truncations, including cutting the CRC itself.
	for _, cut := range []int{0, 1, len(good) / 3, len(good) - 1} {
		if err := base.ApplyDeltaFrom(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if !slices.Equal(base.Keys(), baseKeys) {
		t.Fatal("failed applies mutated the receiver")
	}

	// The intact stream still applies.
	if err := base.ApplyDeltaFrom(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact delta rejected after corruption attempts: %v", err)
	}
	cloneEqualState(t, base, handle, "base after intact apply")
}
