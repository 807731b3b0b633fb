package cpma

// COW-specific behavior: dirty-window handoff across clones, delta
// round-trips against those windows, and delta rejection on corrupt
// input. The structural isolation of clones (mutate either side through
// growth/shrink rebuilds, nothing leaks) lives in the TestClone* tests;
// here we pin down the bookkeeping the persist layer builds on.

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
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

// TestDirtyWindowHandoff: a clone's DirtySince window is exactly the
// parent's accumulated dirt since the previous clone, and Clone resets
// the parent's window.
func TestDirtyWindowHandoff(t *testing.T) {
	eachFormat(t, func(t *testing.T, newSet func(*Options) *CPMA) {
		r := rand.New(rand.NewSource(41))
		c := newSet(&Options{LeafBytes: 512, PointThreshold: 10})

		// A handle that never went through Clone reports unknown.
		if all, bits := c.DirtySince(); all || bits != nil {
			t.Fatalf("non-clone handle reported a window: all=%v bits=%v", all, bits)
		}

		c.InsertBatch(uniqueRandom(r, 5000, 1<<28), false)
		first := c.Clone()
		if all, _ := first.DirtySince(); !all {
			// The initial build is a rebuild: everything is dirty.
			t.Fatal("first clone after build should report all")
		}

		// No mutations between clones: the window must be empty, not all.
		second := c.Clone()
		if all, bits := second.DirtySince(); all || bits == nil || bits.Count() != 0 {
			t.Fatalf("idle window not empty: all=%v count=%v", all, bits)
		}

		// A small point mutation dirties at least the touched leaf, and far
		// fewer than all leaves at this size.
		k, _ := c.Min()
		c.Remove(k)
		c.Insert(k)
		third := c.Clone()
		all, bits := third.DirtySince()
		if all || bits == nil {
			t.Fatalf("point-mutation window reported all")
		}
		if n := bits.Count(); n == 0 || n >= c.Leaves() {
			t.Fatalf("point-mutation window covers %d of %d leaves", n, c.Leaves())
		}
	})
}

// TestDeltaRoundTripDifferential walks a mutation history, maintaining a
// shadow copy that advances only through serialized deltas (or full
// slabs when a rebuild dirtied everything). After every step the shadow
// must be indistinguishable from a fresh clone of the live set — the
// exact contract persist's delta checkpoints recover by.
func TestDeltaRoundTripDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	opts := &Options{LeafBytes: 512, PointThreshold: 10}
	c := New(opts)
	c.InsertBatch(uniqueRandom(r, 8000, 1<<26), false)

	_ = c.Clone() // open the first window
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
		all, bits := handle.DirtySince()
		if all || bits == nil {
			shadow = fullSlabCopy(t, handle, opts)
			fulls++
		} else {
			var buf bytes.Buffer
			want := handle.EncodedSize(bits.Indices())
			n, err := handle.WriteDeltaTo(&buf, bits.Indices())
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
	opts := &Options{LeafBytes: 512, PointThreshold: 10}
	c := New(opts)
	c.InsertBatch(uniqueRandom(r, 6000, 1<<26), false)
	_ = c.Clone()
	base := fullSlabCopy(t, c, opts)
	baseKeys := base.Keys()

	c.InsertBatch(uniqueRandom(r, 200, 1<<26), false)
	handle := c.Clone()
	all, bits := handle.DirtySince()
	if all {
		t.Fatal("small batch unexpectedly rebuilt")
	}
	var buf bytes.Buffer
	if _, err := handle.WriteDeltaTo(&buf, bits.Indices()); err != nil {
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
