package cpma

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/codec"
	"repro/internal/parallel"
)

// leafSet returns a compressed CPMA whose leaf 0 holds keys, a sorted,
// duplicate-free run whose encoding fits the minimum leaf, and whose other
// leaves are empty: a fixture for the leaf kernels.
func leafSet(keys []uint64) *CPMA {
	c := New(&Options{LeafBytes: compressed.minLeafBytes})
	if len(keys) > 0 {
		codec.EncodeRun(c.leafW(0), keys)
		c.n = len(keys)
	}
	c.batchRecords()
	return c
}

// leafKeys returns what leaf 0 holds: its overflow run if it has one,
// else its decoded bytes.
func leafKeys(c *CPMA) []uint64 {
	if ov := c.overflow[0]; ov != nil {
		return ov
	}
	return codec.DecodeRun(nil, c.leafData(0), c.usedOf(0))
}

// checkKernels compares seek, walk, LeafMapPos, LeafMapFrom, the point
// splices and the batch merge on a leaf holding keys (non-empty) against
// the DecodeRun/MergeDedup oracle, for every probe in xs.
func checkKernels(t *testing.T, keys []uint64, xs []uint64) {
	t.Helper()
	c := leafSet(keys)
	ld, used := c.leafData(0), c.usedOf(0)
	if got := codec.DecodeRun(nil, ld, used); !slices.Equal(got, keys) || used != codec.SizeOfRun(keys) {
		t.Fatalf("fixture of %d bytes decodes to %v, want %d bytes of %v", used, got, codec.SizeOfRun(keys), keys)
	}
	// end[i] is the offset just past key i's bytes.
	end := make([]int, len(keys))
	for i := range keys {
		end[i] = codec.SizeOfRun(keys[:i+1])
	}
	// LeafMapPos reports where each key starts, and LeafMapFrom resumes
	// there: from the whole previous key, or from its low 32 bits only.
	i := 0
	c.LeafMapPos(0, func(k uint64, off int) bool {
		if i == len(keys) {
			t.Fatalf("LeafMapPos visits more than the %d keys", len(keys))
		}
		start, prev := 0, uint64(0)
		if i > 0 {
			start, prev = end[i-1], keys[i-1]
		}
		if k != keys[i] || off != start {
			t.Fatalf("LeafMapPos key %d = %d at %d, want %d at %d", i, k, off, keys[i], start)
		}
		var rest, low []uint64
		c.LeafMapFrom(0, off, prev, func(v uint64) bool { rest = append(rest, v); return true })
		c.LeafMapFrom(0, off, uint64(uint32(prev)), func(v uint64) bool { low = append(low, v); return true })
		if !slices.Equal(rest, keys[i:]) {
			t.Fatalf("LeafMapFrom(%d) visits %v, want %v", off, rest, keys[i:])
		}
		if len(low) != len(rest) {
			t.Fatalf("LeafMapFrom(%d) from the low bits of %d visits %d keys, want %d", off, prev, len(low), len(rest))
		}
		for j, v := range low {
			if uint32(v) != uint32(keys[i+j]) {
				t.Fatalf("LeafMapFrom(%d) from the low bits of %d visits %d at %d, want low bits of %d",
					off, prev, v, j, keys[i+j])
			}
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("LeafMapPos visits %d keys, want %d", i, len(keys))
	}
	for _, x := range xs {
		j := sort.Search(len(keys), func(i int) bool { return keys[i] >= x })
		prev, v, start, e := codec.Seek(ld, x)
		switch {
		case j == len(keys):
			last := keys[len(keys)-1]
			if prev != last || v != last || start != used || e != used {
				t.Fatalf("seek(%d) past the end = %d, %d, [%d, %d); want %d, %d, [%d, %d)",
					x, prev, v, start, e, last, last, used, used)
			}
		default:
			wantPrev, wantStart := uint64(0), 0
			if j > 0 {
				wantPrev, wantStart = keys[j-1], end[j-1]
			}
			if prev != wantPrev || v != keys[j] || start != wantStart || e != end[j] {
				t.Fatalf("seek(%d) = %d, %d, [%d, %d); want %d, %d, [%d, %d)",
					x, prev, v, start, e, wantPrev, keys[j], wantStart, end[j])
			}
			var rest []uint64
			codec.Walk(ld, e, v, func(k uint64) bool { rest = append(rest, k); return true })
			if !slices.Equal(rest, keys[j+1:]) {
				t.Fatalf("walk after %d visits %v, want %v", v, rest, keys[j+1:])
			}
		}
		if got, want := c.leafHas(0, x), j < len(keys) && keys[j] == x; got != want {
			t.Fatalf("leafHas(%d) = %v, want %v", x, got, want)
		}
		if x == 0 {
			continue // reserved: never inserted or removed
		}
		// Point splices, on a leaf with the slack Insert guarantees.
		if used+c.f.slack <= c.LeafBytes() {
			d := leafSet(keys)
			want, fresh := parallel.MergeDedup(keys, []uint64{x})
			if u, ok := d.leafInsert(0, x, c.f.slack); ok != (fresh == 1) || u != codec.SizeOfRun(want) {
				t.Fatalf("leafInsert(%d) = %d, %v; want %d bytes, %v", x, u, ok, codec.SizeOfRun(want), fresh == 1)
			}
			checkLeaf(t, d, want, "leafInsert")
		}
		d := leafSet(keys)
		want := slices.DeleteFunc(slices.Clone(keys), func(k uint64) bool { return k == x })
		if got := d.leafRemove(0, x); (got >= 0) != (len(want) < len(keys)) || got >= 0 && got != codec.SizeOfRun(want) {
			t.Fatalf("leafRemove(%d) = %d", x, got)
		}
		checkLeaf(t, d, want, "leafRemove")
		// Batch merges of one and two keys, in place or not.
		for _, sub := range [][]uint64{{x}, {x, x + 1}} {
			if sub[len(sub)-1] < x {
				continue // x + 1 wrapped
			}
			d := leafSet(keys)
			want, fresh := parallel.MergeDedup(keys, sub)
			if added := d.mergeLeaf(0, sub); added != fresh {
				t.Fatalf("mergeLeaf(%v) added %d, want %d", sub, added, fresh)
			}
			if got := leafKeys(d); !slices.Equal(got, want) {
				t.Fatalf("mergeLeaf(%v) leaves %v, want %v", sub, got, want)
			}
			if d.usedOf(0) != codec.SizeOfRun(want) {
				t.Fatalf("mergeLeaf(%v): used %d, want %d", sub, d.usedOf(0), codec.SizeOfRun(want))
			}
		}
	}
}

// checkLeaf asserts leaf 0 of c holds exactly want, with matching derived
// size and count and zero bytes past its used bytes.
func checkLeaf(t *testing.T, c *CPMA, want []uint64, op string) {
	t.Helper()
	u := c.usedOf(0)
	if got := codec.DecodeRun(nil, c.leafData(0), u); !slices.Equal(got, want) {
		t.Fatalf("%s leaves %v, want %v", op, got, want)
	}
	if n := c.f.count(c.leafData(0), u); n != len(want) || u != codec.SizeOfRun(want) {
		t.Fatalf("%s: used %d count %d, want %d %d", op, u, n, codec.SizeOfRun(want), len(want))
	}
	for i, b := range c.leafData(0)[u:] {
		if b != 0 {
			t.Fatalf("%s left byte %d past used nonzero", op, u+i)
		}
	}
}

// probes returns the seek probes for a run: every key, its neighbors,
// and points below the head and past the last key.
func probes(keys []uint64) []uint64 {
	xs := []uint64{0, 1, keys[0] - 1, ^uint64(0)}
	for _, k := range keys {
		xs = append(xs, k, k-1, k+1)
	}
	return xs
}

// runOfSize returns n keys from head with deltas drawn from gen.
func runOfSize(head uint64, n int, gen func() uint64) []uint64 {
	keys := []uint64{head}
	for len(keys) < n {
		keys = append(keys, keys[len(keys)-1]+gen())
	}
	return keys
}

// fillTo returns a run whose encoding is exactly size bytes: a head, then
// one-byte deltas, then one delta of lastLen bytes. These are the
// leaf-edge shapes.
func fillTo(size, lastLen int) []uint64 {
	keys := []uint64{1 << 20}
	for i := 0; i < size-codec.HeadBytes-lastLen; i++ {
		keys = append(keys, keys[len(keys)-1]+1)
	}
	return append(keys, keys[len(keys)-1]+uint64(1)<<(7*(lastLen-1)))
}

// TestLeafKernels is the kernel differential: seek, walk, resuming a walk
// at a byte offset, the point splices and the one- and two-key batch
// merge against the DecodeRun and MergeDedup oracle, on the leaf shapes
// where an offset can go wrong.
func TestLeafKernels(t *testing.T) {
	lb := compressed.minLeafBytes
	slack := compressed.slack
	r := rand.New(rand.NewSource(5))
	cases := map[string][]uint64{
		"single-key":  {42},
		"two-keys":    {42, 1 << 40},
		"huge-deltas": {1, 1 << 20, 1 << 40, 1 << 62, 1<<63 + 5, ^uint64(0)},
		// The last code ends on the slab's last byte.
		"full-slab-1":  fillTo(lb, 1),
		"full-slab-3":  fillTo(lb, 3),
		"full-slab-10": fillTo(lb, 10),
		// Exactly the slack two in-place inserts need, and one byte less:
		// the second takes the decode-merge path (and may overflow).
		"slack-boundary-1": fillTo(lb-slack, 2),
		"slack-boundary-2": fillTo(lb-2*slack, 2),
		"slack-short-2":    fillTo(lb-2*slack+1, 2),
		"edge-keys": runOfSize(7<<32|3, 100, func() uint64 {
			if r.Intn(6) == 0 {
				return uint64(1+r.Intn(3)) << 32
			}
			return 1 + uint64(r.Intn(1<<15))
		}),
		"uniform-40": runOfSize(1+uint64(r.Intn(1<<20)), 120, func() uint64 { return 1 + uint64(r.Intn(1<<21)) }),
	}
	for name, keys := range cases {
		t.Run(name, func(t *testing.T) {
			if codec.SizeOfRun(keys) > lb {
				t.Fatalf("fixture is %d bytes, over the %d-byte leaf", codec.SizeOfRun(keys), lb)
			}
			checkKernels(t, keys, probes(keys))
		})
	}
	for _, name := range []string{"full-slab-1", "full-slab-3", "full-slab-10"} {
		if got := codec.SizeOfRun(cases[name]); got != lb {
			t.Fatalf("%s fixture is %d bytes, want %d", name, got, lb)
		}
	}
}

// TestDerivedLeafSize: in both formats, the used size and key count
// derived from a leaf's bytes equal the encoded size and length of the run
// it holds, on the shapes where the end is easy to misplace: zero bytes in
// the head, no terminator at all, a 10-byte code ending on the slab's last
// byte, and runs of every code length, in 256-byte, 512-byte and 1 MiB
// leaves.
func TestDerivedLeafSize(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, f := range []*format{compressed, uncompressed} {
		for _, lb := range []int{256, 512, 1 << 20} {
			runs := map[string][]uint64{
				"empty":      nil,
				"one-key":    {42},
				"head-1":     {1, 2},
				"head-1<<8":  {1 << 8},
				"head-1<<48": {1 << 48, 1<<48 + 1<<8},
				"mixed-codes": runOfSize(1, 20, func() uint64 {
					return 1 + uint64(1)<<r.Intn(63) // codes of 1 to 9 bytes
				}),
			}
			if f.raw {
				runs["full"] = runOfSize(1<<8, lb/8, func() uint64 { return 1 << 40 })
			} else {
				runs["full"] = fillTo(lb, 1)
				runs["full-10-byte-code-at-end"] = fillTo(lb, 10)
				runs["one-short-10-byte-code"] = fillTo(lb-1, 10)
			}
			for name, keys := range runs {
				want := f.runSize(keys)
				if want > lb {
					t.Fatalf("%s: fixture is %d bytes, over the %d-byte leaf", name, want, lb)
				}
				ld := make([]byte, lb)
				if len(keys) > 0 {
					f.encode(ld, keys)
				}
				if u, n := f.used(ld), f.count(ld, f.used(ld)); u != want || n != len(keys) {
					t.Fatalf("raw=%v %d-byte leaf %s: derived used %d, count %d; want %d, %d",
						f.raw, lb, name, u, n, want, len(keys))
				}
			}
		}
	}
}

// TestMergeLeafInPlace pins which path mergeLeaf takes: a run of at most
// inPlaceMerge keys that the leaf has slack for is spliced without
// allocating; without the slack it goes through the decode-merge path,
// and a merge that outgrows the leaf lands in the overflow buffer.
func TestMergeLeafInPlace(t *testing.T) {
	lb, slack := compressed.minLeafBytes, compressed.slack
	allocs := func(keys, sub []uint64) float64 {
		c := leafSet(keys)
		orig := slices.Clone(c.leafData(0))
		return testing.AllocsPerRun(5, func() {
			copy(c.leafW(0), orig)
			c.dropRecord(0)
			c.mergeLeaf(0, sub)
		})
	}
	two := []uint64{1<<20 + 1<<40, 1<<20 + 1<<41}
	if a := allocs(fillTo(lb-2*slack, 2), two); a != 0 {
		t.Fatalf("two keys into a leaf with exactly their slack: %v allocations, want 0", a)
	}
	if a := allocs(fillTo(lb-2*slack+1, 2), two); a == 0 {
		t.Fatal("two keys into a leaf a byte short of their slack took the in-place path")
	}
	if a := allocs(fillTo(lb-slack, 2), two[:1]); a != 0 {
		t.Fatalf("one key into a leaf with exactly its slack: %v allocations, want 0", a)
	}
	// The overflow fallback: a full slab cannot take a 10-byte delta.
	keys := fillTo(lb, 1)
	c := leafSet(keys)
	sub := []uint64{^uint64(0)}
	added := c.mergeLeaf(0, sub)
	want, _ := parallel.MergeDedup(keys, sub)
	if ov := c.overflow[0]; !slices.Equal(ov, want) || added != 1 {
		t.Fatalf("overflowing merge: overflow %d keys, added %d", len(ov), added)
	}
	if c.usedOf(0) != codec.SizeOfRun(want) || c.usedOf(0) <= lb {
		t.Fatalf("overflowing merge records used %d, want %d > %d", c.usedOf(0), codec.SizeOfRun(want), lb)
	}
}

// FuzzLeafKernels runs the kernel differential on leaves built from
// arbitrary bytes: each byte pair (b, s) adds a delta 1 + b<<(s mod 57),
// so codes of every length appear, until the run would outgrow the
// minimum leaf. x adds a probe to three fixed ones.
func FuzzLeafKernels(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0}, uint64(2))
	f.Add(uint64(7<<32|3), []byte{200, 10, 3, 0, 255, 56, 1, 32}, uint64(7<<32|4))
	f.Add(uint64(1)<<20, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint64(1)<<63)
	f.Fuzz(func(t *testing.T, head uint64, deltas []byte, x uint64) {
		if head == 0 {
			return
		}
		keys, size := []uint64{head}, codec.HeadBytes
		for i := 0; i+1 < len(deltas); i += 2 {
			d := 1 + uint64(deltas[i])<<(deltas[i+1]%57)
			next := keys[len(keys)-1] + d
			if size += codec.Len(d); next < d || size > compressed.minLeafBytes {
				break
			}
			keys = append(keys, next)
		}
		checkKernels(t, keys, []uint64{x, keys[len(keys)/2], keys[len(keys)-1] + 1, head - 1})
	})
}
