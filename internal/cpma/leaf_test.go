package cpma

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/codec"
	"repro/internal/parallel"
)

// leafSet returns a CPMA of format f and lb-byte leaves whose leaf 0 holds
// keys, a sorted, duplicate-free run whose encoding fits the leaf, and
// whose other leaves are empty: a fixture for the leaf kernels.
func leafSet(f *format, lb int, keys []uint64) *CPMA {
	c := newFormat(f, &Options{LeafBytes: lb})
	if len(keys) > 0 {
		f.encode(c.leafW(0), keys)
		c.n = len(keys)
	}
	c.batchRecords()
	return c
}

// leafBytesFor returns the fixture leaf size for keys: the compressed
// minimum, or the smallest uncompressed leaf that holds them.
func leafBytesFor(f *format, keys []uint64) int {
	if !f.raw {
		return f.minLeafBytes
	}
	return max(f.minLeafBytes, int(bitutil.CeilPow2(uint64(8*len(keys)))))
}

// leafKeys returns what leaf 0 holds: its overflowed run if it has one,
// else its slab's run.
func leafKeys(c *CPMA) []uint64 {
	return c.f.decode(nil, c.leafRun(0), c.usedOf(0))
}

// checkKernels compares seek, walk, LeafMapPos, LeafMapFrom and the leaf
// splice on a leaf of format f holding keys (non-empty) against the
// DecodeRun/MergeDedup oracle, for every probe in xs. Seek and walk are
// the compressed format's; every splice runs on both formats.
func checkKernels(t *testing.T, f *format, keys []uint64, xs []uint64) {
	t.Helper()
	lb := leafBytesFor(f, keys)
	c := leafSet(f, lb, keys)
	ld, used := c.leafData(0), c.usedOf(0)
	if got := f.decode(nil, ld, used); !slices.Equal(got, keys) || used != f.size(keys) {
		t.Fatalf("fixture of %d bytes decodes to %v, want %d bytes of %v", used, got, f.size(keys), keys)
	}
	// end[i] is the offset just past key i's bytes.
	end := make([]int, len(keys))
	for i := range keys {
		end[i] = f.size(keys[:i+1])
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
	// Long probe lists splice at every probe near their ends and at every
	// 17th between, which keeps this quadratic differential quick while
	// the offsets still cycle through the three probes of a key and the
	// positions of an 8-byte load.
	stride := 1
	if len(xs) > 400 {
		stride = 17
	}
	for pi, x := range xs {
		j := sort.Search(len(keys), func(i int) bool { return keys[i] >= x })
		if !f.raw {
			checkSeek(t, ld, used, keys, end, x, j)
		}
		if got, want := c.leafHas(0, x), j < len(keys) && keys[j] == x; got != want {
			t.Fatalf("leafHas(%d) = %v, want %v", x, got, want)
		}
		if x == 0 || pi%stride != 0 && pi >= 48 && pi < len(xs)-48 {
			continue // 0 is reserved: never inserted or removed
		}
		// Runs starting at x: one to three keys from x on, and x with
		// keys at and after it, or their successors, which are many edit
		// points apart.
		near := func(k int, d uint64) []uint64 {
			run := []uint64{x}
			for _, v := range keys[j:min(j+k, len(keys))] {
				run = append(run, v+d)
			}
			return run
		}
		for _, sub := range [][]uint64{{x}, {x, x + 1}, {x, x + 1, x + 2}, near(2, 0), near(10, 0), near(10, 1)} {
			if sub = editRun(sub); len(sub) > 0 {
				checkEdit(t, f, lb, keys, sub, true)
				checkEdit(t, f, lb, keys, sub, false)
			}
		}
	}
	// Whole-leaf runs: every probe, every other key, every key.
	var alternate []uint64
	for i := 0; i < len(keys); i += 2 {
		alternate = append(alternate, keys[i])
	}
	for _, sub := range [][]uint64{editRun(xs), alternate, keys} {
		checkEdit(t, f, lb, keys, sub, true)
		checkEdit(t, f, lb, keys, sub, false)
	}
}

// checkSeek checks codec.Seek and codec.Walk on a compressed leaf holding
// keys, whose key i ends at end[i], for the probe x, whose first key at or
// above it is keys[j].
func checkSeek(t *testing.T, ld []byte, used int, keys []uint64, end []int, x uint64, j int) {
	t.Helper()
	prev, v, start, e := codec.Seek(ld, x)
	if j == len(keys) {
		last := keys[len(keys)-1]
		if prev != last || v != last || start != used || e != used {
			t.Fatalf("seek(%d) past the end = %d, %d, [%d, %d); want %d, %d, [%d, %d)",
				x, prev, v, start, e, last, last, used, used)
		}
		return
	}
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

// editRun returns the sorted, duplicate-free nonzero keys of sub, dropping
// the ones a successor wrapped to.
func editRun(sub []uint64) []uint64 {
	run := slices.DeleteFunc(slices.Clone(sub), func(k uint64) bool { return k == 0 })
	slices.Sort(run)
	return slices.Compact(run)
}

// checkEdit splices sub into (insert) or out of a leaf of format f and lb
// bytes holding keys, once on a private leaf and once on one shared with a
// Clone taken just before, and checks the result against the MergeDedup
// oracle: the keys the leaf holds, how many changed, the batch records (an
// overflowed merge parks its encoded run and leaves the slab as it was)
// and the bytes past the run. On the shared leaf the clone must still hold
// keys, and ChangedSince must report the leaf iff its slab was written.
func checkEdit(t *testing.T, f *format, lb int, keys, sub []uint64, insert bool) {
	t.Helper()
	want, n := parallel.MergeDedup(keys, sub)
	if !insert {
		want = slices.DeleteFunc(slices.Clone(keys), func(k uint64) bool {
			_, found := slices.BinarySearch(sub, k)
			return found
		})
		n = len(keys) - len(want)
	}
	size := f.size(want)
	for _, shared := range []bool{false, true} {
		op := func() string { return fmt.Sprintf("raw=%v insert=%v shared=%v %v", f.raw, insert, shared, sub) }
		c := leafSet(f, lb, keys)
		var h *CPMA
		if shared {
			h = c.Clone()
		}
		if got := c.spliceLeaf(0, sub, insert, c.buf); got != n {
			t.Fatalf("%s: changed %d keys, want %d", op(), got, n)
		}
		overflow := size > lb
		switch rec := int(c.sizes[0]); {
		case c.overflowed(0) != overflow:
			t.Fatalf("%s: overflowed %v, want %v (%d bytes)", op(), c.overflowed(0), overflow, size)
		case n > 0 && rec != size, n == 0 && rec != 0:
			t.Fatalf("%s: recorded size %d, want %d", op(), rec, size)
		case overflow:
			if !slices.Equal(leafKeys(c), want) {
				t.Fatalf("%s: overflowed run %v, want %v", op(), leafKeys(c), want)
			}
			if got := f.decode(nil, c.leafData(0), f.used(c.leafData(0))); !slices.Equal(got, keys) {
				t.Fatalf("%s: the overflowed leaf's slab holds %v, want its old %v", op(), got, keys)
			}
		default:
			checkLeaf(t, c, want, op)
		}
		if !shared {
			continue
		}
		if !slices.Equal(h.Keys(), keys) {
			t.Fatalf("%s: the clone holds %v, want %v", op(), h.Keys(), keys)
		}
		written := n > 0 && !overflow
		if all, leaves := c.ChangedSince(h.Gen()); all || slices.Equal(leaves, []int{0}) != written {
			t.Fatalf("%s: ChangedSince = %v, %v; want leaf 0 listed %v", op(), all, leaves, written)
		}
		if written && c.slabBytes != uint64(lb) || !written && c.slabBytes != 0 {
			t.Fatalf("%s: unshared %d slab bytes", op(), c.slabBytes)
		}
	}
}

// checkLeaf asserts leaf 0 of c holds exactly want, with matching derived
// size and count and zero bytes past its used bytes; op names the edit in
// a failure.
func checkLeaf(t *testing.T, c *CPMA, want []uint64, op func() string) {
	t.Helper()
	ld := c.leafData(0)
	u := c.f.used(ld)
	if got := c.f.decode(nil, ld, u); !slices.Equal(got, want) {
		t.Fatalf("%s leaves %v, want %v", op(), got, want)
	}
	if n := c.f.count(ld, u); n != len(want) || u != c.f.size(want) || u != c.usedOf(0) {
		t.Fatalf("%s: used %d (recorded %d) count %d, want %d %d", op(), u, c.usedOf(0), n, c.f.size(want), len(want))
	}
	for i, b := range ld[u:] {
		if b != 0 {
			t.Fatalf("%s left byte %d past used nonzero", op(), u+i)
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
// at a byte offset and the leaf splice of insert and remove runs against
// the DecodeRun and MergeDedup oracle, on the leaf shapes where an offset
// can go wrong, in both formats (the uncompressed ones in the smallest
// leaf that holds the run, so a run of a power-of-two size fills it).
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
		// Exactly the slack two inserts need, and one byte less: the
		// second may overflow.
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
		// 64 keys fill a 512-byte uncompressed leaf.
		"full-raw-64": runOfSize(1<<8, 64, func() uint64 { return 1 + uint64(r.Intn(1<<30)) }),
	}
	for name, keys := range cases {
		t.Run(name, func(t *testing.T) {
			if codec.SizeOfRun(keys) > lb {
				t.Fatalf("fixture is %d bytes, over the %d-byte leaf", codec.SizeOfRun(keys), lb)
			}
			checkKernels(t, compressed, keys, probes(keys))
		})
		t.Run("uncompressed/"+name, func(t *testing.T) {
			checkKernels(t, uncompressed, keys, probes(keys))
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
				want := f.size(keys)
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

// TestLeafEditAllocs pins the edit kernel's allocations. In both formats,
// a run of 1, 2, 3, 10 or 60 keys spliced into a private leaf and back out
// allocates nothing; into or out of a leaf shared with a Clone, the leaf's
// fresh slab is the only allocation. A merge that outgrows its slab, a
// full one taking one more key (compressed, a 10-byte delta), keeps the
// encoded merged run and records its size.
func TestLeafEditAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	keys := runOfSize(1<<20, 100, func() uint64 { return 4 })
	for _, f := range []*format{compressed, uncompressed} {
		for _, k := range []int{1, 2, 3, 10, 60} {
			sub := make([]uint64, k)
			for i := range sub {
				sub[i] = keys[i*len(keys)/k] + 1 + uint64(i%3)
			}
			c := leafSet(f, 2048, keys)
			if a := testing.AllocsPerRun(20, func() {
				if c.spliceLeaf(0, sub, true, c.buf) != k || c.spliceLeaf(0, sub, false, c.buf) != k {
					t.Fatalf("raw=%v: the %d-key round trip did not add and remove every key", f.raw, k)
				}
			}); a != 0 {
				t.Fatalf("raw=%v: %d-key insert+remove round trip on a private leaf: %v allocations, want 0", f.raw, k, a)
			}
			for _, insert := range []bool{true, false} {
				var h *CPMA
				share := func() {
					c.dropRecord(0)
					h = c.Clone()
					// Take the chunk back, so only the slab is shared.
					ch := *c.lf[0].Load()
					ch.gen = c.gen
					c.lf[0].Store(&ch)
				}
				edit := func() {
					if c.spliceLeaf(0, sub, insert, c.buf) != k {
						t.Fatalf("raw=%v insert=%v: the %d-key run did not change every key", f.raw, insert, k)
					}
				}
				if a := allocsAfter(share, edit); a != 1 || c.slabBytes != 2048 {
					t.Fatalf("raw=%v insert=%v: %d-key run on a shared leaf: %d allocations and %d slab bytes, want 1 and 2048",
						f.raw, insert, k, a, c.slabBytes)
				}
				if old, _ := parallel.MergeDedup(keys, sub); insert && !slices.Equal(h.Keys(), keys) || !insert && !slices.Equal(h.Keys(), old) {
					t.Fatalf("raw=%v insert=%v: the clone changed with its parent", f.raw, insert)
				}
			}
		}
		// The overflow: a full leaf takes one more key.
		full, x := fillTo(512, 1), ^uint64(0)
		if f.raw {
			full, x = runOfSize(1<<8, 64, func() uint64 { return 3 }), 1<<8+1
		}
		c := leafSet(f, 512, full)
		want, _ := parallel.MergeDedup(full, []uint64{x})
		enc := make([]byte, f.size(want))
		f.encode(enc, want)
		if added := c.spliceLeaf(0, []uint64{x}, true, c.buf); added != 1 || !bytes.Equal(c.overflow[0], enc) {
			t.Fatalf("raw=%v: overflowing merge added %d and parked %d bytes, want 1 and the %d-byte run",
				f.raw, added, len(c.overflow[0]), len(enc))
		}
		if c.usedOf(0) != len(enc) || len(enc) <= 512 {
			t.Fatalf("raw=%v: overflowing merge records used %d, want %d > 512", f.raw, c.usedOf(0), len(enc))
		}
	}
}

// allocsAfter returns how many allocations edit makes, run once after
// setup, whose own allocations are not counted.
func allocsAfter(setup, edit func()) uint64 {
	var before, after runtime.MemStats
	setup()
	runtime.ReadMemStats(&before)
	edit()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// FuzzLeafKernels runs the kernel differential on leaves of both formats
// built from arbitrary bytes: each byte pair (b, s) adds a delta
// 1 + b<<(s mod 57), so codes of every length appear, until the run would
// outgrow the minimum compressed leaf. x adds a probe to three fixed ones.
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
		xs := []uint64{x, keys[len(keys)/2], keys[len(keys)-1] + 1, head - 1}
		checkKernels(t, compressed, keys, xs)
		checkKernels(t, uncompressed, keys, xs)
	})
}
