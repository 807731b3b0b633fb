package parallel_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/workload"
)

// sortedSetInputs are the key shapes SortedSet is checked and timed on,
// each a function of (seed, n) returning n nonzero keys.
var sortedSetInputs = []struct {
	name string
	gen  func(seed uint64, n int) []uint64
}{
	{"uniform40", func(seed uint64, n int) []uint64 {
		return workload.Uniform(workload.NewRNG(seed), n, workload.UniformBits)
	}},
	{"full64", func(seed uint64, n int) []uint64 {
		r := workload.NewRNG(seed)
		out := make([]uint64, n)
		for i := range out {
			out[i] = r.Uint64() | 1<<63
		}
		return out
	}},
	{"one-byte", func(seed uint64, n int) []uint64 {
		// Only byte 3 varies, so the radix sort runs one pass.
		r := workload.NewRNG(seed)
		out := make([]uint64, n)
		for i := range out {
			out[i] = 0x1234_5678_0012_3456 | uint64(r.Intn(256))<<24
		}
		return out
	}},
	{"descending", func(seed uint64, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = seed<<32 | uint64(n-i)
		}
		return out
	}},
	{"all-equal", func(seed uint64, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = seed + 1
		}
		return out
	}},
	{"rmat", func(seed uint64, n int) []uint64 {
		// EdgeKeys drops the edge (0,0), so top up to n keys.
		r := workload.NewRNG(seed)
		out := workload.EdgeKeys(workload.RMAT(r, n, 20, workload.DefaultRMAT()))
		for len(out) < n {
			out = append(out, workload.EdgeKeys(workload.RMAT(r, n-len(out), 20, workload.DefaultRMAT()))...)
		}
		return out
	}},
	{"zipf", func(seed uint64, n int) []uint64 {
		z := workload.NewZipf(workload.NewRNG(seed), workload.ZipfBits, workload.ZipfTheta)
		return workload.ZipfBatch(z, n)
	}},
}

// sortedSetOracle is the reference: sort, then drop adjacent repeats.
func sortedSetOracle(keys []uint64) []uint64 {
	return slices.Compact(slices.Sorted(slices.Values(keys)))
}

// checkUnsorted runs SortedSet on an unsorted batch and checks it against
// the oracle, that keys is untouched, and that the result is not keys.
func checkUnsorted(t *testing.T, keys []uint64) {
	t.Helper()
	in := slices.Clone(keys)
	got := parallel.SortedSet(keys, false)
	if want := sortedSetOracle(in); !slices.Equal(got, want) {
		t.Fatalf("%d keys: got %d distinct keys, want %d", len(keys), len(got), len(want))
	}
	if !slices.Equal(keys, in) {
		t.Fatalf("%d keys: input mutated", len(keys))
	}
	if len(got) > 0 && &got[0] == &keys[0] {
		t.Fatalf("%d keys: an unsorted batch came back uncopied", len(keys))
	}
}

func TestSortedSet(t *testing.T) {
	sizes := []int{0, 1, 2, parallel.RadixMin - 1, parallel.RadixMin, parallel.RadixMin + 1, 25_000, 100_000}
	for _, in := range sortedSetInputs {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", in.name, n), func(t *testing.T) {
				checkUnsorted(t, in.gen(uint64(n)+1, n))
			})
		}
	}

	// Batches whose keys collide in the repeat filter's table, so evicted
	// keys come back and only the final Compact removes them.
	t.Run("repeat-filter", func(t *testing.T) {
		r := workload.NewRNG(5)
		for trial := 0; trial < 200; trial++ {
			keys := make([]uint64, r.Intn(5000))
			for i := range keys {
				switch r.Intn(3) {
				case 0: // a small hot set
					keys[i] = 1 + uint64(r.Intn(8))
				case 1: // many more distinct keys than table slots
					keys[i] = 1 + uint64(r.Intn(1<<14))
				default:
					keys[i] = 1 + r.Uint64()>>1
				}
			}
			checkUnsorted(t, keys)
		}
	})

	t.Run("sorted-repeats", func(t *testing.T) {
		keys := sortedSetInputs[0].gen(9, 3000)
		for i := 0; i < len(keys); i += 7 {
			keys[i] = keys[i/2]
		}
		slices.Sort(keys)
		in := slices.Clone(keys)
		got := parallel.SortedSet(keys, true)
		if !slices.Equal(got, sortedSetOracle(in)) {
			t.Fatal("a sorted batch with repeats was not deduplicated")
		}
		if !slices.Equal(keys, in) {
			t.Fatal("input mutated")
		}
		if &got[0] == &keys[0] {
			t.Fatal("a sorted batch with repeats came back uncopied")
		}
	})

	t.Run("sorted-increasing", func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 3000} {
			keys := sortedSetOracle(sortedSetInputs[0].gen(10, n))
			got := parallel.SortedSet(keys, true)
			if len(got) != len(keys) || (n > 0 && &got[0] != &keys[0]) {
				t.Fatalf("%d keys: a strictly increasing batch was copied", n)
			}
		}
	})

	t.Run("key-0", func(t *testing.T) {
		for _, c := range []struct {
			keys   []uint64
			sorted bool
		}{
			{[]uint64{0}, true},
			{[]uint64{0, 1, 2}, true},
			{[]uint64{0, 0, 1}, true},
			{[]uint64{0}, false},
			{[]uint64{5, 0, 3}, false},
			{append(sortedSetInputs[0].gen(11, 5000), 0), false},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d keys (sorted %v) holding key 0: no panic", len(c.keys), c.sorted)
					}
				}()
				parallel.SortedSet(c.keys, c.sorted)
			}()
		}
	})
}

// FuzzSortedSet checks both paths against the oracle. The batch is
// n keys (rand & mask) | base from a xorshift stream seeded by seed, so
// mask picks which digits vary and how often keys repeat, followed by the
// 8-byte words of extra.
func FuzzSortedSet(f *testing.F) {
	f.Add(uint64(1), uint16(10), uint64(0xff), uint64(1), []byte{})
	f.Add(uint64(2), uint16(3000), uint64(1)<<40-1, uint64(0), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(3), uint16(parallel.RadixMin), uint64(0xff00ff00), uint64(1)<<63, []byte{})
	f.Add(uint64(4), uint16(5000), ^uint64(0), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, mask, base uint64, extra []byte) {
		keys := make([]uint64, 0, int(n)+len(extra)/8)
		x := seed | 1
		for range int(n) {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys = append(keys, x&mask|base)
		}
		for i := 0; i+8 <= len(extra); i += 8 {
			var w uint64
			for j := 7; j >= 0; j-- {
				w = w<<8 | uint64(extra[i+j])
			}
			keys = append(keys, w)
		}
		zero := slices.Contains(keys, 0)
		sorted := slices.Sorted(slices.Values(keys))
		want := slices.Compact(slices.Clone(sorted))
		for _, path := range []struct {
			keys   []uint64
			sorted bool
		}{{keys, false}, {sorted, true}} {
			func() {
				defer func() {
					if r := recover(); (r != nil) != zero {
						t.Fatalf("sorted %v: panic %v with key 0 present %v", path.sorted, r, zero)
					}
				}()
				got := parallel.SortedSet(path.keys, path.sorted)
				if !slices.Equal(got, want) {
					t.Fatalf("sorted %v: %d keys, want %d", path.sorted, len(got), len(want))
				}
			}()
		}
	})
}

// BenchmarkSortedSet times SortedSet on unsorted batches of each size and
// key shape, as the batch updates call it.
func BenchmarkSortedSet(b *testing.B) {
	for _, n := range []int{250, 1000, 25_000, 100_000, 1_000_000} {
		for _, in := range sortedSetInputs {
			switch in.name {
			case "uniform40", "rmat", "zipf":
			default:
				continue
			}
			b.Run(fmt.Sprintf("%d/%s", n, in.name), func(b *testing.B) {
				keys := in.gen(1, n)
				b.SetBytes(int64(8 * n))
				b.ReportAllocs()
				for b.Loop() {
					parallel.SortedSet(keys, false)
				}
			})
		}
	}
}

// BenchmarkSortedSetSorted times SortedSet on caller-sorted batches, the
// path every mailbox apply and CPMA point update takes: sorted uniform
// 40-bit keys, strictly increasing (checked and used uncopied) or with
// every fourth key repeating its predecessor (copied without the repeats).
// A one-key batch cannot repeat, so it is timed increasing only.
func BenchmarkSortedSetSorted(b *testing.B) {
	for _, n := range []int{1, 250, 1000, 25_000} {
		for _, shape := range []string{"increasing", "repeats"} {
			if n == 1 && shape == "repeats" {
				continue
			}
			b.Run(fmt.Sprintf("%d/%s", n, shape), func(b *testing.B) {
				keys := parallel.SortedSet(workload.Uniform(workload.NewRNG(1), n+n/2, workload.UniformBits), false)[:n]
				if shape == "repeats" {
					for i := 3; i < n; i += 4 {
						keys[i] = keys[i-1]
					}
				}
				b.SetBytes(int64(8 * n))
				b.ReportAllocs()
				for b.Loop() {
					parallel.SortedSet(keys, true)
				}
			})
		}
	}
}
