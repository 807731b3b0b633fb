package codec

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLen(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 1}, {1, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3},
		{1 << 21, 4}, {(1 << 21) - 1, 3}, {1<<63 - 1, 9}, {1 << 63, 10}, {^uint64(0), 10},
	}
	for _, c := range cases {
		if got := Len(c.v); got != c.want {
			t.Errorf("Len(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	var buf [MaxLen]byte
	f := func(v uint64) bool {
		n := Put(buf[:], v)
		if n != Len(v) {
			return false
		}
		got, m := Get(buf[:])
		return got == v && m == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNoZeroBytesForPositiveValues(t *testing.T) {
	var buf [MaxLen]byte
	f := func(v uint64) bool {
		if v == 0 {
			v = 1
		}
		n := Put(buf[:], v)
		for _, b := range buf[:n] {
			if b == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randRun(r *rand.Rand, n int) []uint64 {
	set := map[uint64]bool{}
	for len(set) < n {
		set[1+r.Uint64()%(1<<40)] = true
	}
	out := make([]uint64, 0, n)
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func TestEncodeDecodeRun(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 50, 1000} {
		run := randRun(r, n)
		size := SizeOfRun(run)
		buf := make([]byte, size)
		if got := EncodeRun(buf, run); got != size {
			t.Fatalf("EncodeRun wrote %d, SizeOfRun said %d", got, size)
		}
		back := DecodeRun(nil, buf, size)
		if !slices.Equal(back, run) {
			t.Fatalf("n=%d round trip mismatch", n)
		}
		if got := CountRun(buf, size); got != n {
			t.Fatalf("CountRun = %d, want %d", got, n)
		}
		// The run's size is derived from the zero bytes after it, or is
		// the whole buffer when none follow.
		padded := append(slices.Clone(buf), make([]byte, 9)...)
		if RunUsed(buf) != size || RunUsed(padded) != size {
			t.Fatalf("RunUsed = %d, %d padded, want %d", RunUsed(buf), RunUsed(padded), size)
		}
		if Head(buf) != run[0] {
			t.Fatalf("Head = %d, want %d", Head(buf), run[0])
		}
	}
}

func TestEncodeRunEmptyAndZeroUsed(t *testing.T) {
	if SizeOfRun(nil) != 0 {
		t.Fatal("SizeOfRun(nil) != 0")
	}
	if got := DecodeRun(nil, nil, 0); got != nil {
		t.Fatalf("DecodeRun empty = %v", got)
	}
	if CountRun(nil, 0) != 0 {
		t.Fatal("CountRun empty != 0")
	}
}

func TestDecodeRunAppends(t *testing.T) {
	run := []uint64{10, 20, 30}
	buf := make([]byte, SizeOfRun(run))
	n := EncodeRun(buf, run)
	got := DecodeRun([]uint64{1, 2}, buf, n)
	want := []uint64{1, 2, 10, 20, 30}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestPutHeadOverwrite(t *testing.T) {
	run := []uint64{100, 200}
	buf := make([]byte, SizeOfRun(run))
	EncodeRun(buf, run)
	PutHead(buf, 99)
	if Head(buf) != 99 {
		t.Fatalf("Head after PutHead = %d", Head(buf))
	}
}

func TestSizeOfRunMatchesEncode(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		run := randRun(r, 1+int(r.Int31n(200)))
		buf := make([]byte, SizeOfRun(run)+MaxLen)
		return EncodeRun(buf, run) == SizeOfRun(run)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDecodeRun(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	run := randRun(r, 4096)
	buf := make([]byte, SizeOfRun(run))
	used := EncodeRun(buf, run)
	dst := make([]uint64, 0, len(run))
	b.SetBytes(int64(used))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = DecodeRun(dst[:0], buf, used)
	}
}
