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
		got, m := Step(buf[:], 0)
		strict, k := Read(buf[:n])
		return got == v && m == n && strict == v && k == n
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

// TestReadRejects: the strict reader refuses what binary.Uvarint refuses
// (a short buffer, more than MaxLen bytes, a value of 2^64 or more) and
// non-minimal codes, and reads 0.
func TestReadRejects(t *testing.T) {
	cases := []struct {
		in   []byte
		want int // n: 0 short, -1 invalid
	}{
		{nil, 0},
		{[]byte{0x80}, 0},
		{[]byte{0x84, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, -1}, // 11 bytes
		{[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, -1},       // 2^64
		{[]byte{0x81, 0x00}, -1}, // 1, non-minimal
		{[]byte{0x00}, 1},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 10}, // 2^64 - 1
	}
	for _, c := range cases {
		if _, n := Read(c.in); n != c.want {
			t.Errorf("Read(% x) n = %d, want %d", c.in, n, c.want)
		}
	}
}

// refRun is the byte-at-a-time reference CheckRun is held to: it decodes
// src[:used] one byte and one rule at a time and returns the keys, or
// ok == false when the bytes are not a run EncodeRun could have written.
func refRun(src []byte, used int) (keys []uint64, ok bool) {
	if used == 0 {
		return nil, true
	}
	if used < HeadBytes || Head(src) == 0 {
		return nil, false
	}
	keys = []uint64{Head(src)}
	for off := HeadBytes; off < used; {
		var d uint64
		n := 0
		for {
			if off+n >= used || n == MaxLen {
				return nil, false
			}
			b := src[off+n]
			if b == 0 || n == MaxLen-1 && b&0x7f > 1 {
				return nil, false
			}
			d |= uint64(b&0x7f) << (7 * n)
			n++
			if b < 0x80 {
				break
			}
		}
		v := keys[len(keys)-1]
		if Len(d) != n || v+d < v {
			return nil, false
		}
		keys = append(keys, v+d)
		off += n
	}
	return keys, true
}

// stepKeys is DecodeRun as a walk over the trusted step.
func stepKeys(dst []uint64, src []byte, used int) []uint64 {
	if used == 0 {
		return dst
	}
	v := Head(src)
	dst = append(dst, v)
	for off := HeadBytes; off < used; {
		d, n := Step(src, off)
		v += d
		off += n
		dst = append(dst, v)
	}
	return dst
}

// runSeeds are valid runs with codes of every length, and the two
// CRC-valid leaf images' codes an earlier decoder let through: an 11-byte
// code, and a 10-byte one worth more than 2^64.
func runSeeds() [][]byte {
	var seeds [][]byte
	for _, run := range [][]uint64{{1}, {5, 6, 200, 1 << 20, 1 << 40, 1<<40 + 1<<56, ^uint64(0)}, {1 << 62, 1<<63 + 3}} {
		buf := make([]byte, SizeOfRun(run)+HeadBytes)
		EncodeRun(buf, run)
		seeds = append(seeds, buf)
	}
	head := []byte{9, 0, 0, 0, 0, 0, 0, 0}
	seeds = append(seeds,
		append(slices.Clone(head), 0x84, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		append(slices.Clone(head), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02))
	return seeds
}

func TestCheckRun(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 60, 1000} {
		run := randRun(r, n)
		buf := make([]byte, SizeOfRun(run)+MaxLen)
		used := EncodeRun(buf, run)
		if cnt, last, err := CheckRun(buf, used); err != nil || cnt != n || last != run[n-1] {
			t.Fatalf("CheckRun(%d keys) = %d, %d, %v", n, cnt, last, err)
		}
	}
	// A head alone is a run, whatever its last byte.
	if cnt, last, err := CheckRun([]byte{1, 0, 0, 0, 0, 0, 0, 0xff}, HeadBytes); err != nil || cnt != 1 || last != 0xff<<56|1 {
		t.Fatalf("CheckRun(head 0xff00000000000001) = %d, %x, %v", cnt, last, err)
	}
	seeds := runSeeds()
	head := seeds[0][:HeadBytes]
	bad := map[string][]byte{
		"short-head":       head[:7],
		"zero-head":        make([]byte, 9),
		"zero-code":        append(slices.Clone(head), 0x00),
		"past-used":        append(slices.Clone(head), 0x81),
		"non-minimal":      append(slices.Clone(head), 0x81, 0x00),
		"overlong-code":    seeds[len(seeds)-2],
		"overflowing-code": seeds[len(seeds)-1],
		"wraps":            append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 0x01),
	}
	for name, b := range bad {
		if _, _, err := CheckRun(b, len(b)); err == nil {
			t.Errorf("%s: CheckRun accepted % x", name, b)
		}
	}
	// Nothing past used is read: a run cut before its last code's end is
	// refused even when the bytes past the cut would end the code.
	cut := append(slices.Clone(head), 0x81, 0x01)
	if _, _, err := CheckRun(cut, len(cut)-1); err == nil {
		t.Error("CheckRun read past used")
	}
}

// FuzzRun: for any bytes, CheckRun errs exactly when the reference does,
// and otherwise returns its key count and last key; on such a run the
// trusted decoders, DecodeRun and a walk over Step, yield its keys.
func FuzzRun(f *testing.F) {
	for _, s := range runSeeds() {
		f.Add(s, uint16(len(s)))
	}
	f.Fuzz(func(t *testing.T, src []byte, u uint16) {
		used := min(int(u), len(src))
		want, ok := refRun(src, used)
		cnt, last, err := CheckRun(src, used)
		if (err == nil) != ok {
			t.Fatalf("CheckRun(% x, %d) err = %v, reference ok = %v", src, used, err, ok)
		}
		if !ok {
			return
		}
		if cnt != len(want) || (cnt > 0 && last != want[cnt-1]) {
			t.Fatalf("CheckRun = %d keys, last %d; reference %d keys %v", cnt, last, len(want), want)
		}
		if got := DecodeRun(nil, src, used); !slices.Equal(got, want) {
			t.Fatalf("DecodeRun = %v, reference %v", got, want)
		}
		if got := stepKeys(nil, src, used); !slices.Equal(got, want) {
			t.Fatalf("Step walk = %v, reference %v", got, want)
		}
	})
}

// benchRuns encodes 256 runs of 60 keys (a 512-byte leaf's worth) whose
// delta codes are size() bytes long, each delta uniform among those of
// that length.
func benchRuns(r *rand.Rand, size func() int) (runs [][]byte, keys int) {
	for range 256 {
		run := []uint64{1 + r.Uint64()%1000}
		for len(run) < 60 {
			lo := uint64(1) << (7*size() - 7)
			run = append(run, run[len(run)-1]+lo+r.Uint64()%(lo<<7-lo))
		}
		buf := make([]byte, SizeOfRun(run)+HeadBytes)
		EncodeRun(buf, run)
		runs = append(runs, buf)
		keys += len(run)
	}
	return runs, keys
}

// BenchmarkDecodeRun decodes runs of four code-length mixes with the two
// trusted decoders: DecodeRun's byte loop and a walk over Step. Three
// mixes are 256 runs of 60 keys whose codes are 1 byte long; 2 or 3 bytes
// in equal shares; and 1, 2, 3 or 5 bytes in graph-stream's shares
// (TestWorkloadCodeMix in internal/cpma counts each system benchmark
// workload's mix). Distinct runs keep the branch predictor from learning
// one run's code lengths. The fourth is one run of 4096 uniform 40-bit
// keys, whose codes are mostly 4 and 5 bytes long.
func BenchmarkDecodeRun(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	oneByte, n1 := benchRuns(r, func() int { return 1 })
	twoThree, n23 := benchRuns(r, func() int { return 2 + r.Intn(2) })
	graph, ng := benchRuns(r, func() int {
		switch p := r.Intn(100); {
		case p < 10:
			return 1
		case p < 62:
			return 2
		case p < 82:
			return 3
		}
		return 5
	})
	run := randRun(r, 4096)
	buf := make([]byte, SizeOfRun(run))
	EncodeRun(buf, run)
	mixes := []struct {
		name string
		runs [][]byte
		keys int
	}{{"1byte", oneByte, n1}, {"2-3byte", twoThree, n23}, {"graph", graph, ng}, {"4-5byte", [][]byte{buf}, len(run)}}
	decoders := []struct {
		name string
		f    func(dst []uint64, src []byte, used int) []uint64
	}{
		{"bytes", DecodeRun},
		{"step", stepKeys},
	}
	for _, m := range mixes {
		used := make([]int, len(m.runs))
		for i, run := range m.runs {
			used[i] = RunUsed(run)
		}
		for _, d := range decoders {
			b.Run(m.name+"/"+d.name, func(b *testing.B) {
				dst := make([]uint64, 0, 4096)
				for i := 0; i < b.N; i++ {
					for j, run := range m.runs {
						dst = d.f(dst[:0], run, used[j])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m.keys), "ns/key")
			})
		}
	}
}
