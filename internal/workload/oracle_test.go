package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"
)

// The one-draw-at-a-time R-MAT generator and stream the parallel kernel
// replaced. They define the output the kernel must reproduce bit for bit.

func refRMATOne(r *RNG, scale int, p RMATParams) Edge {
	var src, dst uint32
	for bit := 0; bit < scale; bit++ {
		u := r.Float64()
		switch {
		case u < p.A:
			// top-left: no bits set
		case u < p.A+p.B:
			dst |= 1 << uint(bit)
		case u < p.A+p.B+p.C:
			src |= 1 << uint(bit)
		default:
			src |= 1 << uint(bit)
			dst |= 1 << uint(bit)
		}
	}
	return Edge{Src: src, Dst: dst}
}

func refRMAT(r *RNG, n, scale int, p RMATParams) []Edge {
	out := make([]Edge, n)
	for i := range out {
		out[i] = refRMATOne(r, scale, p)
	}
	return out
}

func refUniform(r *RNG, n, bits int) []uint64 {
	span := uint64(1)<<uint(bits) - 1
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1 + r.Uint64()%span
	}
	return out
}

// refStream is EdgeStream as it was before the parallel kernel.
type refStream struct {
	r          *RNG
	scale      int
	deleteFrac float64
	reservoir  []Edge
	seen       uint64
}

func newRefStream(seed uint64, scale int, deleteFrac float64) *refStream {
	return &refStream{r: NewRNG(seed), scale: scale, deleteFrac: deleteFrac}
}

func (s *refStream) Next(n int) (inserts, deletes []Edge) {
	p := DefaultRMAT()
	inserts = make([]Edge, n)
	for i := range inserts {
		e := refRMATOne(s.r, s.scale, p)
		for e.Src == 0 && e.Dst == 0 {
			e = refRMATOne(s.r, s.scale, p)
		}
		inserts[i] = e
	}
	nd := int(float64(n) * s.deleteFrac)
	if nd > len(s.reservoir) {
		nd = len(s.reservoir)
	}
	for i := 0; i < nd; i++ {
		j := s.r.Intn(len(s.reservoir))
		deletes = append(deletes, s.reservoir[j])
		last := len(s.reservoir) - 1
		s.reservoir[j] = s.reservoir[last]
		s.reservoir = s.reservoir[:last]
	}
	for _, e := range inserts {
		s.seen++
		if len(s.reservoir) < reservoirCap {
			s.reservoir = append(s.reservoir, e)
		} else if j := s.r.Uint64() % s.seen; j < reservoirCap {
			s.reservoir[j] = e
		}
	}
	return inserts, deletes
}

func TestSkipMatchesDraws(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000, 123_457} {
		a, b := NewRNG(uint64(n)), NewRNG(uint64(n))
		for range n {
			a.Uint64()
		}
		b.skip(n)
		if *a != *b {
			t.Fatalf("skip(%d) left state %x, %d draws left %x", n, b.state, n, a.state)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("skip(%d): next draws differ", n)
		}
	}
}

func TestUniformMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, uniformGrain - 1, uniformGrain + 1, 3*uniformGrain + 77} {
		for _, bits := range []int{1, 20, UniformBits, 63} {
			a, b := NewRNG(uint64(bits)), NewRNG(uint64(bits))
			got, want := Uniform(a, n, bits), refUniform(b, n, bits)
			if !slices.Equal(got, want) {
				t.Fatalf("Uniform(n=%d, bits=%d) differs from the sequential loop", n, bits)
			}
			if *a != *b {
				t.Fatalf("Uniform(n=%d, bits=%d) left the RNG at %x, want %x", n, bits, a.state, b.state)
			}
		}
	}
}

func TestRMATMatchesSequential(t *testing.T) {
	params := []RMATParams{
		DefaultRMAT(),
		{A: 0.25, B: 0.25, C: 0.25},   // uniform quadrants
		{A: 0.57, B: 0.19, C: 0.19},   // Graph500
		{A: 0.4, B: -0.1, C: 0.3},     // a cut below an earlier one
		{A: 0, B: 0, C: 1},            // all mass in C
		{A: 1.5, B: 0, C: 0},          // every draw in A
		{A: math.NaN(), B: 0.2, C: 0}, // no draw below NaN
		{A: 0.1, B: math.Inf(1), C: 0},
	}
	for _, p := range params {
		for _, scale := range []int{1, 2, 3, 10, 17, 20, 32} {
			for _, n := range []int{0, 1, 7, rmatGrain + 3, 5*rmatGrain - 1} {
				seed := uint64(scale*1000 + n)
				a, b := NewRNG(seed), NewRNG(seed)
				got, want := RMAT(a, n, scale, p), refRMAT(b, n, scale, p)
				if !slices.Equal(got, want) {
					t.Fatalf("RMAT(%+v, scale %d, n %d) differs from the sequential generator", p, scale, n)
				}
				if *a != *b {
					t.Fatalf("RMAT(%+v, scale %d, n %d) left the RNG at %x, want %x", p, scale, n, a.state, b.state)
				}
			}
		}
	}
}

// The cuts are exact: a draw's mantissa exactly at a cut and one below it
// land on the sides the float compare puts them.
func TestRMATCutIsExact(t *testing.T) {
	for _, tv := range []float64{0.5, 0.6, 0.7, 0.1, 1.0 / 3, math.Nextafter(0.5, 1), 1e-300, 0.9999999999999999} {
		c := rmatCut(tv)
		for _, m := range []uint64{c - 1, c, c + 1} {
			if m > 1<<53-1 {
				continue
			}
			u := float64(m) / (1 << 53)
			if (u < tv) != (m < c) {
				t.Fatalf("cut(%g) = %d: m = %d gives float %v, integer %v", tv, c, m, u < tv, m < c)
			}
		}
	}
}

// The 40,000-edge batches fill the reservoir mid-batch in the second
// round of sizes and then run it full, so inserts past the first
// reservoirCap take the Uint64() % seen draw for several batches.
func TestEdgeStreamMatchesSequential(t *testing.T) {
	sizes := []int{1, 3, 17, 255, 1001, rmatGrain + 1, 7919, 40_000}
	for _, scale := range []int{1, 2, 3, 10, 17, 20} {
		for seed := uint64(0); seed < 3; seed++ {
			for _, frac := range []float64{0, 0.2} {
				got, want := NewEdgeStream(seed, scale, frac), newRefStream(seed, scale, frac)
				for round := range 3 * len(sizes) {
					n := sizes[round%len(sizes)]
					gi, gd := got.Next(n)
					wi, wd := want.Next(n)
					if !slices.Equal(gi, wi) || !slices.Equal(gd, wd) {
						t.Fatalf("scale %d seed %d frac %g round %d: batch differs from the sequential stream", scale, seed, frac, round)
					}
					if *got.r != *want.r {
						t.Fatalf("scale %d seed %d frac %g round %d: RNG at %x, want %x", scale, seed, frac, round, got.r.state, want.r.state)
					}
				}
				if len(got.reservoir) != reservoirCap || got.seen < 2*reservoirCap {
					t.Fatalf("scale %d seed %d frac %g: reservoir holds %d after %d inserts, want it full well before the end", scale, seed, frac, len(got.reservoir), got.seen)
				}
			}
		}
	}
}

// TestEdgeStreamBenchInputPinned pins the graph-stream benchmark's input:
// seed 1, scale 17, 32 batches of 25,000 edges with 20% deletes. A change
// to the stream would silently change what the benchmark and the committed
// graph results measure.
func TestEdgeStreamBenchInputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 800k edges")
	}
	const want uint64 = 0x884a58d230b2c1d2
	s := NewEdgeStream(1, 17, 0.2)
	h := fnv.New64a()
	var buf [8]byte
	put := func(es []Edge) {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(es)))
		h.Write(buf[:4])
		for _, e := range es {
			binary.LittleEndian.PutUint32(buf[:], e.Src)
			binary.LittleEndian.PutUint32(buf[4:], e.Dst)
			h.Write(buf[:])
		}
	}
	for range 32 {
		ins, del := s.Next(25_000)
		put(ins)
		put(del)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("stream hash %#x, want %#x", got, want)
	}
}

func TestScaleOutOfRangePanics(t *testing.T) {
	for _, scale := range []int{-1, 0, 33, 64} {
		for name, f := range map[string]func(){
			"NewEdgeStream": func() { NewEdgeStream(1, scale, 0) },
			"RMAT":          func() { RMAT(NewRNG(1), 1, scale, DefaultRMAT()) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(scale %d) did not panic", name, scale)
					}
				}()
				f()
			}()
		}
	}
	// Both ends of the range work: scale 1 draws its few non-(0,0) edges,
	// scale 32 sets the top vertex bits.
	ins, _ := NewEdgeStream(1, 1, 0).Next(100)
	for _, e := range ins {
		if e == (Edge{}) || e.Src > 1 || e.Dst > 1 {
			t.Fatalf("scale 1 edge %v", e)
		}
	}
	var high bool
	for _, e := range RMAT(NewRNG(1), 1000, 32, DefaultRMAT()) {
		high = high || e.Src>>31 == 1 || e.Dst>>31 == 1
	}
	if !high {
		t.Fatal("scale 32 never set vertex bit 31")
	}
}
