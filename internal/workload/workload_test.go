package workload

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	a = NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds suspiciously similar")
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(1)
	keys := Uniform(r, 100_000, UniformBits)
	var max uint64
	for _, k := range keys {
		if k == 0 {
			t.Fatal("zero key generated")
		}
		if k >= 1<<UniformBits {
			t.Fatalf("key %d out of 40-bit range", k)
		}
		if k > max {
			max = k
		}
	}
	// With 100k draws the max should be near the top of the range.
	if max < (1<<UniformBits)/2 {
		t.Fatalf("max %d suspiciously small", max)
	}
}

func TestUniformMeanIsCentered(t *testing.T) {
	r := NewRNG(2)
	keys := Uniform(r, 200_000, 32)
	var sum float64
	for _, k := range keys {
		sum += float64(k)
	}
	mean := sum / float64(len(keys))
	want := float64(uint64(1) << 31)
	if math.Abs(mean-want)/want > 0.01 {
		t.Fatalf("mean %.0f deviates from %.0f", mean, want)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(3)
	z := NewZipf(r, ZipfBits, ZipfTheta)
	counts := map[uint64]int{}
	n := 200_000
	for i := 0; i < n; i++ {
		k := z.Next()
		if k == 0 || k >= 1<<ZipfBits {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Zipfian with theta=0.99 over 2^34 items: the hottest key should
	// receive a few percent of all draws, and the number of distinct keys
	// should be far below n.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/100 {
		t.Fatalf("hottest key only %d/%d draws; not skewed", max, n)
	}
	if len(counts) > n*95/100 {
		t.Fatalf("%d distinct keys out of %d draws; not skewed", len(counts), n)
	}
}

func TestZetaApproxMatchesExactSmall(t *testing.T) {
	// For n below the exact cutoff the approximation IS the exact sum.
	exact := 0.0
	for i := 1; i <= 1000; i++ {
		exact += math.Pow(float64(i), -ZipfTheta)
	}
	if got := zetaApprox(1000, ZipfTheta); math.Abs(got-exact) > 1e-9 {
		t.Fatalf("zetaApprox(1000) = %f, want %f", got, exact)
	}
	// For large n the tail must be close to a longer exact sum.
	bigExact := 0.0
	for i := 1; i <= 1<<20; i++ {
		bigExact += math.Pow(float64(i), -ZipfTheta)
	}
	if got := zetaApprox(1<<20, ZipfTheta); math.Abs(got-bigExact)/bigExact > 1e-4 {
		t.Fatalf("zetaApprox(2^20) = %f, want %f", got, bigExact)
	}
}

func TestRMATSkewAndRange(t *testing.T) {
	r := NewRNG(4)
	edges := RMAT(r, 100_000, 14, DefaultRMAT())
	deg := map[uint32]int{}
	for _, e := range edges {
		if e.Src >= 1<<14 || e.Dst >= 1<<14 {
			t.Fatal("vertex out of range")
		}
		deg[e.Src]++
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	avg := float64(len(edges)) / float64(len(deg))
	// Expected hottest out-degree for a=0.5,b=0.1: m*(a+b)^scale ≈ 78 vs a
	// mean of ~6.5; a Poisson (ER) tail would stay within ~3x of the mean.
	if float64(max) < 5*avg {
		t.Fatalf("max degree %d vs avg %.1f: R-MAT not skewed", max, avg)
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	r := NewRNG(5)
	n, p := 2000, 0.01
	edges := erdosRenyi(r, n, p)
	want := float64(n) * float64(n) * p
	got := float64(len(edges))
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("got %d edges, want ~%.0f", len(edges), want)
	}
	for _, e := range edges {
		if e.Src == e.Dst {
			t.Fatal("self loop generated")
		}
		if int(e.Src) >= n || int(e.Dst) >= n {
			t.Fatal("vertex out of range")
		}
	}
}

func TestSymmetrizeAndEdgeKeys(t *testing.T) {
	edges := []Edge{{1, 2}, {3, 3}, {4, 5}}
	sym := Symmetrize(edges)
	if len(sym) != 4 {
		t.Fatalf("Symmetrize kept %d edges, want 4 (self-loop dropped)", len(sym))
	}
	keys := EdgeKeys(sym)
	if len(keys) != 4 {
		t.Fatalf("EdgeKeys = %d", len(keys))
	}
	if keys[0] != 1<<32|2 || keys[1] != 2<<32|1 {
		t.Fatalf("keys wrong: %x", keys[:2])
	}
}

func TestPaperGraphsBuild(t *testing.T) {
	for _, g := range PaperGraphs() {
		if g.Name != "ER" && g.Name != "LJ" {
			continue // keep the test fast; other graphs share the generator
		}
		edges := g.Build(42)
		if len(edges) == 0 {
			t.Fatalf("%s: no edges", g.Name)
		}
		nv := g.NumVertices()
		for _, e := range edges[:100] {
			if int(e.Src) >= nv || int(e.Dst) >= nv {
				t.Fatalf("%s: vertex out of range", g.Name)
			}
		}
	}
}
