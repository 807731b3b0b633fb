// Package workload generates the paper's evaluation inputs: 40-bit uniform
// keys, YCSB-style zipfian keys (α = 0.99, 34-bit), R-MAT edge streams
// (a=0.5, b=c=0.1, d=0.3), Erdős–Rényi graphs, and scaled synthetic
// stand-ins for the social-network graphs (§6).
//
// Determinism contract: every generator's output is a function of its seed
// and parameters alone. The bulk generators — Uniform, RMAT and
// EdgeStream.Next — fill their output in parallel chunks, yet return
// exactly what a sequential loop would and leave the RNG in the same state,
// at every GOMAXPROCS. That rests on splitmix64 being counter-based: draw j
// after state s is mix(s + j·γ), so a chunk jumps straight to its first
// draw (RNG.skip). Uniform's key i is draw i+1. R-MAT candidate edge k is
// built from draws k·scale+1 … k·scale+scale, one per vertex bit from the
// lowest up. The tests pin both layouts against the one-draw-at-a-time
// generators they replaced.
package workload

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// RNG is a splitmix64 generator: tiny, fast, and deterministic across
// platforms, so every experiment is exactly reproducible.
type RNG struct {
	state uint64
}

// gamma is splitmix64's state increment: the n-th draw is mix(seed+n·gamma).
const gamma = 0x9e3779b97f4a7c15

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudorandom value.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// mix is splitmix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// skip advances the generator past n draws in O(1), leaving it where n
// Uint64 calls would.
func (r *RNG) skip(n int) { r.state += uint64(n) * gamma }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// UniformBits is the paper's microbenchmark key width: "40-bit numbers give
// a balance between the compression ratio and the number of duplicates".
const UniformBits = 40

// Uniform fills a slice with n uniform random keys in [1, 2^bits): key i is
// 1 + (draw i+1 mod (2^bits - 1)). Chunks fill in parallel.
func Uniform(r *RNG, n, bits int) []uint64 {
	span := uint64(1)<<uint(bits) - 1
	out := make([]uint64, n)
	start := *r
	parallel.ForRange(n, uniformGrain, func(lo, hi int) {
		g := start
		g.skip(lo)
		for i := lo; i < hi; i++ {
			out[i] = 1 + g.Uint64()%span
		}
	})
	r.skip(n)
	return out
}

// Chunk sizes of the parallel generators: a few tens of microseconds of
// draws each, well above the cost of forking a chunk.
const (
	uniformGrain = 1 << 14
	rmatGrain    = 1 << 11
)

// Zipf generates keys from a zipfian distribution over [1, 2^bits) with the
// YCSB skew parameter. Item ranks are scrambled with a multiplicative hash
// so hot keys are spread over the key space (as YCSB does).
type Zipf struct {
	rng   *RNG
	items uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	mask  uint64
}

// ZipfTheta is the paper's skew parameter ("skew parameter α = 0.99,
// parameter taken from the YCSB").
const ZipfTheta = 0.99

// ZipfBits is the paper's zipfian key width (34-bit numbers).
const ZipfBits = 34

// NewZipf builds a generator over 2^bits items with skew theta.
func NewZipf(r *RNG, bits int, theta float64) *Zipf {
	items := uint64(1) << uint(bits)
	zetan := zetaApprox(items, theta)
	zeta2 := zetaApprox(2, theta)
	z := &Zipf{
		rng:   r,
		items: items,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(items), 1-theta)) / (1 - zeta2/zetan),
		mask:  items - 1,
	}
	return z
}

// zetaApprox approximates the generalized harmonic number H_{n,theta} with
// the exact sum of the first terms plus an Euler–Maclaurin tail — computing
// the exact sum over 2^34 items, as YCSB does incrementally, would take
// minutes.
func zetaApprox(n uint64, theta float64) float64 {
	const exact = 1 << 16
	sum := 0.0
	limit := n
	if limit > exact {
		limit = exact
	}
	for i := uint64(1); i <= limit; i++ {
		sum += math.Pow(float64(i), -theta)
	}
	if n <= exact {
		return sum
	}
	// Integral tail with the first-order Euler–Maclaurin correction.
	a, b := float64(exact), float64(n)
	tail := (math.Pow(b, 1-theta)-math.Pow(a, 1-theta))/(1-theta) +
		0.5*(math.Pow(b, -theta)-math.Pow(a, -theta))
	return sum + tail
}

// Next returns the next zipfian key in [1, 2^bits), hot ranks scrambled.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.items {
		rank = z.items - 1
	}
	// Scramble the rank across the key space; keep keys nonzero.
	k := scramble(rank) & z.mask
	if k == 0 {
		k = 1
	}
	return k
}

func scramble(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// ZipfBatch draws n zipfian keys.
func ZipfBatch(z *Zipf, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Next()
	}
	return out
}

// PowerLaw draws keys from a bounded power law P(k) ∝ k^-s over
// [1, 2^bits), s > 1 (the classic zipf exponent form — unlike the YCSB
// generator above, whose rejection-free approximation needs theta < 1).
// With Scramble false, hot keys cluster at the bottom of the key space —
// the adversarial input for RangePartition, where one shard's span
// captures nearly all traffic; with Scramble true, hot ranks are spread
// over the space as YCSB does, which stresses hash partitions instead.
type PowerLaw struct {
	rng      *RNG
	scramble bool
	mask     uint64
	n        float64 // item count as float
	oneMinus float64 // 1 - s
	tailTerm float64 // (n+1)^(1-s) - 1
}

// NewPowerLaw builds a generator over [1, 2^bits) with exponent s > 1
// (values at or below 1.01 are clamped to 1.01).
func NewPowerLaw(r *RNG, bits int, s float64, scramble bool) *PowerLaw {
	if bits < 1 {
		bits = 1
	}
	if bits > 63 {
		bits = 63
	}
	if s < 1.01 {
		s = 1.01
	}
	n := float64(uint64(1)<<uint(bits)) - 1
	om := 1 - s
	return &PowerLaw{
		rng:      r,
		scramble: scramble,
		mask:     uint64(1)<<uint(bits) - 1,
		n:        n,
		oneMinus: om,
		tailTerm: math.Pow(n+1, om) - 1,
	}
}

// Next returns the next power-law key in [1, 2^bits), via inverse-CDF
// sampling of the continuous density x^-s on [1, n+1).
func (z *PowerLaw) Next() uint64 {
	u := z.rng.Float64()
	x := math.Pow(1+u*z.tailTerm, 1/z.oneMinus)
	rank := uint64(x)
	if rank < 1 {
		rank = 1
	}
	if rank > uint64(z.n) {
		rank = uint64(z.n)
	}
	if !z.scramble {
		return rank
	}
	k := scramble(rank) & z.mask
	if k == 0 {
		k = 1
	}
	return k
}

// PowerLawBatch draws n power-law keys.
func PowerLawBatch(z *PowerLaw, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Next()
	}
	return out
}

// Edge is a directed graph edge.
type Edge struct {
	Src, Dst uint32
}

// RMATParams are the quadrant probabilities of the R-MAT generator; the
// defaults match the paper's insert stream ("a=0.5, b=c=0.1, d=0.3 to match
// the distribution from the PaC-tree paper").
type RMATParams struct {
	A, B, C float64 // D = 1-A-B-C
}

// DefaultRMAT returns the paper's R-MAT parameters.
func DefaultRMAT() RMATParams { return RMATParams{A: 0.5, B: 0.1, C: 0.1} }

// RMAT samples n directed edges over 2^scale vertices (duplicates and
// self-loops possible, as in the paper's insert streams). Edge k is built
// from draws k·scale+1 … k·scale+scale of r, one per vertex bit from the
// lowest up: a draw u = Float64() picks quadrant A (neither bit) when
// u < p.A, else B (dst bit) when u < p.A+p.B, else C (src bit) when
// u < p.A+p.B+p.C, else D (both). The edges are generated in parallel and
// the result depends only on (r's state, n, scale, p); r is left past all
// n·scale draws. scale must lie in [1, 32].
func RMAT(r *RNG, n int, scale int, p RMATParams) []Edge {
	checkScale(scale)
	out := make([]Edge, n)
	rmatFill(r, out, scale, newRMATCuts(p))
	return out
}

// checkScale panics unless Edge's 32-bit vertex ids can hold every vertex
// of 2^scale and at least one edge other than (0,0) exists, which the
// stream's redraw loop needs to make progress.
func checkScale(scale int) {
	if scale < 1 || scale > 32 {
		panic(fmt.Sprintf("workload: R-MAT scale %d outside [1, 32]", scale))
	}
}

// rmatFill fills out with r's next len(out) R-MAT edges, in parallel, and
// advances r past their draws.
func rmatFill(r *RNG, out []Edge, scale int, c rmatCuts) {
	start := *r
	parallel.ForRange(len(out), rmatGrain, func(lo, hi int) {
		g := start
		g.skip(lo * scale)
		c.fill(g, out[lo:hi], scale)
	})
	r.skip(len(out) * scale)
}

// rmatCuts are the R-MAT quadrant boundaries as integer thresholds on a
// draw's top 53 bits m = x>>11. Float64 returns u = m/2^53 exactly, so
// u < t ⇔ m < ceil(t·2^53) with no rounding, and comparing m against the
// cuts picks the same quadrant as comparing u against the float sums, with
// no unpredictable branches.
type rmatCuts struct{ a, ab, abc uint64 }

// newRMATCuts converts p's cumulative sums, computed in the same float
// arithmetic the quadrant rule states them in. The compare chain tests the
// cuts in order, so a cut below an earlier one never decides a draw;
// raising it to the earlier cut keeps every decision and makes the cuts
// ascend, which fill relies on.
func newRMATCuts(p RMATParams) rmatCuts {
	a := rmatCut(p.A)
	ab := max(a, rmatCut(p.A+p.B))
	return rmatCuts{a, ab, max(ab, rmatCut(p.A+p.B+p.C))}
}

// rmatCut returns ceil(t·2^53) clamped to [0, 2^53]; NaN, which no draw is
// below, maps to 0.
func rmatCut(t float64) uint64 {
	x := math.Ceil(t * (1 << 53))
	switch {
	case !(x > 0):
		return 0
	case x >= 1<<53:
		return 1 << 53
	}
	return uint64(x)
}

// fill writes the R-MAT edges drawn from g into out.
//
// m minus a cut has its sign bit set exactly when m is below the cut, as
// both are at most 2^53. Quadrant A is [0, a), B is [a, ab), C is
// [ab, abc) and D is [abc, 2^53). The loop accumulates the complements of
// the bits: src's is m < ab, and since the cuts ascend, the three below-cut
// signs read 111 in A, 011 in B, 001 in C and 000 in D, so dst's is their
// XOR. Each draw's bits enter at the top and shift down, so the first draw
// ends as bit 0.
func (c rmatCuts) fill(g RNG, out []Edge, scale int) {
	const sign = 1 << 63
	s := g.state
	for i := range out {
		var src, dst uint64
		for range scale {
			s += gamma
			m := mix(s) >> 11
			ab := m - c.ab
			src = src>>1 | ab&sign
			dst = dst>>1 | ((m-c.a)^ab^(m-c.abc))&sign
		}
		out[i] = Edge{Src: uint32(^src >> (64 - scale)), Dst: uint32(^dst >> (64 - scale))}
	}
}

// erdosRenyi generates G(n, p) as a directed edge list via geometric
// skipping, so the cost is proportional to the number of edges.
func erdosRenyi(r *RNG, n int, p float64) []Edge {
	if p <= 0 || n <= 0 {
		return nil
	}
	var edges []Edge
	logq := math.Log1p(-p)
	total := uint64(n) * uint64(n)
	pos := uint64(0)
	for {
		skip := uint64(math.Floor(math.Log(1-r.Float64()) / logq))
		pos += skip
		if pos >= total {
			return edges
		}
		src := uint32(pos / uint64(n))
		dst := uint32(pos % uint64(n))
		if src != dst {
			edges = append(edges, Edge{Src: src, Dst: dst})
		}
		pos++
	}
}

// Symmetrize returns the undirected closure of an edge list (both
// directions for every edge, self-loops dropped), which is how the graph
// systems under test store undirected graphs.
func Symmetrize(edges []Edge) []Edge {
	out := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		out = append(out, e, Edge{Src: e.Dst, Dst: e.Src})
	}
	return out
}

// EdgeKeys packs edges into the 64-bit keys F-Graph stores: src in the
// upper 32 bits, dst in the lower (§6: "F-Graph stores edges in 64-bit
// words"). Key 0 (edge 0->0) cannot occur because self-loops are dropped
// by Symmetrize and vertex pairs (0,0) are filtered here.
func EdgeKeys(edges []Edge) []uint64 {
	out := make([]uint64, 0, len(edges))
	for _, e := range edges {
		k := uint64(e.Src)<<32 | uint64(e.Dst)
		if k == 0 {
			continue
		}
		out = append(out, k)
	}
	return out
}

// SyntheticGraph describes one scaled stand-in for the paper's datasets
// (Table 7). Vertex/edge counts are scaled down ~100x; skew is preserved by
// the generator choice.
type SyntheticGraph struct {
	Name    string
	Kind    string // "rmat" or "er"
	Scale   int    // log2 of vertex count (rmat)
	Edges   int    // directed edges to sample before symmetrizing
	N       int    // vertices (er)
	P       float64
	Comment string
}

// PaperGraphs lists the scaled stand-ins for LJ, CO, ER, TW, and FS.
func PaperGraphs() []SyntheticGraph {
	return []SyntheticGraph{
		{Name: "LJ", Kind: "rmat", Scale: 16, Edges: 860_000, Comment: "LiveJournal: 4.8M/86M scaled 100x"},
		{Name: "CO", Kind: "rmat", Scale: 15, Edges: 2_340_000, Comment: "Orkut: 3.1M/234M scaled 100x"},
		{Name: "ER", Kind: "er", N: 100_000, P: 5e-4, Comment: "Erdős–Rényi n=1e7 p=5e-6 scaled 100x"},
		{Name: "TW", Kind: "rmat", Scale: 17, Edges: 4_000_000, Comment: "Twitter: 62M/2405M scaled ~600x"},
		{Name: "FS", Kind: "rmat", Scale: 17, Edges: 6_000_000, Comment: "Friendster: 125M/3612M scaled ~600x"},
	}
}

// Build materializes a synthetic graph as a symmetrized edge list.
func (g SyntheticGraph) Build(seed uint64) []Edge {
	r := NewRNG(seed)
	switch g.Kind {
	case "er":
		return Symmetrize(erdosRenyi(r, g.N, g.P))
	default:
		return Symmetrize(RMAT(r, g.Edges, g.Scale, DefaultRMAT()))
	}
}

// NumVertices returns the vertex-id space of the synthetic graph.
func (g SyntheticGraph) NumVertices() int {
	if g.Kind == "er" {
		return g.N
	}
	return 1 << uint(g.Scale)
}
