package workload

import "slices"

// EdgeStream generates the streaming-graph workload: an unbounded,
// deterministic sequence of R-MAT edge batches interleaved with delete
// batches drawn from edges the stream previously inserted. Deletes are
// reservoir-sampled from a bounded window of past inserts, so they hit
// real (likely-present) edges without the generator retaining the whole
// history; sampling removes the entry from the reservoir. R-MAT repeats
// edges, so a delete can still name an edge a later insert re-added or an
// earlier delete already removed — harmless under set semantics, and the
// differential model replays the same sequence.
//
// Every batch is a function of (seed, scale, deleteFrac) and the sizes
// requested so far — two streams with the same parameters emit identical
// batch sequences at any GOMAXPROCS — which is what lets the differential
// harness replay one stream into both F-Graph flavors and a model and
// demand byte-identical results. The stream never emits the edge (0,0): it
// packs to the reserved key 0 that the sharded graph cannot store
// (fgraph.ErrEdgeZeroZero), so it is redrawn at generation — one rule for
// every consumer instead of a filter in each.
//
// The draw layout: a batch's inserts are the first n candidates other than
// (0,0) among the R-MAT candidates that follow the stream's RNG state, laid
// out as RMAT lays out edges, and the RNG is left past the last candidate
// taken. The deletes then take one Intn draw each, and each insert that
// arrives after the reservoir is full takes one Uint64 draw, in order.
type EdgeStream struct {
	r     *RNG
	scale int
	cuts  rmatCuts
	// deleteFrac of each requested batch size is emitted as deletes (once
	// the reservoir has something to delete).
	deleteFrac float64

	reservoir []Edge
	seen      uint64 // inserts observed by the reservoir so far
}

// reservoirCap bounds the delete-candidate memory regardless of stream
// length.
const reservoirCap = 1 << 16

// NewEdgeStream returns a deterministic stream of R-MAT(scale) batches with
// the default paper parameters; scale must lie in [1, 32]. deleteFrac in
// [0,1) is the fraction of each batch emitted as deletions of previously
// inserted edges; 0 disables deletes.
func NewEdgeStream(seed uint64, scale int, deleteFrac float64) *EdgeStream {
	checkScale(scale)
	if deleteFrac < 0 {
		deleteFrac = 0
	}
	if deleteFrac >= 1 {
		deleteFrac = 0.5
	}
	return &EdgeStream{
		r:          NewRNG(seed),
		scale:      scale,
		cuts:       newRMATCuts(DefaultRMAT()),
		deleteFrac: deleteFrac,
	}
}

// NumVertices returns the vertex-id space the stream draws from.
func (s *EdgeStream) NumVertices() int { return 1 << s.scale }

// Next returns the stream's next batch: n new directed edges to insert and
// about n*deleteFrac previously inserted edges to delete (fewer while the
// reservoir is warming up, nil when there are none). The caller applies
// deletes after inserts, or in any order — the differential model just has
// to match. Slices are freshly allocated each call. The inserts are
// generated in parallel.
func (s *EdgeStream) Next(n int) (inserts, deletes []Edge) {
	inserts = make([]Edge, n)
	// Each round draws exactly as many candidates as slots are left and
	// drops the (0,0) ones, so the last round's candidates all land and
	// the stream consumes the same candidates a redraw-on-the-spot loop
	// would.
	for filled := 0; filled < n; {
		rest := inserts[filled:]
		rmatFill(s.r, rest, s.scale, s.cuts)
		filled += len(slices.DeleteFunc(rest, func(e Edge) bool { return e == Edge{} }))
	}
	nd := min(int(float64(n)*s.deleteFrac), len(s.reservoir))
	if nd > 0 {
		deletes = make([]Edge, 0, nd)
	}
	for range nd {
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
