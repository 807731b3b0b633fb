package workload

import "testing"

// BenchmarkEdgeStreamNext generates one batch of the graph-stream
// benchmark's input: 25,000 scale-17 edges with 20% deletes, on a stream
// whose reservoir is already full.
func BenchmarkEdgeStreamNext(b *testing.B) {
	s := NewEdgeStream(1, 17, 0.2)
	for range reservoirCap/25_000 + 1 {
		s.Next(25_000)
	}
	for b.Loop() {
		s.Next(25_000)
	}
}

// BenchmarkRMAT generates 100,000 scale-17 edges with the paper's params.
func BenchmarkRMAT(b *testing.B) {
	r := NewRNG(1)
	for b.Loop() {
		RMAT(r, 100_000, 17, DefaultRMAT())
	}
}

// BenchmarkEdgeStreamSetup generates the graph-stream benchmark's whole
// input from a fresh stream: seed 1, scale 17, 20% deletes, 32 batches of
// 25,000 edges, which is that workload's timed set-up.
func BenchmarkEdgeStreamSetup(b *testing.B) {
	for b.Loop() {
		s := NewEdgeStream(1, 17, 0.2)
		for range 32 {
			s.Next(25_000)
		}
	}
}
