package cpma

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/workload"
)

// TestWorkloadCodeMix counts the delta-code lengths in the leaves of each
// system benchmark workload's set (bench/), the mix that chose between the
// codec's decoders. core-batch and snapshot-reads preload 4M uniform
// 40-bit keys, and durable-ingest ingests 800k; they are built here at
// the same density in a 2^36 key space, so with the same gaps. graph-stream
// streams 32 R-MAT(17) batches of 25k edges with 20% deletes, built here
// in full. Run with -v for the histograms; the test checks what
// codec.DecodeRun's byte loop rests on: most codes are 1 to 3 bytes long.
func TestWorkloadCodeMix(t *testing.T) {
	uniform := func(n int) []uint64 {
		keys := workload.Uniform(workload.NewRNG(1), n>>4, 36)
		slices.Sort(keys)
		return slices.Compact(keys)
	}
	stream := workload.NewEdgeStream(1, 17, 0.2)
	live := map[workload.Edge]bool{}
	for range 32 {
		ins, del := stream.Next(25_000)
		for _, e := range ins {
			live[e] = true
		}
		for _, e := range del {
			delete(live, e)
		}
	}
	var edges []workload.Edge
	for e := range live {
		edges = append(edges, e)
	}
	graph := workload.EdgeKeys(edges)
	slices.Sort(graph)
	sets := []struct {
		name string
		keys []uint64
	}{
		{"core-batch, snapshot-reads", uniform(4_000_000)},
		{"durable-ingest", uniform(800_000)},
		{"graph-stream", graph},
	}
	for _, s := range sets {
		c := FromSorted(s.keys, nil)
		var hist [codec.MaxLen + 1]int
		codes := 0
		for leaf := 0; leaf < c.Leaves(); leaf++ {
			prev := uint64(0)
			c.LeafMap(leaf, func(k uint64) bool {
				if prev != 0 {
					hist[codec.Len(k-prev)]++
					codes++
				}
				prev = k
				return true
			})
		}
		var b strings.Builder
		for n, cnt := range hist {
			if cnt > 0 {
				fmt.Fprintf(&b, " %dB %.1f%%", n, 100*float64(cnt)/float64(codes))
			}
		}
		t.Logf("%s: %d keys, %d codes:%s", s.name, len(s.keys), codes, b.String())
		if short := hist[1] + hist[2] + hist[3]; 2*short < codes {
			t.Errorf("%s: %d of %d codes are 1 to 3 bytes long, not most", s.name, short, codes)
		}
	}
}
