package fgraph

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// shardOp is one routed sub-batch of the scripted ingest history: the keys
// of one insert or delete batch that landed on one shard.
type shardOp struct {
	insert bool
	keys   []uint64
}

// routeKeys splits a packed edge batch across the fixed interior boundary
// table exactly as the router does (first boundary strictly above the key;
// keys at or above every boundary go to the last shard).
func routeKeys(bounds []uint64, shards int, keys []uint64) [][]uint64 {
	out := make([][]uint64, shards)
	for _, k := range keys {
		p := sort.Search(len(bounds), func(i int) bool { return k < bounds[i] })
		out[p] = append(out[p], k)
	}
	return out
}

func packAll(t *testing.T, edges []workload.Edge) []uint64 {
	t.Helper()
	keys, err := packEdges(edges)
	if err != nil {
		t.Fatalf("packEdges: %v", err)
	}
	return keys
}

func modelEquals(model map[uint64]bool, keys []uint64) bool {
	if len(model) != len(keys) {
		return false
	}
	for _, k := range keys {
		if !model[k] {
			return false
		}
	}
	return true
}

// TestStreamingDifferential is the streaming-graph differential harness:
// insert/delete edge batches flow through the async sharded pipeline with
// no Flush between analytics rounds, and every mid-stream View must be (a)
// a per-shard FIFO prefix cut of the routed batch history, advancing
// monotonically across rounds, (b) byte-identical to a single-CPMA
// fgraph.Graph built on the captured edge set for BFS, PageRank, and CC,
// and (c) consistent with a sorted-slice adjacency model for Degree and
// Neighbors. A final Flush must land every shard on the full history.
func TestStreamingDifferential(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			streamingDifferential(t, shards)
		})
	}
}

func streamingDifferential(t *testing.T, shards int) {
	const (
		scale  = 9
		rounds = 24
		batch  = 800
	)
	nv := 1 << scale

	// Rebalancing stays off (the default) so the boundary table is fixed
	// for the whole run and the scripted routing below stays valid.
	g := NewSharded(nv, shards, nil)
	defer g.Close()
	bounds := g.Set().Snapshot().Bounds()

	stream := workload.NewEdgeStream(99, scale, 0.2)

	// Per-shard scripted history and the model's position in it.
	history := make([][]shardOp, shards)
	pos := make([]int, shards)
	model := make([]map[uint64]bool, shards)
	for p := range model {
		model[p] = map[uint64]bool{}
	}

	applyOp := func(p int) {
		op := history[p][pos[p]]
		for _, k := range op.keys {
			if op.insert {
				model[p][k] = true
			} else {
				delete(model[p], k)
			}
		}
		pos[p]++
	}

	// verifyView checks one captured view against the scripted history and
	// the single-CPMA reference.
	verifyView := func(round int, v *View, requireFull bool) {
		// (a) Each frozen shard handle must equal the model after some
		// prefix of that shard's op history, at or past the last matched
		// position (FIFO: a shard never un-applies a batch).
		sets := v.Snapshot().ShardSets()
		if len(sets) != shards {
			t.Fatalf("round %d: snapshot has %d shards, want %d", round, len(sets), shards)
		}
		for p := 0; p < shards; p++ {
			keys := sets[p].Keys()
			for !modelEquals(model[p], keys) {
				if pos[p] >= len(history[p]) {
					t.Fatalf("round %d shard %d: captured state matches no prefix of the batch history (pos %d)",
						round, p, pos[p])
				}
				applyOp(p)
			}
			if requireFull && pos[p] != len(history[p]) {
				t.Fatalf("round %d shard %d: flushed view stopped at prefix %d/%d",
					round, p, pos[p], len(history[p]))
			}
		}

		// (b) Kernel results must be byte-identical to the phased
		// single-CPMA graph holding exactly the captured edge set.
		union := v.Snapshot().Keys()
		unionEdges := make([]workload.Edge, len(union))
		for i, k := range union {
			unionEdges[i] = workload.Edge{Src: uint32(k >> 32), Dst: uint32(k)}
		}
		ref := FromEdges(nv, unionEdges, nil)
		ref.EnsureIndex()
		if ref.NumEdges() != v.NumEdges() {
			t.Fatalf("round %d: reference holds %d edges, view %d", round, ref.NumEdges(), v.NumEdges())
		}
		wantBFS, gotBFS := graph.BFS(ref, 1), graph.BFS(v, 1)
		wantPR, gotPR := graph.PageRank(ref, 5), graph.PageRank(v, 5)
		wantCC, gotCC := graph.ConnectedComponents(ref), graph.ConnectedComponents(v)
		for i := 0; i < nv; i++ {
			if gotBFS[i] != wantBFS[i] {
				t.Fatalf("round %d: BFS[%d] = %d, want %d", round, i, gotBFS[i], wantBFS[i])
			}
			if gotPR[i] != wantPR[i] {
				t.Fatalf("round %d: PR[%d] not bit-identical: %x vs %x", round, i, gotPR[i], wantPR[i])
			}
			if gotCC[i] != wantCC[i] {
				t.Fatalf("round %d: CC[%d] = %d, want %d", round, i, gotCC[i], wantCC[i])
			}
		}

		// (c) Degree/Neighbors must agree with a plain sorted-slice
		// adjacency model of the captured keys.
		adj := make([][]uint32, nv)
		for _, k := range union {
			adj[k>>32] = append(adj[k>>32], uint32(k))
		}
		for u := 0; u < nv; u++ {
			if v.Degree(uint32(u)) != len(adj[u]) {
				t.Fatalf("round %d: Degree(%d) = %d, model %d", round, u, v.Degree(uint32(u)), len(adj[u]))
			}
			i := 0
			v.Neighbors(uint32(u), func(w uint32) bool {
				if i >= len(adj[u]) || adj[u][i] != w {
					t.Fatalf("round %d: Neighbors(%d)[%d] = %d, model %v", round, u, i, w, adj[u])
				}
				i++
				return true
			})
			if i != len(adj[u]) {
				t.Fatalf("round %d: Neighbors(%d) stopped at %d/%d", round, u, i, len(adj[u]))
			}
		}
	}

	for round := 0; round < rounds; round++ {
		ins, del := stream.Next(batch)
		insKeys := packAll(t, ins)
		if err := g.InsertEdges(ins); err != nil {
			t.Fatalf("round %d: InsertEdges: %v", round, err)
		}
		for p, ks := range routeKeys(bounds, shards, insKeys) {
			if len(ks) > 0 {
				history[p] = append(history[p], shardOp{insert: true, keys: ks})
			}
		}
		if len(del) > 0 {
			delKeys := packAll(t, del)
			if err := g.DeleteEdges(del); err != nil {
				t.Fatalf("round %d: DeleteEdges: %v", round, err)
			}
			for p, ks := range routeKeys(bounds, shards, delKeys) {
				if len(ks) > 0 {
					history[p] = append(history[p], shardOp{insert: false, keys: ks})
				}
			}
		}
		// Capture and verify mid-stream — no Flush: the async writers are
		// draining these batches while we check the cut.
		verifyView(round, g.View(), false)
	}

	g.Flush()
	verifyView(rounds, g.View(), true)
	if lag := g.View().LagKeys(); lag != 0 {
		t.Fatalf("post-flush view reports lag %d", lag)
	}
}
