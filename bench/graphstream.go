package main

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// graph-stream is the paper's application: one client streams R-MAT edge
// batches with deletes into a sharded F-Graph while one analyst loops View
// and BFS on mid-stream snapshots; after Flush, View, BFS and PageRank run
// on the flushed graph, then neighbor scans and edge probes on its view.
// Kernel latencies are taken on the flushed graph only, because analytics
// during the stream depend on how far ingest has got. Each episode does
// the same fixed work on a fresh graph, and episodes repeat until the
// budget is spent.

type graphCfg struct {
	Shards     int     `json:"shards"`
	Scale      int     `json:"scale"`
	Batches    int     `json:"batches"`
	BatchEdges int     `json:"batch_edges"`
	DeleteFrac float64 `json:"delete_frac"`
	Rounds     int     `json:"flushed_rounds"`
	PRIters    int     `json:"pagerank_iters"`
	Scans      int     `json:"neighbor_scans_per_episode"`
	Probes     int     `json:"probes_per_episode"`
}

var graphScales = map[string]graphCfg{
	"default": {Shards: 4, Scale: 17, Batches: 32, BatchEdges: 25_000, DeleteFrac: 0.2, Rounds: 8, PRIters: 10,
		Scans: 20_000, Probes: 20_000},
	"smoke": {Shards: 4, Scale: 10, Batches: 4, BatchEdges: 500, DeleteFrac: 0.2, Rounds: 2, PRIters: 3,
		Scans: 1000, Probes: 1000},
}

// bfsSource is the BFS root of every kernel run.
const bfsSource = 1

// scanChunk is how many vertices' neighbor scans one timed unit holds.
const scanChunk = 1000

type graphBatch struct{ ins, del []repro.Edge }

type graphState struct {
	cfg     graphCfg
	batches []graphBatch
	g       *repro.ShardedFGraph // created by set-up, taken by the first episode
	m       *repro.Metrics

	// The reference: a single-CPMA FGraph replay of the stream, and its
	// kernel results, computed once. in holds its edge keys and the
	// probes; scans the vertices whose neighbors are scanned.
	refKeys []uint64
	refBFS  []int32
	refPR   []float64
	in      *readInputs
	scans   []uint32
}

func (st *graphState) newGraph() {
	st.g = repro.NewShardedFGraph(1<<st.cfg.Scale, st.cfg.Shards, nil)
	st.m = repro.NewMetrics("graph-stream")
	st.g.RegisterMetrics(st.m, "fgraph")
}

func runGraphStream(r *runner) error {
	cfg := graphScales[r.scale]
	r.params = cfg
	st, err := setUp(r, func() (*graphState, error) {
		st := &graphState{cfg: cfg}
		stream := repro.NewEdgeStream(r.seed, cfg.Scale, cfg.DeleteFrac)
		for range cfg.Batches {
			ins, del := stream.Next(cfg.BatchEdges)
			st.batches = append(st.batches, graphBatch{ins, del})
		}
		st.newGraph()
		return st, nil
	}, func(st *graphState) { st.g.Close() })
	if err != nil {
		return err
	}
	st.reference(repro.NewRNG(r.seed))
	return r.measure(func(budget time.Duration, tr *tracer) (float64, error) {
		return st.pass(r, budget, tr), nil
	})
}

// graphEp is what one episode measured.
type graphEp struct {
	keys    int
	wall    time.Duration // first enqueue to Flush returned
	batches durs          // enqueue calls of one stream batch
	edges   int64         // edges of the flushed graph
	bytes   float64
	lag     []float64 // LagKeys of the analyst's mid-stream views
	bfsTime time.Duration
	prTime  time.Duration
	reg     regSnap
	scanned int // vertices whose neighbors were scanned
}

func (st *graphState) pass(r *runner, budget time.Duration, tr *tracer) float64 {
	deadline := time.Now().Add(budget)
	var eps []graphEp
	var rr readRates
	var est time.Duration
	for !deadlineReached(deadline, est, len(eps)) {
		t0 := time.Now()
		eps = append(eps, st.episode(r, tr, &rr, len(eps)))
		est = max(est, time.Since(t0))
	}

	var writeRates, batches, bytes, lag []float64
	roundEdges := 0.0
	var bfsTime, prTime time.Duration
	scanned := 0
	reg := regSnap{}
	for _, ep := range eps {
		writeRates = append(writeRates, float64(ep.keys)/ep.wall.Seconds())
		batches = append(batches, ep.batches...)
		scanned += ep.scanned
		roundEdges += float64(ep.edges) * float64(st.cfg.Rounds)
		bytes = append(bytes, ep.bytes)
		lag = append(lag, ep.lag...)
		bfsTime += ep.bfsTime
		prTime += ep.prTime
		reg.merge(ep.reg)
	}
	writeRate := pct(writeRates, rateQuantile)
	rr.report(r, tr)
	if tr == nil {
		r.setRate("write_keys_per_s", writeRates)
		r.setPct("write_p50_ms", batches, 0.5)
		r.setPct("write_p90_ms", batches, 0.9)
		r.setPct("bytes_per_key", bytes, 0.5)
		return writeRate
	}
	reportShardLayer(r, tr, reg, "fgraph_set")
	r.setPct("fgraph.view_ms_p50_streaming", tr.durations("fgraph.view_streaming"), 0.5)
	var lagSum float64
	for _, l := range lag {
		lagSum += l
	}
	r.set("fgraph.view_lag_keys_mean", ratio(lagSum, float64(len(lag))), len(lag))
	r.setPct("fgraph.view_lag_keys_max", lag, 1)
	r.set("fgraph.neighbors_ns_mean", tr.busy("fgraph.neighbors").Seconds()*1e9/float64(scanned), scanned)
	r.setPct("fgraph.view_ms_p50", tr.durations("fgraph.view"), 0.5)
	r.setPct("graph.bfs_ms_p50", tr.durations("graph.bfs"), 0.5)
	r.setPct("graph.pagerank_ms_p50", tr.durations("graph.pagerank"), 0.5)
	rounds := st.cfg.Rounds * len(eps)
	r.set("graph.bfs_edges_per_s", roundEdges/bfsTime.Seconds(), rounds)
	r.set("graph.pagerank_edge_iters_per_s", roundEdges*float64(st.cfg.PRIters)/prTime.Seconds(), rounds)
	return writeRate
}

// episode streams the batches into a fresh graph with the analyst running,
// then runs and verifies the kernels and the reads on the flushed graph.
// It is the n-th episode of its pass.
func (st *graphState) episode(r *runner, tr *tracer, rr *readRates, n int) graphEp {
	cfg := st.cfg
	var ep graphEp
	if st.g == nil {
		st.newGraph()
	}
	g, m := st.g, st.m
	st.g = nil
	defer g.Close()

	var ingesting atomic.Bool
	ingesting.Store(true)
	var wg sync.WaitGroup
	wg.Add(2)
	ik, ak := tr.track("ingest"), tr.track("analyst")
	go func() {
		defer wg.Done()
		defer ingesting.Store(false)
		ik.start()
		defer ik.stop()
		t0 := time.Now()
		for _, b := range st.batches {
			t := ik.begin("shard.enqueue")
			err := g.InsertEdges(b.ins)
			if err == nil && len(b.del) > 0 {
				err = g.DeleteEdges(b.del)
			}
			ep.batches.add(ik.end(t))
			r.chk.check(err == nil, "graph-stream: enqueueing a batch: %v", err)
			ep.keys += len(b.ins) + len(b.del)
		}
		t := ik.begin("shard.flush")
		g.Flush()
		ik.end(t)
		ep.wall = time.Since(t0)
	}()
	go func() {
		defer wg.Done()
		ak.start()
		defer ak.stop()
		for ingesting.Load() {
			t := ak.begin("fgraph.view_streaming")
			v := g.View()
			ak.end(t)
			ep.lag = append(ep.lag, float64(v.LagKeys()))
			t = ak.begin("graph.bfs_streaming")
			repro.BFS(v, bfsSource)
			ak.end(t)
		}
	}()
	wg.Wait()

	k := tr.track("main")
	k.start()
	defer k.stop()
	var v *repro.FGraphView
	for i := range cfg.Rounds {
		t := k.begin("fgraph.view")
		v = g.View()
		k.end(t)
		t = k.begin("graph.bfs")
		bfs := repro.BFS(v, bfsSource)
		db := k.end(t)
		t = k.begin("graph.pagerank")
		pr := repro.PageRank(v, cfg.PRIters)
		dp := k.end(t)
		ep.bfsTime += db
		ep.prTime += dp
		ep.edges = v.NumEdges()

		t = k.begin("bench.verify")
		if i == 0 {
			keys := v.Snapshot().Keys()
			r.chk.check(slices.Equal(keys, st.refKeys), "graph-stream: flushed graph holds %d edges, the replay %d", len(keys), len(st.refKeys))
			r.chk.check(v.LagKeys() == 0, "graph-stream: flushed view reports lag %d", v.LagKeys())
		}
		r.chk.check(slices.Equal(bfs, st.refBFS), "graph-stream: BFS differs from the replay's")
		r.chk.check(slices.EqualFunc(pr, st.refPR, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }),
			"graph-stream: PageRank is not bitwise equal to the replay's")
		k.end(t)
	}
	for i := 0; i < cfg.Scans; i += scanChunk {
		st.scanUnit(r, k, rr, v, n*cfg.Scans+i)
		ep.scanned += scanChunk
	}
	sn := v.Snapshot()
	for p := 0; p < cfg.Probes; p += pointChunk {
		rr.pointUnit(r, k, sn, st.in, n*cfg.Probes+p)
	}
	ep.bytes = float64(g.SizeBytes()) / float64(g.NumEdges())
	ep.reg = scrape(m)
	return ep
}

// reference replays the stream into a single-CPMA FGraph, applying each
// batch's inserts before its deletes as the sharded graph's per-shard FIFO
// order does, and runs the kernels on it. It then draws the reads from
// rng: vertices to scan, edge keys that are in the graph and vertex pairs
// that are not.
func (st *graphState) reference(rng *repro.RNG) {
	nv := 1 << st.cfg.Scale
	ref := repro.NewFGraph(nv)
	for _, b := range st.batches {
		ref.InsertEdges(b.ins)
		ref.DeleteEdges(b.del)
	}
	ref.EnsureIndex()
	st.refKeys = ref.Set().Keys()
	st.refBFS = repro.BFS(ref, bfsSource)
	st.refPR = repro.PageRank(ref, st.cfg.PRIters)

	st.in = indexKeys(st.refKeys)
	st.scans = make([]uint32, queryPool)
	for i := range st.scans {
		st.scans[i] = uint32(rng.Intn(nv))
	}
	for len(st.in.probes) < queryPool {
		miss := uint64(rng.Intn(nv))<<32 | uint64(rng.Intn(nv))
		if miss != 0 && !st.in.has(miss) {
			st.in.probes = append(st.in.probes, st.refKeys[rng.Intn(len(st.refKeys))], miss)
		}
	}
}

// scanUnit scans the neighbors of a unit of vertices, starting at vertex i
// of the pool, records the edges-per-second rate and checks each vertex's
// edge count and sum against the reference.
func (st *graphState) scanUnit(r *runner, k *track, rr *readRates, v *repro.FGraphView, i int) {
	type scan struct {
		u   uint32
		sum uint64
		cnt int
	}
	var out [scanChunk]scan
	edges := 0
	t := k.begin("fgraph.neighbors")
	for j := range out {
		u := st.scans[(i+j)%len(st.scans)]
		s := scan{u: u}
		v.Neighbors(u, func(w uint32) bool {
			s.sum += uint64(u)<<32 | uint64(w)
			s.cnt++
			return true
		})
		out[j] = s
		edges += s.cnt
	}
	d := k.end(t)
	rr.ranges = append(rr.ranges, float64(edges)/d.Seconds())
	t = k.begin("bench.verify")
	for _, s := range out {
		lo := uint64(s.u) << 32
		wantSum, wantCnt := st.in.expect(lo, lo+1<<32)
		r.chk.check(s.sum == wantSum && s.cnt == wantCnt,
			"graph-stream: vertex %d has %d neighbors summing to %d, the replay %d summing to %d", s.u, s.cnt, s.sum, wantCnt, wantSum)
	}
	k.end(t)
}
