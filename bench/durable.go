package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro"
)

// durable-ingest drives the full write path: accepted → durable → visible
// in a snapshot → applied on a follower. Closed-loop clients commit
// batches (enqueue, then Flush) to a durable primary with one in-process
// follower; at fixed points of the stream both clients meet and one
// explicit checkpoint runs, so the WAL tail recovery replays has a fixed
// length. After the follower catches up, range and point reads run on its
// snapshot, and the store is closed and reopened several times. Each
// episode does the same fixed work on a fresh store, and episodes repeat
// until the budget is spent.

type durableCfg struct {
	Shards           int       `json:"shards"`
	Clients          int       `json:"clients"`
	Commits          int       `json:"commits_per_client"`
	BatchesPerCommit int       `json:"batches_per_commit"`
	BatchKeys        int       `json:"batch_keys"`
	KeyBits          int       `json:"key_bits"`
	RangeKeys        int       `json:"range_keys"`
	Queries          int       `json:"range_queries_per_episode"`
	Probes           int       `json:"probes_per_episode"`
	Reopens          int       `json:"reopens_per_episode"`
	CheckpointAt     []float64 `json:"checkpoint_at"`
}

var durableScales = map[string]durableCfg{
	"default": {Shards: 4, Clients: 2, Commits: 100, BatchesPerCommit: 8, BatchKeys: 500, KeyBits: 40,
		RangeKeys: 1000, Queries: 2000, Probes: 20_000, Reopens: 3, CheckpointAt: []float64{0.25, 0.50, 0.75, 0.90}},
	"smoke": {Shards: 4, Clients: 2, Commits: 8, BatchesPerCommit: 2, BatchKeys: 100, KeyBits: 40,
		RangeKeys: 50, Queries: 100, Probes: 1000, Reopens: 2, CheckpointAt: []float64{0.25, 0.50, 0.75, 0.90}},
}

// durableOpts opens stores with the default group commit and no background
// checkpointer: checkpoints happen only at the workload's fixed points.
var durableOpts = repro.ShardedSetOptions{CheckpointEveryBatches: -1}

type durableState struct {
	cfg     durableCfg
	dir     string
	commits [][][][]uint64 // [client][commit][batch] keys
	keys    int            // keys across all commits
	model   []uint64       // the sorted distinct keys of every commit
	sum     uint64
	in      *readInputs  // reads of the follower, checked against the model
	node    *durableNode // opened by set-up, taken by the first episode
}

// durableNode is one episode's store: the primary, its follower and the
// link between them, all observed by one registry.
type durableNode struct {
	set  *repro.ShardedSet
	f    *repro.ReplFollower
	link *repro.ReplLink
	m    *repro.Metrics
}

func openNode(dir string, shards int) (*durableNode, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	set, pr, err := repro.OpenPrimary(dir, shards, &durableOpts)
	if err != nil {
		return nil, err
	}
	n := &durableNode{set: set, f: repro.OpenFollower(shards, nil), m: repro.NewMetrics("durable-ingest")}
	repro.Observe(set, n.m, "cpma")
	pr.RegisterMetrics(n.m, "repl")
	n.f.RegisterMetrics(n.m, "follower")
	if n.link, err = repro.PairReplica(pr, n.f, nil); err != nil {
		set.Close()
		return nil, err
	}
	return n, nil
}

// close stops replication and closes the primary, returning the first
// error either reports.
func (n *durableNode) close() error {
	linkErr := n.link.Close()
	n.set.Close()
	return errors.Join(linkErr, n.link.Err(), n.set.PersistErr())
}

func runDurable(r *runner) error {
	cfg := durableScales[r.scale]
	r.params = cfg
	dir := filepath.Join(r.workdir, fmt.Sprintf("durable-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := setUp(r, func() (*durableState, error) {
		st := &durableState{cfg: cfg, dir: dir}
		rng := repro.NewRNG(r.seed)
		st.commits = make([][][][]uint64, cfg.Clients)
		for c := range st.commits {
			st.commits[c] = make([][][]uint64, cfg.Commits)
			for j := range st.commits[c] {
				for range cfg.BatchesPerCommit {
					b := repro.UniformKeys(rng, cfg.BatchKeys, cfg.KeyBits)
					st.commits[c][j] = append(st.commits[c][j], b)
					st.model = append(st.model, b...)
					st.keys += len(b)
				}
			}
		}
		slices.Sort(st.model)
		st.model = slices.Compact(st.model)
		for _, k := range st.model {
			st.sum += k
		}
		st.in = newReadInputs(rng, st.model, cfg.KeyBits, cfg.RangeKeys)
		node, err := openNode(dir, cfg.Shards)
		st.node = node
		return st, err
	}, func(st *durableState) { st.node.close() })
	if err != nil {
		return err
	}
	return r.measure(func(budget time.Duration, tr *tracer) (float64, error) {
		return st.pass(r, budget, tr)
	})
}

// durableEp is what one episode measured.
type durableEp struct {
	keys     int
	wall     time.Duration // first enqueue to the follower caught up
	commits  durs
	bytes    float64 // bytes per key of the primary at the end
	catchup  time.Duration
	lag      []float64 // follower lag in records, sampled while tracing
	replayed []float64 // keys replayed by each reopen
	reg      regSnap   // the registry at the end of ingest
}

func (st *durableState) pass(r *runner, budget time.Duration, tr *tracer) (float64, error) {
	deadline := time.Now().Add(budget)
	var eps []durableEp
	var rr readRates
	var est time.Duration
	for !deadlineReached(deadline, est, len(eps)) {
		t0 := time.Now()
		ep, err := st.episode(r, tr, &rr, len(eps))
		if err != nil {
			return 0, err
		}
		eps = append(eps, ep)
		est = max(est, time.Since(t0))
	}

	var writeRates, commits, bytes, catchup, lag, replayed []float64
	keys := 0
	reg := regSnap{}
	for _, ep := range eps {
		keys += ep.keys
		writeRates = append(writeRates, float64(ep.keys)/ep.wall.Seconds())
		commits = append(commits, ep.commits...)
		bytes = append(bytes, ep.bytes)
		catchup = append(catchup, ms(ep.catchup))
		lag = append(lag, ep.lag...)
		replayed = append(replayed, ep.replayed...)
		reg.merge(ep.reg)
	}
	writeRate := pct(writeRates, rateQuantile)
	rr.report(r, tr)
	if tr == nil {
		r.setRate("write_keys_per_s", writeRates)
		r.setPct("write_p50_ms", commits, 0.5)
		r.setPct("write_p90_ms", commits, 0.9)
		r.setPct("bytes_per_key", bytes, 0.5)
		return writeRate, nil
	}
	reportShardLayer(r, tr, reg, "cpma")
	appendedKeys := reg["cpma_persist_appended_keys"].value
	fsyncs := int(reg["cpma_wal_fsync_ns"].count)
	r.set("persist.wal_append_busy_s", reg.sumSeconds("cpma_wal_append_ns"), int(reg["cpma_wal_append_ns"].count))
	r.set("persist.wal_append_us_p50", reg.quantile("cpma_wal_append_ns", 0.5)/1e3, int(reg["cpma_wal_append_ns"].count))
	r.set("persist.wal_bytes_per_key", ratio(reg["cpma_persist_appended_bytes"].value, appendedKeys), int(appendedKeys))
	r.set("persist.fsyncs", reg["cpma_persist_fsyncs"].value, int(reg["cpma_persist_fsyncs"].value))
	r.set("persist.fsync_busy_s", reg.sumSeconds("cpma_wal_fsync_ns"), fsyncs)
	r.set("persist.fsync_ms_p50", reg.quantile("cpma_wal_fsync_ns", 0.5)/1e6, fsyncs)
	r.setPct("persist.checkpoint_ms_p50", tr.durations("persist.checkpoint"), 0.5)
	ckptBytes := reg["cpma_persist_checkpoint_bytes"].value + reg["cpma_persist_delta_bytes"].value
	r.set("persist.checkpoint_bytes_per_key", ckptBytes/float64(keys), keys)
	r.setPct("persist.replayed_keys", replayed, 0.5)
	r.setPct("persist.recover_ms_p50", tr.durations("persist.recover"), 0.5)
	r.set("repl.ship_busy_s", reg.sumSeconds("repl_ship_ns"), int(reg["repl_ship_ns"].count))
	r.set("repl.follower_apply_busy_s", reg.sumSeconds("follower_apply_ns"), int(reg["follower_apply_ns"].count))
	r.setPct("repl.lag_records_p50", slices.Clone(lag), 0.5)
	r.setPct("repl.lag_records_max", lag, 1)
	r.setPct("repl.catchup_ms", catchup, 0.5)
	return writeRate, nil
}

// episode runs the workload once on a fresh store and verifies it. It is
// the n-th episode of its pass.
func (st *durableState) episode(r *runner, tr *tracer, rr *readRates, n int) (durableEp, error) {
	cfg := st.cfg
	var ep durableEp
	node := st.node
	st.node = nil
	if node == nil {
		var err error
		if node, err = openNode(st.dir, cfg.Shards); err != nil {
			return ep, err
		}
	}

	// Both clients meet at each checkpoint point; the last to arrive runs
	// the checkpoint while the other waits.
	barAt := make([]int, len(cfg.CheckpointAt))
	bars := make([]*barrier, len(cfg.CheckpointAt))
	for i, f := range cfg.CheckpointAt {
		barAt[i] = int(f * float64(cfg.Commits))
		bars[i] = newBarrier(cfg.Clients)
	}
	lats := make([]durs, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range cfg.Clients {
		wg.Add(1)
		k := tr.track(fmt.Sprintf("client%d", c))
		go func() {
			defer wg.Done()
			k.start()
			defer k.stop()
			for j, commit := range st.commits[c] {
				if i := slices.Index(barAt, j); i >= 0 {
					bars[i].wait(k, func() {
						t := k.begin("persist.checkpoint")
						err := node.set.Checkpoint()
						k.end(t)
						r.chk.check(err == nil, "durable-ingest: Checkpoint: %v", err)
					})
				}
				t0 := time.Now()
				for _, b := range commit {
					t := k.begin("shard.enqueue")
					node.set.InsertBatchAsync(b, false)
					k.end(t)
				}
				t := k.begin("shard.flush")
				node.set.Flush()
				k.end(t)
				lats[c].add(time.Since(t0))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	if tr != nil {
		tick := time.NewTicker(10 * time.Millisecond)
	sample:
		for {
			select {
			case <-done:
				break sample
			case <-tick.C:
				ep.lag = append(ep.lag, scrape(node.m)["repl_lag_records"].value)
			}
		}
		tick.Stop()
	}
	<-done
	flushed := time.Now()

	k := tr.track("main")
	k.start()
	defer k.stop()
	t := k.begin("repl.catchup")
	for scrape(node.m)["repl_lag_records"].value != 0 {
		if node.link.Err() != nil {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	k.end(t)
	ep.wall = time.Since(start)
	ep.catchup = time.Since(flushed)
	ep.keys = st.keys
	for c := range cfg.Clients {
		ep.commits = append(ep.commits, lats[c]...)
	}
	r.chk.ops(cfg.Clients * cfg.Commits)

	t = k.begin("bench.verify")
	keys := node.set.Keys()
	r.chk.check(slices.Equal(keys, st.model), "durable-ingest: primary holds %d keys, model %d", len(keys), len(st.model))
	fsn := node.f.Snapshot()
	fkeys := fsn.Keys()
	r.chk.check(slices.Equal(fkeys, keys), "durable-ingest: follower holds %d keys, primary %d", len(fkeys), len(keys))
	k.end(t)
	for q := 0; q < cfg.Queries; q += rangeChunk {
		answers := rr.rangeUnit(k, fsn, st.in, n*cfg.Queries+q)
		t := k.begin("bench.verify")
		checkRanges(r, answers[:], st.in)
		k.end(t)
	}
	for p := 0; p < cfg.Probes; p += pointChunk {
		rr.pointUnit(r, k, fsn, st.in, n*cfg.Probes+p)
	}
	ep.bytes = float64(node.set.SizeBytes()) / float64(node.set.Len())
	ep.reg = scrape(node.m)
	err := node.close()
	r.chk.check(err == nil, "durable-ingest: closing the primary and its link: %v", err)

	for i := range cfg.Reopens {
		t := k.begin("persist.recover")
		set, err := repro.OpenDurableShardedSet(st.dir, cfg.Shards, &durableOpts)
		k.end(t)
		if err != nil {
			return ep, fmt.Errorf("reopen: %w", err)
		}
		t = k.begin("bench.verify")
		m := repro.NewMetrics("recovery")
		repro.Observe(set, m, "cpma")
		ep.replayed = append(ep.replayed, scrape(m)["cpma_persist_replayed_keys"].value)
		r.chk.check(set.Len() == len(st.model) && set.Sum() == st.sum,
			"durable-ingest: reopen %d recovered %d keys, want %d", i, set.Len(), len(st.model))
		if i == 0 {
			r.chk.check(slices.Equal(set.Keys(), st.model), "durable-ingest: recovered keys differ from the model")
		}
		k.end(t)
		t = k.begin("persist.close")
		set.Close()
		k.end(t)
		r.chk.check(set.PersistErr() == nil, "durable-ingest: closing a reopened store: %v", set.PersistErr())
	}
	t = k.begin("bench.cleanup")
	err = os.RemoveAll(st.dir)
	k.end(t)
	return ep, err
}

// barrier lets a fixed number of goroutines meet once; the last to arrive
// runs the leader function before releasing the others.
type barrier struct {
	mu      sync.Mutex
	waiting int
	release chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{waiting: n, release: make(chan struct{})} }

func (b *barrier) wait(k *track, leader func()) {
	b.mu.Lock()
	b.waiting--
	last := b.waiting == 0
	b.mu.Unlock()
	if last {
		leader()
		close(b.release)
		return
	}
	t := k.begin("bench.barrier")
	<-b.release
	k.end(t)
}
