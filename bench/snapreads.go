package main

import (
	"errors"
	"sync"
	"time"

	"repro"
)

// snapshot-reads is dominated by reads, as in the paper's Fig. 2: one
// closed-loop reader takes a snapshot of an in-memory async range-sharded
// set, then runs range sums and point probes on it, while an open-loop
// writer inserts and removes small batches on a fixed schedule, so copy-on-
// write publications happen under the reads.

type snapCfg struct {
	Shards       int `json:"shards"`
	KeyBits      int `json:"key_bits"`
	Preload      int `json:"preload_keys"`
	RangeKeys    int `json:"range_keys"`
	Queries      int `json:"range_queries_per_round"`
	Probes       int `json:"probes_per_round"`
	RecountEvery int `json:"recount_every"`
	WriterKeys   int `json:"writer_batch_keys"`
	WriterEvery  int `json:"writer_every_ms"`
	WriterLag    int `json:"writer_remove_after_steps"`
	WriterPool   int `json:"writer_batch_pool"`
}

var snapScales = map[string]snapCfg{
	"default": {Shards: 4, KeyBits: 40, Preload: 4_000_000, RangeKeys: 1000, Queries: 1000, Probes: 20_000,
		RecountEvery: 64, WriterKeys: 1000, WriterEvery: 10, WriterLag: 8, WriterPool: 64},
	"smoke": {Shards: 4, KeyBits: 40, Preload: 20_000, RangeKeys: 50, Queries: 100, Probes: 2000,
		RecountEvery: 8, WriterKeys: 100, WriterEvery: 10, WriterLag: 8, WriterPool: 32},
}

// rangePartition is shard.RangePartition, which the repro package does not
// re-export; set-up checks the set really is range-partitioned.
const rangePartition = 1

type snapState struct {
	cfg     snapCfg
	in      *readInputs
	batches [][]uint64 // the writer's keys, ≡1 (mod 4)
	set     *repro.ShardedSet
	m       *repro.Metrics
	step    int // the writer's next step, continued across passes
}

func runSnapshotReads(r *runner) error {
	cfg := snapScales[r.scale]
	r.params = cfg
	st, err := setUp(r, func() (*snapState, error) {
		rng := repro.NewRNG(r.seed)
		preload := residueKeys(rng, cfg.Preload, cfg.KeyBits, 0)
		st := &snapState{
			cfg:     cfg,
			in:      newReadInputs(rng, preload, cfg.KeyBits, cfg.RangeKeys),
			batches: freshBatches(rng, cfg.WriterPool, cfg.WriterKeys, cfg.KeyBits, 1),
			set: repro.NewShardedSetWith(cfg.Shards, &repro.ShardedSetOptions{
				Partition: rangePartition, KeyBits: cfg.KeyBits, Async: true,
			}),
			m: repro.NewMetrics("snapshot-reads"),
		}
		if !st.set.Snapshot().RangePartitioned() {
			st.set.Close()
			return nil, errors.New("the set is not range-partitioned")
		}
		st.set.InsertBatch(preload, true)
		repro.Observe(st.set, st.m, "cpma")
		return st, nil
	}, func(st *snapState) { st.set.Close() })
	if err != nil {
		return err
	}
	defer st.set.Close()
	if err := r.measure(func(budget time.Duration, tr *tracer) (float64, error) {
		return st.pass(r, budget, tr), nil
	}); err != nil {
		return err
	}
	st.set.Flush()
	sn := st.set.Snapshot()
	preloaded := 0
	sn.Map(func(k uint64) bool {
		if k&3 == 0 {
			preloaded++
		}
		return true
	})
	r.chk.check(preloaded == len(st.in.preload), "snapshot-reads: %d preload keys at the end, want %d", preloaded, len(st.in.preload))
	err = sn.Validate()
	r.chk.check(err == nil, "snapshot-reads: final snapshot Validate: %v", err)
	return nil
}

// writerStats is what the open-loop writer measured in one pass.
type writerStats struct {
	lat, late durs      // due time to Flush return; how late each step started
	rates     []float64 // keys per second of each step's enqueue and Flush
}

// pass runs the reader on this goroutine and the writer on another until
// the budget is spent, and returns the writer's rate.
func (st *snapState) pass(r *runner, budget time.Duration, tr *tracer) float64 {
	cfg, in := st.cfg, st.in
	before := scrape(st.m)
	start := time.Now()
	deadline := start.Add(budget)
	var ws writerStats
	var wg sync.WaitGroup
	wg.Add(1)
	wk := tr.track("writer")
	go func() {
		defer wg.Done()
		ws = st.write(start, deadline, wk)
	}()

	k := tr.track("reader")
	k.start()
	var rr readRates
	q := 0
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		t := k.begin("shard.capture")
		sn := st.set.Snapshot()
		k.end(t)
		for range cfg.Queries / rangeChunk {
			answers := rr.rangeUnit(k, sn, in, q)
			// The snapshot also holds the writer's keys, so a query is
			// checked by recounting its range on the same snapshot. Only
			// recounted queries are verified, so only they count as
			// attempted.
			t := k.begin("bench.verify")
			for i, s := range answers {
				if (q+i)%cfg.RecountEvery != 0 {
					continue
				}
				var gotSum uint64
				gotCnt, preloaded := 0, 0
				sn.MapRange(s.a, s.a+in.width, func(x uint64) bool {
					gotSum += x
					gotCnt++
					if x&3 == 0 {
						preloaded++
					}
					return true
				})
				_, want := in.expect(s.a, s.a+in.width)
				r.chk.check(s.sum == gotSum && s.cnt == gotCnt && preloaded == want,
					"snapshot-reads: RangeSum[%d,%d) = (%d, %d), recount (%d, %d) with %d preload keys, want %d",
					s.a, s.a+in.width, s.sum, s.cnt, gotSum, gotCnt, preloaded, want)
			}
			k.end(t)
			q += rangeChunk
		}
		for p := 0; p < cfg.Probes; p += pointChunk {
			rr.pointUnit(r, k, sn, in, round*cfg.Probes+p)
		}
	}
	k.stop()
	wg.Wait()

	writeRate := pct(ws.rates, rateQuantile)
	rr.report(r, tr)
	if tr == nil {
		r.setRate("write_keys_per_s", ws.rates)
		r.setPct("write_p50_ms", ws.lat, 0.5)
		r.setPct("write_p90_ms", ws.lat, 0.9)
		sn := st.set.Snapshot()
		r.set("bytes_per_key", float64(sn.SizeBytes())/float64(sn.Len()), sn.Len())
		return writeRate
	}
	reportShardLayer(r, tr, scrape(st.m).since(before), "cpma")
	r.setPct("bench.writer_late_ms_p99", ws.late, 0.99)
	r.setPct("bench.writer_late_ms_max", ws.late, 1)
	return writeRate
}

// write runs the open-loop writer: a step is due every WriterEvery ms. For
// WriterLag steps it inserts a fresh batch, for the next WriterLag it
// removes the batch inserted WriterLag steps earlier, and so on, so the set
// size stays stationary. A step's latency runs from when it was due to when
// its Flush returns, so a stall also counts against the steps it delays;
// its rate counts only its own enqueue and Flush.
func (st *snapState) write(start, deadline time.Time, k *track) writerStats {
	cfg := st.cfg
	every := time.Duration(cfg.WriterEvery) * time.Millisecond
	var ws writerStats
	k.start()
	defer k.stop()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if !due.Before(deadline) {
			break
		}
		t := k.begin("bench.wait")
		time.Sleep(time.Until(due))
		k.end(t)
		ws.late.add(time.Since(due))
		step := st.step
		st.step++
		t0 := time.Now()
		t = k.begin("shard.enqueue")
		var b []uint64
		if (step/cfg.WriterLag)%2 == 0 {
			b = st.batches[step%len(st.batches)]
			st.set.InsertBatchAsync(b, false)
		} else {
			b = st.batches[(step-cfg.WriterLag)%len(st.batches)]
			st.set.RemoveBatchAsync(b, false)
		}
		k.end(t)
		t = k.begin("shard.flush")
		st.set.Flush()
		k.end(t)
		ws.rates = append(ws.rates, float64(len(b))/time.Since(t0).Seconds())
		ws.lat.add(time.Since(due))
	}
	return ws
}
