package main

import (
	"time"

	"repro"
)

// core-batch isolates the paper's structure: one Set (a CPMA with no
// shard, persist or replication layer) built from a sorted preload takes
// large unsorted insert and remove batches, and between them serves range
// and point reads on a state exactly equal to the preload.

type coreCfg struct {
	Preload   int   `json:"preload_keys"`
	KeyBits   int   `json:"key_bits"`
	BatchKeys int   `json:"batch_keys"`
	BatchPool int   `json:"batch_pool"`
	RangeKeys int   `json:"range_keys"`
	Queries   int   `json:"range_queries_per_round"`
	Probes    int   `json:"probes_per_round"`
	SweepKeys int   `json:"sweep_keys"`
	Sweep     []int `json:"sweep_batch_sizes"`
}

var coreScales = map[string]coreCfg{
	"default": {Preload: 4_000_000, KeyBits: 40, BatchKeys: 100_000, BatchPool: 8, RangeKeys: 1000,
		Queries: 1000, Probes: 40_000, SweepKeys: 400_000, Sweep: []int{100, 1000, 10_000, 100_000}},
	"smoke": {Preload: 20_000, KeyBits: 40, BatchKeys: 1000, BatchPool: 4, RangeKeys: 50,
		Queries: 100, Probes: 2000, SweepKeys: 2000, Sweep: []int{100, 1000}},
}

// sweepMetric names the batch-size sweep's metric for each batch size.
var sweepMetric = map[int]string{
	100: "cpma.insert_keys_per_s.b100", 1000: "cpma.insert_keys_per_s.b1k",
	10_000: "cpma.insert_keys_per_s.b10k", 100_000: "cpma.insert_keys_per_s.b100k",
}

type coreState struct {
	cfg     coreCfg
	in      *readInputs
	batches [][]uint64
	set     *repro.Set
}

func runCoreBatch(r *runner) error {
	cfg := coreScales[r.scale]
	r.params = cfg
	st, err := setUp(r, func() (*coreState, error) {
		rng := repro.NewRNG(r.seed)
		preload := residueKeys(rng, cfg.Preload, cfg.KeyBits, 0)
		return &coreState{
			cfg:     cfg,
			in:      newReadInputs(rng, preload, cfg.KeyBits, cfg.RangeKeys),
			batches: freshBatches(rng, cfg.BatchPool, cfg.BatchKeys, cfg.KeyBits, 1),
			set:     repro.SetFromSorted(preload, nil),
		}, nil
	}, func(*coreState) {})
	if err != nil {
		return err
	}
	return r.measure(func(budget time.Duration, tr *tracer) (float64, error) {
		return st.pass(r, budget, tr), nil
	})
}

// pass runs rounds until the budget is spent, then validates the
// structure. A round inserts a batch and removes it again, then reads the
// set, which again equals the preload. It returns the write rate.
func (st *coreState) pass(r *runner, budget time.Duration, tr *tracer) float64 {
	cfg, set, in := st.cfg, st.set, st.in
	k := tr.track("main")
	k.start()
	defer k.stop()
	deadline := time.Now().Add(budget)

	var batchLat durs
	var writeRates []float64 // key-ops per second of each insert+remove pair
	var rr readRates
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		b := st.batches[i%len(st.batches)]
		t := k.begin("cpma.insert")
		n := set.InsertBatch(b, false)
		di := k.end(t)
		r.chk.check(n == len(b), "core-batch: InsertBatch added %d of %d fresh keys", n, len(b))
		t = k.begin("cpma.remove")
		n = set.RemoveBatch(b, false)
		dr := k.end(t)
		r.chk.check(n == len(b), "core-batch: RemoveBatch removed %d of %d keys", n, len(b))
		batchLat.add(di)
		batchLat.add(dr)
		writeRates = append(writeRates, float64(2*len(b))/(di+dr).Seconds())

		for q := 0; q < cfg.Queries; q += rangeChunk {
			answers := rr.rangeUnit(k, set, in, i*cfg.Queries+q)
			t := k.begin("bench.verify")
			checkRanges(r, answers[:], in)
			k.end(t)
		}
		for p := 0; p < cfg.Probes; p += pointChunk {
			rr.pointUnit(r, k, set, in, i*cfg.Probes+p)
		}
	}

	t := k.begin("cpma.validate")
	err := set.Validate()
	k.end(t)
	r.chk.check(err == nil, "core-batch: Validate: %v", err)
	r.chk.check(set.Len() == len(in.preload), "core-batch: Len %d after the rounds, want the preload's %d", set.Len(), len(in.preload))

	writeRate := pct(writeRates, rateQuantile)
	rr.report(r, tr)
	if tr == nil {
		r.setRate("write_keys_per_s", writeRates)
		r.setPct("write_p50_ms", batchLat, 0.5)
		r.setPct("write_p90_ms", batchLat, 0.9)
		r.set("bytes_per_key", float64(set.SizeBytes())/float64(set.Len()), set.Len())
		return writeRate
	}
	st.sweep(r, k)
	ins, rem := tr.durations("cpma.insert"), tr.durations("cpma.remove")
	r.set("cpma.apply_busy_s", (tr.busy("cpma.insert") + tr.busy("cpma.remove")).Seconds(), len(ins)+len(rem))
	r.setPct("cpma.insert_ms_p50", ins, 0.5)
	r.setPct("cpma.remove_ms_p50", rem, 0.5)
	return writeRate
}

// sweep inserts and removes the same keys at each batch size: the paper's
// batch-amortization curve (Fig. 1). Traced passes only.
func (st *coreState) sweep(r *runner, k *track) {
	var keys []uint64
	for _, b := range st.batches {
		keys = append(keys, b...)
	}
	keys = keys[:min(st.cfg.SweepKeys, len(keys))]
	for _, size := range st.cfg.Sweep {
		var insTime time.Duration
		for _, kind := range []string{"cpma.insert_sweep", "cpma.remove_sweep"} {
			changed := 0
			for off := 0; off < len(keys); off += size {
				b := keys[off:min(off+size, len(keys))]
				t := k.begin(kind)
				if kind == "cpma.insert_sweep" {
					changed += st.set.InsertBatch(b, false)
					insTime += k.end(t)
				} else {
					changed += st.set.RemoveBatch(b, false)
					k.end(t)
				}
			}
			r.chk.check(changed == len(keys), "core-batch: %s at batch size %d changed %d of %d keys", kind, size, changed, len(keys))
		}
		r.set(sweepMetric[size], float64(len(keys))/insTime.Seconds(), len(keys))
	}
}

// scaled returns samples multiplied by f (ms to µs with f = 1e3).
func scaled(samples []float64, f float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s * f
	}
	return out
}
