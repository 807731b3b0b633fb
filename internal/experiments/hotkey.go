package experiments

// The hot-key absorption sweep. Hashing spreads spans, and range
// rebalancing spreads spans, but neither helps a single-key hotspot: all
// traffic for one key routes to one shard's writer, which then burns its
// time re-proving idempotent inserts against the CPMA. The absorber
// (Options.HotKeys) intercepts promoted keys before the structure and
// folds them in at publish boundaries, so the writer's per-occurrence
// cost collapses to a counter bump. This sweep streams skewed workloads
// (power-law, and explicit hot-spot mixes across hot fractions) through
// the async pipeline with the absorber off and on, measures ingest
// throughput, and differentially verifies the final contents against an
// exact model — the speedup only counts if the answers stay right.

import (
	"slices"
	"sync"

	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workload"
)

// HotKeyRow is one (workload, absorber off/on) measurement of the sweep.
type HotKeyRow struct {
	Workload     string  // "powerlaw-<s>" or "hotspot"
	HotFrac      float64 // hot-spot traffic fraction (0 for power-law rows)
	HotKeyCount  int     // distinct hot keys in the hot-spot generator
	Shards       int
	Clients      int
	Absorb       bool
	IngestTP     float64 // inserts / second (enqueue through final Flush)
	AbsorbedFrac float64 // absorbed occurrences / enqueued occurrences
	Promotions   uint64
	Demotions    uint64
	Reconciles   uint64
	FinalKeys    int
	Verified     bool    // exact differential check against the model
	P50ms        float64 `json:"p50_ms"` // median mailbox residency over the timed phase, ms
	P99ms        float64 `json:"p99_ms"` // p99 mailbox residency, ms
}

// hotKeyWorkload is one pre-generated workload the sweep runs twice
// (absorber off, then on) so both rows see identical batches.
type hotKeyWorkload struct {
	name    string
	hotFrac float64
	hotKeys int
	batches [][][]uint64 // [client][batch]keys
}

// ShardHotKeySweep measures absorber speedup across workloads: one
// power-law row pair (exponent s, unscrambled — the paper's
// skew-adversarial form, whose hottest keys dominate the stream) plus one
// hot-spot row pair per entry in hotFracs (hotKeys distinct hot keys).
// Each pair streams the same batches through `clients` goroutines with
// the absorber off and on; the first half of each stream is untimed
// warmup (the detector converges its promotions there) and the timed
// phase measures steady state. Every row is differentially verified:
// after the final Flush the set's contents must equal the exact model of
// the insert stream.
func ShardHotKeySweep(cfg MicroConfig, shards, clients, batchSize, hotKeys int, s float64, hotFracs []float64) []HotKeyRow {
	if shards < 1 {
		shards = 1
	}
	if clients < 1 {
		clients = 1
	}
	if batchSize < 1 {
		batchSize = 1
	}
	if hotKeys < 1 {
		hotKeys = 1
	}
	perClient := cfg.TotalK / clients
	if perClient < 1 {
		perClient = 1
	}

	gen := func(name string, hotFrac float64, next func(c int) func(n int) []uint64) hotKeyWorkload {
		w := hotKeyWorkload{name: name, hotFrac: hotFrac, hotKeys: hotKeys,
			batches: make([][][]uint64, clients)}
		for c := 0; c < clients; c++ {
			batch := next(c)
			for got := 0; got < perClient; got += batchSize {
				n := batchSize
				if perClient-got < n {
					n = perClient - got
				}
				w.batches[c] = append(w.batches[c], batch(n))
			}
		}
		return w
	}
	workloads := []hotKeyWorkload{
		gen("powerlaw-2.5", 0, func(c int) func(n int) []uint64 {
			z := workload.NewPowerLaw(workload.NewRNG(cfg.Seed+uint64(c)+1), RebalanceBits, s, false)
			return func(n int) []uint64 { return workload.PowerLawBatch(z, n) }
		}),
	}
	for _, f := range hotFracs {
		f := f
		workloads = append(workloads, gen("hotspot", f, func(c int) func(n int) []uint64 {
			h := workload.NewHotSpot(workload.NewRNG(cfg.Seed+uint64(c)+101), RebalanceBits, hotKeys, f)
			return func(n int) []uint64 { return workload.HotSpotBatch(h, n) }
		}))
	}

	var rows []HotKeyRow
	for _, w := range workloads {
		// The exact model: the stream is insert-only, so the final state is
		// the distinct-key set (skew keeps it far smaller than TotalK).
		model := map[uint64]bool{}
		for c := range w.batches {
			for _, b := range w.batches[c] {
				for _, k := range b {
					model[k] = true
				}
			}
		}
		want := make([]uint64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)

		for _, absorb := range []bool{false, true} {
			opt := &shard.Options{Partition: shard.HashPartition}
			if absorb {
				opt.HotKeys = true
				// A smaller-than-default detector window so promotions
				// converge inside the warmup half even at smoke sizes; the
				// steady-state absorbed path is what the timed phase sees.
				opt.HotKeyEvery = 1024
				if m := 2 * hotKeys; m > shard.DefaultHotKeyMax {
					opt.HotKeyMax = m
				}
			}
			set := shard.New(shards, opt)
			label := w.name
			if absorb {
				label += " absorb"
			}
			observeSet("hotkey "+label, set)
			run := func(phase func(batches [][]uint64) [][]uint64) {
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for _, b := range phase(w.batches[c]) {
							set.InsertBatchAsync(b, false)
						}
					}(c)
				}
				wg.Wait()
				set.Flush()
			}
			run(func(batches [][]uint64) [][]uint64 { return batches[:len(batches)/2] })
			timed := 0
			for c := range w.batches {
				for _, b := range w.batches[c][len(w.batches[c])/2:] {
					timed += len(b)
				}
			}
			// Best-of-Trials timed phase: re-streaming the same batches is
			// idempotent (set inserts), so repeats measure the identical
			// steady state and the max damps scheduler noise. Each trial
			// re-streams the timed half enough times that its duration
			// dwarfs fixed per-run costs (the final Flush, goroutine
			// spin-up), which otherwise swamp the absorbed path — it can
			// drain the whole half in single-digit milliseconds.
			trials := cfg.Trials
			if trials < 1 {
				trials = 1
			}
			reps := 1
			const repFloor = 4_000_000 // keys per trial, amortization target
			if timed > 0 && timed < repFloor {
				reps = (repFloor + timed - 1) / timed
				if reps > 16 {
					reps = 16
				}
			}
			var tp float64
			lat0 := set.PipelineLatencies()
			for tr := 0; tr < trials; tr++ {
				d := stats.Time(func() {
					for rep := 0; rep < reps; rep++ {
						run(func(batches [][]uint64) [][]uint64 { return batches[len(batches)/2:] })
					}
				})
				if t := stats.Throughput(timed*reps, d); t > tp {
					tp = t
				}
			}
			p50, p99, _ := residencyObs(set.PipelineLatencies().Sub(lat0).Residency)
			ist := set.IngestStats()
			verified := set.Len() == len(want) && slices.Equal(set.Keys(), want) &&
				ist.AppliedKeys+ist.AbsorbedKeys == ist.EnqueuedKeys &&
				set.Validate() == nil
			frac := 0.0
			if ist.EnqueuedKeys > 0 {
				frac = float64(ist.AbsorbedKeys) / float64(ist.EnqueuedKeys)
			}
			rows = append(rows, HotKeyRow{
				Workload:     w.name,
				HotFrac:      w.hotFrac,
				HotKeyCount:  w.hotKeys,
				Shards:       shards,
				Clients:      clients,
				Absorb:       absorb,
				IngestTP:     tp,
				AbsorbedFrac: frac,
				Promotions:   ist.HotKeys,
				Demotions:    ist.Demotions,
				Reconciles:   ist.ReconcileBatches,
				FinalKeys:    set.Len(),
				Verified:     verified,
				P50ms:        p50,
				P99ms:        p99,
			})
			set.Close()
		}
	}
	return rows
}
