package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpma"
	"repro/internal/parallel"
	"repro/internal/pma"
	"repro/internal/rma"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MicroConfig scales the set microbenchmarks. The paper starts every
// structure at 100M elements and inserts/deletes another 100M; the default
// here is 100x smaller so a run takes seconds.
type MicroConfig struct {
	BaseN  int    // elements preloaded before measurement
	TotalK int    // elements inserted/deleted during measurement
	Seed   uint64 // workload seed
	Trials int    // timed trials (after one warmup) for query benches
}

// DefaultMicro returns the scaled defaults.
func DefaultMicro() MicroConfig {
	return MicroConfig{BaseN: 1_000_000, TotalK: 1_000_000, Seed: 42, Trials: 3}
}

// BatchSizes are the paper's x-axis for Figures 1/10/11 (capped by config).
func BatchSizes(totalK int) []int {
	all := []int{10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	var out []int
	for _, b := range all {
		if b <= totalK {
			out = append(out, b)
		}
	}
	return out
}

// InsertRow is one batch-size measurement across systems.
type InsertRow struct {
	BatchSize  int
	Throughput map[string]float64 // system name -> inserts/second
}

// Fig1BatchInsert measures parallel batch-insert throughput as a function
// of batch size (Figure 1 / Table 9; zipf=true gives Figure 11 / Table 13).
func Fig1BatchInsert(makers []SetMaker, cfg MicroConfig, zipf bool) []InsertRow {
	var rows []InsertRow
	for _, bs := range BatchSizes(cfg.TotalK) {
		row := InsertRow{BatchSize: bs, Throughput: map[string]float64{}}
		for _, mk := range makers {
			r := workload.NewRNG(cfg.Seed)
			base := workload.Uniform(r, cfg.BaseN, workload.UniformBits)
			s := mk.New()
			s.InsertBatch(base, false)
			batches := makeBatches(r, cfg.TotalK, bs, zipf)
			d := stats.Time(func() {
				for _, b := range batches {
					s.InsertBatch(b, false)
				}
			})
			closeSet(s)
			row.Throughput[mk.Name] = stats.Throughput(cfg.TotalK, d)
		}
		rows = append(rows, row)
	}
	return rows
}

func makeBatches(r *workload.RNG, total, bs int, zipf bool) [][]uint64 {
	var z *workload.Zipf
	if zipf {
		z = workload.NewZipf(r, workload.ZipfBits, workload.ZipfTheta)
	}
	var out [][]uint64
	for done := 0; done < total; done += bs {
		n := bs
		if total-done < n {
			n = total - done
		}
		if zipf {
			out = append(out, workload.ZipfBatch(z, n))
		} else {
			out = append(out, workload.Uniform(r, n, workload.UniformBits))
		}
	}
	return out
}

// RangeRow is one range-length measurement across systems.
type RangeRow struct {
	AvgLen     int
	Throughput map[string]float64 // elements processed / second
}

// RangeLens mirrors Figure 2 / Table 10's x-axis: expected elements
// returned per query, from ~6 to ~2M (capped at n/4).
func RangeLens(n int) []int {
	all := []int{6, 50, 400, 3_000, 20_000, 200_000, 2_000_000}
	var out []int
	for _, l := range all {
		if l <= n/4 {
			out = append(out, l)
		}
	}
	return out
}

// Fig2RangeQuery measures parallel range-map throughput as a function of
// range length (Figure 2 / Table 10). queries are issued in parallel; each
// sums its range.
func Fig2RangeQuery(makers []SetMaker, cfg MicroConfig, queries int) []RangeRow {
	r := workload.NewRNG(cfg.Seed)
	base := workload.Uniform(r, cfg.BaseN, workload.UniformBits)
	systems := make([]Set, len(makers))
	for i, mk := range makers {
		systems[i] = mk.New()
		systems[i].InsertBatch(base, false)
	}
	keySpace := uint64(1) << workload.UniformBits
	var rows []RangeRow
	for _, avgLen := range RangeLens(cfg.BaseN) {
		span := uint64(float64(keySpace) * float64(avgLen) / float64(cfg.BaseN))
		starts := make([]uint64, queries)
		qr := workload.NewRNG(cfg.Seed + 1)
		for i := range starts {
			starts[i] = 1 + qr.Uint64()%(keySpace-span)
		}
		row := RangeRow{AvgLen: avgLen, Throughput: map[string]float64{}}
		for i, mk := range makers {
			s := systems[i]
			var elems int64
			d := stats.Trials(1, cfg.Trials, func() {
				var total int64
				parallel.For(len(starts), 4, func(q int) {
					_, cnt := s.RangeSum(starts[q], starts[q]+span)
					atomicAdd64(&total, int64(cnt))
				})
				elems = total
			})
			row.Throughput[mk.Name] = stats.Throughput(int(elems), d)
		}
		rows = append(rows, row)
	}
	for _, s := range systems {
		closeSet(s)
	}
	return rows
}

// Table3Row reports serial vs parallel batch inserts for the PMA.
type Table3Row struct {
	BatchSize  int
	SerialTP   float64
	ParallelTP float64
}

// Table3SerialVsParallel measures the PMA's batch-insert algorithm on one
// core and on all cores (Table 3).
func Table3SerialVsParallel(cfg MicroConfig) []Table3Row {
	var rows []Table3Row
	for _, bs := range BatchSizes(cfg.TotalK) {
		serial := runPMAInsertWithProcs(cfg, bs, 1)
		par := runPMAInsertWithProcs(cfg, bs, runtime.NumCPU())
		rows = append(rows, Table3Row{BatchSize: bs, SerialTP: serial, ParallelTP: par})
	}
	return rows
}

func runPMAInsertWithProcs(cfg MicroConfig, bs, procs int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r := workload.NewRNG(cfg.Seed)
	base := workload.Uniform(r, cfg.BaseN, workload.UniformBits)
	p := pma.New(nil)
	p.InsertBatch(base, false)
	batches := makeBatches(r, cfg.TotalK, bs, false)
	d := stats.Time(func() {
		for _, b := range batches {
			p.InsertBatch(b, false)
		}
	})
	return stats.Throughput(cfg.TotalK, d)
}

// Table4Row compares serial batch inserts: this paper's algorithm vs the
// RMA-style baseline.
type Table4Row struct {
	BatchSize int
	RMATP     float64
	PMATP     float64
}

// Table4RMA runs both serial batch-insert algorithms on one core (Table 4).
func Table4RMA(cfg MicroConfig) []Table4Row {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var rows []Table4Row
	for _, bs := range BatchSizes(cfg.TotalK) {
		r := workload.NewRNG(cfg.Seed)
		base := workload.Uniform(r, cfg.BaseN, workload.UniformBits)
		m := rma.New(0)
		m.InsertBatch(base, false)
		batches := makeBatches(r, cfg.TotalK, bs, false)
		dRMA := stats.Time(func() {
			for _, b := range batches {
				m.InsertBatch(b, false)
			}
		})

		r = workload.NewRNG(cfg.Seed)
		base = workload.Uniform(r, cfg.BaseN, workload.UniformBits)
		p := pma.New(nil)
		p.InsertBatch(base, false)
		batches = makeBatches(r, cfg.TotalK, bs, false)
		dPMA := stats.Time(func() {
			for _, b := range batches {
				p.InsertBatch(b, false)
			}
		})
		rows = append(rows, Table4Row{
			BatchSize: bs,
			RMATP:     stats.Throughput(cfg.TotalK, dRMA),
			PMATP:     stats.Throughput(cfg.TotalK, dPMA),
		})
	}
	return rows
}

// Table5Row reports insert and delete throughput for PMA and CPMA under a
// given distribution.
type Table5Row struct {
	BatchSize                                    int
	PMAInsert, PMADelete, CPMAInsert, CPMADelete float64
}

// Table5InsertDelete measures parallel batch inserts and deletes for the
// PMA and CPMA (Table 5; zipf selects the right half of the table).
func Table5InsertDelete(cfg MicroConfig, zipf bool) []Table5Row {
	var rows []Table5Row
	for _, bs := range BatchSizes(cfg.TotalK) {
		row := Table5Row{BatchSize: bs}
		for _, which := range []string{"PMA", "CPMA"} {
			r := workload.NewRNG(cfg.Seed)
			base := workload.Uniform(r, cfg.BaseN, workload.UniformBits)
			var s Set
			if which == "PMA" {
				s = pma.New(nil)
			} else {
				s = cpma.New(nil)
			}
			s.InsertBatch(base, false)
			batches := makeBatches(r, cfg.TotalK, bs, zipf)
			dIns := stats.Time(func() {
				for _, b := range batches {
					s.InsertBatch(b, false)
				}
			})
			dDel := stats.Time(func() {
				for _, b := range batches {
					s.RemoveBatch(b, false)
				}
			})
			ins := stats.Throughput(cfg.TotalK, dIns)
			del := stats.Throughput(cfg.TotalK, dDel)
			if which == "PMA" {
				row.PMAInsert, row.PMADelete = ins, del
			} else {
				row.CPMAInsert, row.CPMADelete = ins, del
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Table6Row reports bytes per element at one size.
type Table6Row struct {
	N            int
	BytesPerElem map[string]float64
}

// Table6Space measures space usage across sizes (Table 6).
func Table6Space(makers []SetMaker, sizes []int, seed uint64) []Table6Row {
	var rows []Table6Row
	for _, n := range sizes {
		r := workload.NewRNG(seed)
		keys := workload.Uniform(r, n, workload.UniformBits)
		row := Table6Row{N: n, BytesPerElem: map[string]float64{}}
		for _, mk := range makers {
			s := mk.New()
			s.InsertBatch(keys, false)
			row.BytesPerElem[mk.Name] = float64(s.SizeBytes()) / float64(s.Len())
			closeSet(s)
		}
		rows = append(rows, row)
	}
	return rows
}

// ScalingRow reports throughput at one worker count.
type ScalingRow struct {
	Procs  int
	PMATP  float64
	CPMATP float64
}

// CoreCounts returns the sweep 1, 2, 4, ... up to the host's CPUs.
func CoreCounts() []int {
	max := runtime.NumCPU()
	var out []int
	for p := 1; p <= max; p *= 2 {
		out = append(out, p)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// Fig7InsertScaling measures batch-insert strong scaling for the PMA and
// CPMA (Figure 7 / Table 11): batches of 1% of the base size.
func Fig7InsertScaling(cfg MicroConfig) []ScalingRow {
	bs := cfg.BaseN / 100
	if bs < 1 {
		bs = 1
	}
	var rows []ScalingRow
	for _, procs := range CoreCounts() {
		row := ScalingRow{Procs: procs}
		row.PMATP = runPMAInsertWithProcs(cfg, bs, procs)
		row.CPMATP = runCPMAInsertWithProcs(cfg, bs, procs)
		rows = append(rows, row)
	}
	return rows
}

func runCPMAInsertWithProcs(cfg MicroConfig, bs, procs int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r := workload.NewRNG(cfg.Seed)
	base := workload.Uniform(r, cfg.BaseN, workload.UniformBits)
	c := cpma.New(nil)
	c.InsertBatch(base, false)
	batches := makeBatches(r, cfg.TotalK, bs, false)
	d := stats.Time(func() {
		for _, b := range batches {
			c.InsertBatch(b, false)
		}
	})
	return stats.Throughput(cfg.TotalK, d)
}

// Fig8RangeScaling measures range-query strong scaling (Figure 8/Table 12).
func Fig8RangeScaling(cfg MicroConfig, queries, avgLen int) []ScalingRow {
	r := workload.NewRNG(cfg.Seed)
	base := workload.Uniform(r, cfg.BaseN, workload.UniformBits)
	p := pma.New(nil)
	p.InsertBatch(base, false)
	c := cpma.New(nil)
	c.InsertBatch(base, false)
	keySpace := uint64(1) << workload.UniformBits
	span := uint64(float64(keySpace) * float64(avgLen) / float64(cfg.BaseN))
	starts := make([]uint64, queries)
	qr := workload.NewRNG(cfg.Seed + 1)
	for i := range starts {
		starts[i] = 1 + qr.Uint64()%(keySpace-span)
	}
	run := func(s Set, procs int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var elems int64
		d := stats.Trials(1, cfg.Trials, func() {
			var total int64
			parallel.For(len(starts), 4, func(q int) {
				_, cnt := s.RangeSum(starts[q], starts[q]+span)
				atomicAdd64(&total, int64(cnt))
			})
			elems = total
		})
		return stats.Throughput(int(elems), d)
	}
	var rows []ScalingRow
	for _, procs := range CoreCounts() {
		rows = append(rows, ScalingRow{Procs: procs, PMATP: run(p, procs), CPMATP: run(c, procs)})
	}
	return rows
}

// ShardRow reports concurrent-clients throughput at one shard count.
type ShardRow struct {
	Shards     int
	InsertTP   float64 // concurrent batch inserts / second
	MixedTP    float64 // concurrent batch inserts / second with readers running
	ReadOps    float64 // reader operations / second during the mixed phase
	FinalElems int
}

// ShardCounts returns the sweep 1, 2, 4, ... up to max (always including
// max itself).
func ShardCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for p := 1; p <= max; p *= 2 {
		out = append(out, p)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// shardOptions builds the Options one shards experiment uses: the chosen
// partition policy over the microbenchmark key space.
func shardOptions(part shard.Partition) *shard.Options {
	return &shard.Options{Partition: part, KeyBits: workload.UniformBits}
}

// ShardConcurrentClients measures the sharded front-end beyond what the
// single-writer CPMA can express: `clients` goroutines each stream private
// uniform batches into one Sharded set concurrently. The first phase is
// write-only; the second re-runs the writers while `readers` goroutines
// issue point lookups and range sums against the same set. Sweeps shard
// counts 1, 2, 4, ..., maxShards under the given partition policy.
func ShardConcurrentClients(cfg MicroConfig, maxShards, clients, readers, batchSize int, part shard.Partition) []ShardRow {
	if clients < 1 {
		clients = 1
	}
	if batchSize < 1 {
		batchSize = 1
	}
	perClient := cfg.TotalK / clients
	if perClient < 1 {
		perClient = 1
	}
	var rows []ShardRow
	for _, p := range ShardCounts(maxShards) {
		s := shard.New(p, shardOptions(part))
		r := workload.NewRNG(cfg.Seed)
		s.InsertBatch(workload.Uniform(r, cfg.BaseN, workload.UniformBits), false)

		clientBatches := make([][][]uint64, clients)
		for c := range clientBatches {
			rc := workload.NewRNG(cfg.Seed + uint64(c) + 1)
			clientBatches[c] = makeBatches(rc, perClient, batchSize, false)
		}
		runWriters := func() {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, b := range clientBatches[c] {
						s.InsertBatch(b, false)
					}
				}(c)
			}
			wg.Wait()
		}

		row := ShardRow{Shards: p}
		d := stats.Time(runWriters)
		row.InsertTP = stats.Throughput(perClient*clients, d)

		// Mixed phase: fresh key stream per writer so inserts stay real work,
		// readers hammer lookups and short range sums until writers finish.
		for c := range clientBatches {
			rc := workload.NewRNG(cfg.Seed + uint64(clients+c) + 1)
			clientBatches[c] = makeBatches(rc, perClient, batchSize, false)
		}
		var done atomic.Bool
		var readOps atomic.Int64
		var rwg sync.WaitGroup
		for g := 0; g < readers; g++ {
			rwg.Add(1)
			go func(g int) {
				defer rwg.Done()
				rr := workload.NewRNG(cfg.Seed + uint64(1000+g))
				keySpace := uint64(1) << workload.UniformBits
				for !done.Load() {
					if rr.Intn(4) == 0 {
						start := rr.Uint64() % keySpace
						s.RangeSum(start, start+4096)
					} else {
						s.Has(1 + rr.Uint64()%keySpace)
					}
					readOps.Add(1)
				}
			}(g)
		}
		d = stats.Time(runWriters)
		done.Store(true)
		rwg.Wait()
		row.MixedTP = stats.Throughput(perClient*clients, d)
		row.ReadOps = stats.Throughput(int(readOps.Load()), d)
		row.FinalElems = s.Len()
		s.Close()
		rows = append(rows, row)
	}
	return rows
}

// AsyncIngestRow reports the pipeline at one (clients, mailbox depth)
// point: fire-and-forget ingest against blocking ticketed ingest of the
// same batches into a set with the same options.
type AsyncIngestRow struct {
	Clients      int
	Depth        int     // mailbox depth (pending sub-batches per shard)
	TicketedTP   float64 // blocking (ticketed) InsertBatch inserts / second
	AsyncTP      float64 // InsertBatchAsync + final Flush inserts / second
	MeanSubBatch float64 // mean keys per enqueued sub-batch
	MeanApplied  float64 // mean keys per merged apply (coalescing win)
	P50ms        float64 // median mailbox residency (enqueue -> applied), ms
	P99ms        float64 // p99 mailbox residency, ms
	LatSamples   uint64  // residency samples behind the percentiles
}

// ShardAsyncIngest sweeps the ingest pipeline over client count (1, 2, 4,
// ..., maxClients) and mailbox depth: every client streams small private
// batches — the adversarial regime for blocking calls, where each client
// has one batch in flight and the writers forfeit the CPMA's batch-size
// amortization — and with fire-and-forget calls the per-shard writers
// coalesce whatever accumulates. Each row measures both disciplines on
// fresh sets with the row's options and reports the achieved coalescing
// (mean applied-batch size over mean enqueued sub-batch size).
func ShardAsyncIngest(cfg MicroConfig, shards, maxClients int, depths []int, batchSize int, part shard.Partition) []AsyncIngestRow {
	if shards < 1 {
		shards = 1
	}
	if batchSize < 1 {
		batchSize = 1
	}
	base := workload.Uniform(workload.NewRNG(cfg.Seed), cfg.BaseN, workload.UniformBits)
	var rows []AsyncIngestRow
	for _, clients := range ShardCounts(maxClients) {
		perClient := cfg.TotalK / clients
		if perClient < 1 {
			perClient = 1
		}
		clientBatches := make([][][]uint64, clients)
		for c := range clientBatches {
			rc := workload.NewRNG(cfg.Seed + uint64(c) + 1)
			clientBatches[c] = makeBatches(rc, perClient, batchSize, false)
		}
		total := perClient * clients

		runClients := func(ingest func(c int, b []uint64)) {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, b := range clientBatches[c] {
						ingest(c, b)
					}
				}(c)
			}
			wg.Wait()
		}

		for _, depth := range depths {
			opt := shardOptions(part)
			opt.MailboxDepth = depth
			tkt := shard.New(shards, opt)
			tkt.InsertBatch(base, false)
			d := stats.Time(func() {
				runClients(func(_ int, b []uint64) { tkt.InsertBatch(b, false) })
			})
			tkt.Close()
			ticketedTP := stats.Throughput(total, d)

			s := shard.New(shards, opt)
			observeSet(fmt.Sprintf("async-ingest c%d d%d", clients, depth), s)
			s.InsertBatch(base, false)
			before := s.IngestStats()
			lat0 := s.PipelineLatencies()
			d = stats.Time(func() {
				runClients(func(_ int, b []uint64) { s.InsertBatchAsync(b, false) })
				s.Flush() // the measured phase ends only once everything applied
			})
			st := s.IngestStats().Sub(before)
			res := s.PipelineLatencies().Sub(lat0).Residency
			s.Close()
			p50, p99, n := residencyObs(res)
			rows = append(rows, AsyncIngestRow{
				Clients:      clients,
				Depth:        depth,
				TicketedTP:   ticketedTP,
				AsyncTP:      stats.Throughput(total, d),
				MeanSubBatch: st.MeanEnqueuedBatch(),
				MeanApplied:  st.MeanAppliedBatch(),
				P50ms:        p50,
				P99ms:        p99,
				LatSamples:   n,
			})
		}
	}
	return rows
}

// SnapshotScanRow compares analytics scans running concurrently with
// fire-and-forget ingest under two read disciplines at one scanner count:
// flush-barrier scans (Flush, then an aggregate read) versus plain
// Snapshot scans of whatever the writers last published. IngestTP columns
// show how much each discipline steals from the writers; Publishes/CloneMB
// expose the copy-on-publish cost every read path shares.
type SnapshotScanRow struct {
	Scanners      int
	FlushScans    float64 // flush-barrier scans / second
	FlushIngestTP float64 // inserts / second while flush-barrier scans run
	SnapScans     float64 // snapshot scans / second
	SnapIngestTP  float64 // inserts / second while snapshot scans run
	Publishes     uint64  // frozen handles published during the snapshot phase
	CloneMB       float64 // megabytes cloned for those handles
}

// ShardSnapshotScan sweeps snapshot-scan-while-ingesting: `clients`
// goroutines stream fire-and-forget batches through the pipeline while
// `sc` scanner goroutines run full aggregate scans (Sum) as fast as they
// can, first each behind a Flush barrier, then through plain Snapshot
// captures. The snapshot discipline should hold ingest throughput while
// scanning far more often — every flush-barrier scan waits for the
// mailbox drain and makes each writer publish once more.
func ShardSnapshotScan(cfg MicroConfig, shards, clients int, scanners []int, batchSize int, part shard.Partition) []SnapshotScanRow {
	if shards < 1 {
		shards = 1
	}
	if clients < 1 {
		clients = 1
	}
	if batchSize < 1 {
		batchSize = 1
	}
	perClient := cfg.TotalK / clients
	if perClient < 1 {
		perClient = 1
	}
	total := perClient * clients
	base := workload.Uniform(workload.NewRNG(cfg.Seed), cfg.BaseN, workload.UniformBits)
	clientBatches := make([][][]uint64, clients)
	for c := range clientBatches {
		rc := workload.NewRNG(cfg.Seed + uint64(c) + 1)
		clientBatches[c] = makeBatches(rc, perClient, batchSize, false)
	}

	// run ingests the full client workload into a fresh set while
	// `sc` scanners execute scan() in a loop; it returns the ingest
	// duration, scan count, and the phase's snapshot-counter delta.
	run := func(sc int, scan func(s *shard.Sharded)) (d time.Duration, scans int64, st shard.SnapshotStats) {
		s := shard.New(shards, shardOptions(part))
		s.InsertBatch(base, false)
		before := s.SnapshotStats()
		var done atomic.Bool
		var nscans atomic.Int64
		var swg sync.WaitGroup
		for g := 0; g < sc; g++ {
			swg.Add(1)
			go func() {
				defer swg.Done()
				for !done.Load() {
					scan(s)
					nscans.Add(1)
				}
			}()
		}
		d = stats.Time(func() {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, b := range clientBatches[c] {
						s.InsertBatchAsync(b, false)
					}
				}(c)
			}
			wg.Wait()
			s.Flush()
		})
		done.Store(true)
		swg.Wait()
		st = s.SnapshotStats().Sub(before)
		scans = nscans.Load()
		s.Close()
		return d, scans, st
	}

	var rows []SnapshotScanRow
	for _, sc := range scanners {
		if sc < 1 {
			sc = 1
		}
		fd, fscans, _ := run(sc, func(s *shard.Sharded) {
			s.Flush()
			s.Sum()
		})
		sd, sscans, st := run(sc, func(s *shard.Sharded) {
			s.Snapshot().Sum()
		})
		rows = append(rows, SnapshotScanRow{
			Scanners:      sc,
			FlushScans:    stats.Throughput(int(fscans), fd),
			FlushIngestTP: stats.Throughput(total, fd),
			SnapScans:     stats.Throughput(int(sscans), sd),
			SnapIngestTP:  stats.Throughput(total, sd),
			Publishes:     st.Publishes,
			CloneMB:       float64(st.CloneBytes) / (1 << 20),
		})
	}
	return rows
}

// GrowthRow reports Appendix C's growing-factor sweep.
type GrowthRow struct {
	Factor       float64
	InsertTP     float64
	BytesPerElem float64
	ScanTP       float64
}

// AppCGrowingFactor sweeps the growing factor (Figure 12/13).
func AppCGrowingFactor(cfg MicroConfig, factors []float64) []GrowthRow {
	var rows []GrowthRow
	for _, f := range factors {
		r := workload.NewRNG(cfg.Seed)
		c := cpma.New(&cpma.Options{GrowthFactor: f})
		batches := makeBatches(r, cfg.BaseN, cfg.BaseN/100+1, false)
		d := stats.Time(func() {
			for _, b := range batches {
				c.InsertBatch(b, false)
			}
		})
		scan := stats.Trials(1, cfg.Trials, func() { c.Sum() })
		rows = append(rows, GrowthRow{
			Factor:       f,
			InsertTP:     stats.Throughput(cfg.BaseN, d),
			BytesPerElem: float64(c.SizeBytes()) / float64(c.Len()),
			ScanTP:       stats.Throughput(c.Len(), scan),
		})
	}
	return rows
}

// --- rendering helpers shared by the cmd harnesses ---

// WriteInsertRows renders Figure 1/11-style rows.
func WriteInsertRows(w io.Writer, title string, makers []SetMaker, rows []InsertRow) {
	fmt.Fprintln(w, title)
	header := []string{"batch"}
	for _, mk := range makers {
		header = append(header, mk.Name)
	}
	t := stats.NewTable(header...)
	for _, row := range rows {
		cells := []any{stats.Sci(float64(row.BatchSize))}
		for _, mk := range makers {
			cells = append(cells, stats.Sci(row.Throughput[mk.Name]))
		}
		t.Row(cells...)
	}
	t.Write(w)
}

// WriteRangeRows renders Figure 2-style rows.
func WriteRangeRows(w io.Writer, title string, makers []SetMaker, rows []RangeRow) {
	fmt.Fprintln(w, title)
	header := []string{"avg-len"}
	for _, mk := range makers {
		header = append(header, mk.Name)
	}
	t := stats.NewTable(header...)
	for _, row := range rows {
		cells := []any{stats.Sci(float64(row.AvgLen))}
		for _, mk := range makers {
			cells = append(cells, stats.Sci(row.Throughput[mk.Name]))
		}
		t.Row(cells...)
	}
	t.Write(w)
}

func atomicAdd64(addr *int64, v int64) { atomic.AddInt64(addr, v) }
