package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	"repro/internal/cpma"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MicroConfig scales the set microbenchmarks. The paper starts every
// structure at 100M elements and inserts/deletes another 100M;
// cmd/cpma-bench defaults to 100x smaller so a run takes seconds.
type MicroConfig struct {
	BaseN  int    // elements preloaded before measurement
	TotalK int    // elements inserted/deleted during measurement
	Seed   uint64 // workload seed
	Trials int    // timed trials (after one warmup) for query benches
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
			s := mk.New()
			row.Throughput[mk.Name], _ = timedInserts(cfg, bs, zipf, 0, s, s.InsertBatch)
			closeSet(s)
		}
		rows = append(rows, row)
	}
	return rows
}

// timedInserts preloads s with cfg.BaseN uniform keys, draws cfg.TotalK
// more in batches of bs (zipfian if zipf), and times applying them with
// insert (s's InsertBatch, or a comparator on s) at procs workers (0
// keeps the current setting). It returns inserts per second and the
// batches.
func timedInserts(cfg MicroConfig, bs int, zipf bool, procs int, s Set, insert func([]uint64, bool) int) (float64, [][]uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r := workload.NewRNG(cfg.Seed)
	s.InsertBatch(workload.Uniform(r, cfg.BaseN, workload.UniformBits), false)
	batches := makeBatches(r, cfg.TotalK, bs, zipf)
	return timeBatches(batches, cfg.TotalK, insert), batches
}

// timeBatches applies op to every batch, keys total in all, and returns
// keys per second.
func timeBatches(batches [][]uint64, keys int, op func([]uint64, bool) int) float64 {
	d := stats.Time(func() {
		for _, b := range batches {
			op(b, false)
		}
	})
	return stats.Throughput(keys, d)
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

// rangeLens mirrors Figure 2 / Table 10's x-axis: expected elements
// returned per query, from ~6 to ~2M (capped at n/4).
func rangeLens(n int) []int {
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
	var rows []RangeRow
	for _, avgLen := range rangeLens(cfg.BaseN) {
		row := RangeRow{AvgLen: avgLen, Throughput: map[string]float64{}}
		for i, mk := range makers {
			row.Throughput[mk.Name] = rangeThroughput(systems[i], cfg, queries, avgLen)
		}
		rows = append(rows, row)
	}
	for _, s := range systems {
		closeSet(s)
	}
	return rows
}

// rangeThroughput times queries parallel RangeSums on s, each over a span
// expected to hold avgLen of cfg.BaseN uniform keys, from starts drawn
// with seed cfg.Seed+1, and returns the elements summed per second (the
// mean of cfg.Trials runs after one warm-up).
func rangeThroughput(s Set, cfg MicroConfig, queries, avgLen int) float64 {
	keySpace := uint64(1) << workload.UniformBits
	span := uint64(float64(keySpace) * float64(avgLen) / float64(cfg.BaseN))
	starts := make([]uint64, queries)
	qr := workload.NewRNG(cfg.Seed + 1)
	for i := range starts {
		starts[i] = 1 + qr.Uint64()%(keySpace-span)
	}
	var elems int64
	d := stats.Trials(1, cfg.Trials, func() {
		var total int64
		parallel.For(len(starts), 4, func(q int) {
			_, cnt := s.RangeSum(starts[q], starts[q]+span)
			atomic.AddInt64(&total, int64(cnt))
		})
		elems = total
	})
	return stats.Throughput(int(elems), d)
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
		serial := insertsAt(cfg, bs, 1, cpma.NewUncompressed(nil))
		par := insertsAt(cfg, bs, runtime.NumCPU(), cpma.NewUncompressed(nil))
		rows = append(rows, Table3Row{BatchSize: bs, SerialTP: serial, ParallelTP: par})
	}
	return rows
}

// insertsAt is c's uniform batch-insert throughput at procs workers.
func insertsAt(cfg MicroConfig, bs, procs int, c *cpma.CPMA) float64 {
	tp, _ := timedInserts(cfg, bs, false, procs, c, c.InsertBatch)
	return tp
}

// Table4Row compares serial batch inserts: this paper's algorithm vs the
// RMA-style baseline.
type Table4Row struct {
	BatchSize int
	RMATP     float64
	PMATP     float64
}

// Table4RMA runs both serial batch-insert algorithms on one core (Table 4),
// on the same engine in the PMA's leaf format: the RMA column is its
// segment-at-a-time InsertBatchRMA, the PMA column its InsertBatch.
func Table4RMA(cfg MicroConfig) []Table4Row {
	var rows []Table4Row
	for _, bs := range BatchSizes(cfg.TotalK) {
		m, p := cpma.NewUncompressed(nil), cpma.NewUncompressed(nil)
		rmaTP, _ := timedInserts(cfg, bs, false, 1, m, m.InsertBatchRMA)
		pmaTP, _ := timedInserts(cfg, bs, false, 1, p, p.InsertBatch)
		rows = append(rows, Table4Row{BatchSize: bs, RMATP: rmaTP, PMATP: pmaTP})
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
			var s Set
			if which == "PMA" {
				s = cpma.NewUncompressed(nil)
			} else {
				s = cpma.New(nil)
			}
			ins, batches := timedInserts(cfg, bs, zipf, 0, s, s.InsertBatch)
			del := timeBatches(batches, cfg.TotalK, s.RemoveBatch)
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
		row.PMATP = insertsAt(cfg, bs, procs, cpma.NewUncompressed(nil))
		row.CPMATP = insertsAt(cfg, bs, procs, cpma.New(nil))
		rows = append(rows, row)
	}
	return rows
}

// Fig8RangeScaling measures range-query strong scaling (Figure 8/Table 12).
func Fig8RangeScaling(cfg MicroConfig, queries, avgLen int) []ScalingRow {
	r := workload.NewRNG(cfg.Seed)
	base := workload.Uniform(r, cfg.BaseN, workload.UniformBits)
	p := cpma.NewUncompressed(nil)
	p.InsertBatch(base, false)
	c := cpma.New(nil)
	c.InsertBatch(base, false)
	run := func(s Set, procs int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return rangeThroughput(s, cfg, queries, avgLen)
	}
	var rows []ScalingRow
	for _, procs := range CoreCounts() {
		rows = append(rows, ScalingRow{Procs: procs, PMATP: run(p, procs), CPMATP: run(c, procs)})
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
