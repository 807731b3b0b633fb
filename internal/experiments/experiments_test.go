package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
)

func tinyMicro() MicroConfig {
	return MicroConfig{BaseN: 20_000, TotalK: 10_000, Seed: 1, Trials: 1}
}

func TestBatchSizesCapped(t *testing.T) {
	got := BatchSizes(50_000)
	want := []int{10, 100, 1_000, 10_000}
	if !slices.Equal(got, want) {
		t.Fatalf("BatchSizes = %v, want %v", got, want)
	}
}

func TestFig1ProducesPositiveThroughputs(t *testing.T) {
	makers := []SetMaker{PMAMaker(), CPMAMaker()}
	rows := Fig1BatchInsert(makers, tinyMicro(), false)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		for _, mk := range makers {
			if row.Throughput[mk.Name] <= 0 {
				t.Fatalf("bs=%d %s throughput %f", row.BatchSize, mk.Name, row.Throughput[mk.Name])
			}
		}
	}
	var sb strings.Builder
	WriteInsertRows(&sb, "fig1", makers, rows)
	if !strings.Contains(sb.String(), "PMA") {
		t.Fatal("render missing system column")
	}
}

func TestFig2RangeQueries(t *testing.T) {
	makers := []SetMaker{CPMAMaker(), CPaCMaker()}
	rows := Fig2RangeQuery(makers, tinyMicro(), 64)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		for _, mk := range makers {
			if row.Throughput[mk.Name] <= 0 {
				t.Fatalf("len=%d %s tp=%f", row.AvgLen, mk.Name, row.Throughput[mk.Name])
			}
		}
	}
}

func TestFig1ShardedFlavors(t *testing.T) {
	// The comparison tables carry the sharded front-end; it must measure
	// cleanly through the blocking Set interface (ticketed enqueues, closed
	// after each measurement).
	makers := []SetMaker{ShardedMaker(2)}
	rows := Fig1BatchInsert(makers, tinyMicro(), false)
	for _, row := range rows {
		for _, mk := range makers {
			if row.Throughput[mk.Name] <= 0 {
				t.Fatalf("bs=%d %s throughput %f", row.BatchSize, mk.Name, row.Throughput[mk.Name])
			}
		}
	}
	if len(ComparisonSetMakers(2)) != len(AllSetMakers())+1 {
		t.Fatal("ComparisonSetMakers must extend AllSetMakers with the sharded set")
	}
}

func TestTable4BothSystemsRun(t *testing.T) {
	rows := Table4RMA(tinyMicro())
	for _, r := range rows {
		if r.PMATP <= 0 || r.RMATP <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestTable5InsertDelete(t *testing.T) {
	rows := Table5InsertDelete(tinyMicro(), true)
	for _, r := range rows {
		if r.PMAInsert <= 0 || r.PMADelete <= 0 || r.CPMAInsert <= 0 || r.CPMADelete <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestTable6SpaceOrdering(t *testing.T) {
	rows := Table6Space(AllSetMakers(), []int{200_000}, 3)
	r := rows[0]
	if r.BytesPerElem["CPMA"] >= r.BytesPerElem["PMA"] {
		t.Fatalf("CPMA %.2f not smaller than PMA %.2f", r.BytesPerElem["CPMA"], r.BytesPerElem["PMA"])
	}
	if r.BytesPerElem["C-PaC"] >= r.BytesPerElem["U-PaC"] {
		t.Fatalf("C-PaC %.2f not smaller than U-PaC %.2f", r.BytesPerElem["C-PaC"], r.BytesPerElem["U-PaC"])
	}
	if pt := r.BytesPerElem["P-tree"]; pt != 32 {
		t.Fatalf("P-tree bytes/elem = %.2f, want 32", pt)
	}
}

func TestScalingRowsCoverCores(t *testing.T) {
	cfg := tinyMicro()
	rows := Fig7InsertScaling(cfg)
	if len(rows) == 0 || rows[0].Procs != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.PMATP <= 0 || r.CPMATP <= 0 {
			t.Fatalf("bad scaling row %+v", r)
		}
	}
}

func TestAppCGrowingFactors(t *testing.T) {
	rows := AppCGrowingFactor(tinyMicro(), []float64{1.2, 2.0})
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	if rows[0].BytesPerElem > rows[1].BytesPerElem {
		t.Fatalf("growth 1.2 should use no more space than 2.0: %.2f vs %.2f",
			rows[0].BytesPerElem, rows[1].BytesPerElem)
	}
}

func tinyGraphs() []workload.SyntheticGraph {
	return []workload.SyntheticGraph{
		{Name: "tiny-rmat", Kind: "rmat", Scale: 9, Edges: 8_000},
		{Name: "tiny-er", Kind: "er", N: 500, P: 0.01},
	}
}

func TestFig9AllSystemsAllGraphs(t *testing.T) {
	rows := Fig9GraphAlgos(tinyGraphs(), 5, 3)
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.PR <= 0 || r.CC <= 0 || r.BC <= 0 {
			t.Fatalf("bad times %+v", r)
		}
	}
	var sb strings.Builder
	WriteAlgoTimes(&sb, rows)
	if !strings.Contains(sb.String(), "F-Graph") {
		t.Fatal("render missing system")
	}
}

func TestFig10AndTable7(t *testing.T) {
	base := workload.SyntheticGraph{Name: "base", Kind: "rmat", Scale: 10, Edges: 10_000}
	rows := Fig10GraphInserts(base, 5, 5_000)
	for _, r := range rows {
		for name, tp := range r.Throughput {
			if tp <= 0 {
				t.Fatalf("%s tp %f", name, tp)
			}
		}
	}
	space := Table7GraphSpace([]workload.SyntheticGraph{base}, 5)
	if len(space) != 1 {
		t.Fatal("space rows")
	}
	f := space[0].Bytes["F-Graph"]
	a := space[0].Bytes["Aspen"]
	if f == 0 || a == 0 {
		t.Fatal("zero sizes")
	}
	if float64(f) > 0.9*float64(a) {
		t.Fatalf("F-Graph %d should be well below Aspen %d (paper: ~0.6x)", f, a)
	}
	var sb strings.Builder
	WriteGraphInserts(&sb, rows)
	WriteGraphSpace(&sb, space)
	if !strings.Contains(sb.String(), "Table 7") {
		t.Fatal("render failed")
	}
}

func TestFig10NonPowerOfTwoVertexSpace(t *testing.T) {
	// Regression: the ER stand-in has a non-power-of-two vertex count; the
	// R-MAT insert stream must not generate out-of-range vertices.
	base := workload.SyntheticGraph{Name: "er", Kind: "er", N: 1000, P: 0.01}
	rows := Fig10GraphInserts(base, 3, 2_000)
	for _, r := range rows {
		for name, tp := range r.Throughput {
			if tp <= 0 {
				t.Fatalf("%s tp %f", name, tp)
			}
		}
	}
}
