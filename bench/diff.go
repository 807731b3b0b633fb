package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// boundSpec is one metric of BENCHMARK.json; only the end-to-end ones have
// a bound.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the diff reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSide is one set of runs: for each workload, its results in seed
// order.
type runSide map[string][]seeded

type seeded struct {
	seed uint64
	res  wlResult
}

// loadSide reads the result files named by args: directories (every
// *.json inside), glob patterns, or files.
func loadSide(args []string) (runSide, error) {
	var files []string
	for _, a := range args {
		if fi, err := os.Stat(a); err == nil && fi.IsDir() {
			a = filepath.Join(a, "*.json")
		}
		m, err := filepath.Glob(a)
		if err != nil {
			return nil, err
		}
		if len(m) == 0 {
			return nil, fmt.Errorf("no result files match %s", a)
		}
		files = append(files, m...)
	}
	side := runSide{}
	for _, f := range files {
		env, err := readEnvelope(f)
		if err != nil {
			return nil, err
		}
		for _, w := range env.Workloads {
			side[w.Name] = append(side[w.Name], seeded{env.Seed, w})
		}
	}
	for _, runs := range side {
		slices.SortStableFunc(runs, func(a, b seeded) int { return cmp.Compare(a.seed, b.seed) })
	}
	return side, nil
}

// diffCmd compares two sets of result files with the bounds of
// BENCHMARK.json, read from the repository root or, run from bench/, from
// its parent.
func diffCmd(args []string, w io.Writer) error {
	var aArgs, bArgs []string
	if i := slices.Index(args, "--"); i >= 0 {
		aArgs, bArgs = args[:i], args[i+1:]
	} else if len(args) == 2 {
		aArgs, bArgs = args[:1], args[1:]
	}
	if len(aArgs) == 0 || len(bArgs) == 0 {
		return errors.New("usage: cpmabench diff A B, or A-files... -- B-files...; A is the parent, B the change")
	}
	specPath := "BENCHMARK.json"
	if _, err := os.Stat(specPath); err != nil {
		specPath = filepath.Join("..", "BENCHMARK.json")
	}
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadSide(aArgs)
	if err != nil {
		return err
	}
	b, err := loadSide(bArgs)
	if err != nil {
		return err
	}
	printDiff(w, spec, a, b)
	return nil
}

// printDiff prints one row per workload and metric that both sets
// measured: the end-to-end metrics with their bounds, then the per-layer
// ones, which have none.
func printDiff(w io.Writer, spec *benchSpec, a, b runSide) {
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	fmt.Fprintf(w, "%-15s %-34s %-7s %-38s %-38s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "wins", "verdict")
	for _, name := range names {
		ra, rb := a[name], b[name]
		failA, failB := failedOps(ra), failedOps(rb)
		for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := compare(va, vb, m.Better == "higher", m.Bound)
			if v.verdict == "better" && failB > failA {
				v.verdict = "unresolved"
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(w, "%-15s %-34s %-7s %-38s %-38s %+7.2f%% %6s  %s\n",
				name, m.Name, m.Unit, summary(va), summary(vb), 100*(mb-ma)/math.Abs(ma),
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
		if failB > failA {
			fmt.Fprintf(w, "%-15s B failed %d operations, A %d: gains do not count\n", name, failB, failA)
		}
	}
}

func failedOps(runs []seeded) int64 {
	var n int64
	for _, r := range runs {
		n += r.res.Failed
	}
	return n
}

// metricValues returns a metric's value in each run that measured it.
func metricValues(runs []seeded, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.res.Metrics[name]; ok && m.N > 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}

// verdict is the outcome of comparing one metric across two sets of runs.
type verdict struct {
	verdict     string // better, worse, unchanged or unresolved
	wins, pairs int    // pairs in which B beat A
}

// compare judges B (the change) against A (the parent). Runs are paired
// in order. A gain needs B to win at least 9 of 10 pairs and the medians
// to differ by more than A's interquartile range; a regression is a median
// worse by more than bound (a share of A's median). When either set's own
// spread, its interquartile range as a share of its median, is wider than
// bound, or the metric has no bound (bound 0), the result is unresolved
// unless every B run reads better, or every one worse, than every A run.
func compare(a, b []float64, higherBetter bool, bound float64) verdict {
	beats := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	// apart reports whether every run of x reads better than every run of y.
	apart := func(x, y []float64) bool {
		if higherBetter {
			return slices.Min(x) > slices.Max(y)
		}
		return slices.Max(x) < slices.Min(y)
	}
	v := verdict{pairs: min(len(a), len(b))}
	for i := range v.pairs {
		if beats(b[i], a[i]) {
			v.wins++
		}
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	wide := bound <= 0 || (qa3-qa1)/math.Abs(ma) > bound || (qb3-qb1)/math.Abs(mb) > bound
	gain := v.pairs > 0 && 10*v.wins >= 9*v.pairs && beats(mb, ma) && math.Abs(mb-ma) > qa3-qa1
	worse := beats(ma, mb) && math.Abs(mb-ma)/math.Abs(ma) > bound
	switch {
	case wide && apart(b, a):
		v.verdict = "better"
	case wide && apart(a, b):
		v.verdict = "worse"
	case wide:
		v.verdict = "unresolved"
	case gain:
		v.verdict = "better"
	case worse:
		v.verdict = "worse"
	default:
		v.verdict = "unchanged"
	}
	return v
}
