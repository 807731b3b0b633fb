package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that outputs verify, that every metric BENCHMARK.json names is
// reported with its unit, that untraced runs also measure the client
// metrics, and that the spans cover the traced run.
func TestSmoke(t *testing.T) {
	spec, err := loadBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	spans := t.TempDir()
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			o := runOpts{seed: 7, budget: 200 * time.Millisecond, scale: "smoke", trace: traced, workdir: t.TempDir()}
			res, tr, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			for _, m := range perLayer[:5] {
				if got := res.Metrics[m.Name]; !(got.Value > 0) || got.N == 0 {
					t.Errorf("%s (traced %v): client metric %s = %v from %d samples, want > 0", w.name, traced, m.Name, got.Value, got.N)
				}
			}
			if traced {
				if cov := res.Metrics["bench.span_coverage"].Value; cov < 0.95 {
					t.Errorf("%s: span coverage %.3f, want >= 0.95", w.name, cov)
				}
				path := filepath.Join(spans, w.name+".json")
				if err := tr.writeSpans(path); err != nil {
					t.Fatal(err)
				}
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Errorf("%s: spans file not written: %v", w.name, err)
				}
			}
			checkResultLine(t, res, traced)
		}
	}
}

// checkResultLine checks the last printed line is the one-line result with
// exactly its four keys, and exactly the metrics of its list.
func checkResultLine(t *testing.T, res *wlResult, traced bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, res, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", res.Name, err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("%s: last line has keys %v", res.Name, slices.Collect(maps.Keys(line)))
	}
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range reportList(traced) {
		want = append(want, m.Name)
	}
	if got := slices.Sorted(maps.Keys(metrics)); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
		t.Errorf("%s (traced %v): last line has metrics %v, want %v", res.Name, traced, got, want)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the code's metric catalog and
// BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		code []metricSpec
		json []boundSpec
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.code) != len(c.json) {
			t.Errorf("catalog has %d metrics, BENCHMARK.json %d", len(c.code), len(c.json))
			continue
		}
		for i, m := range c.code {
			j := c.json[i]
			if m.Name != j.Name || m.Unit != j.Unit || m.Better != j.Better {
				t.Errorf("catalog %v, BENCHMARK.json %v", m, j)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %s, the code's %s", i, w.Name, workloads[i].name)
		}
	}
	setup := spec.EndToEnd[0]
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup.Bound {
			t.Errorf("%s: bound %v outside (0, setup_s's %v]", m.Name, m.Bound, setup.Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and statistics.quantiles([1, 2], n=4)
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"faster", base, scale(1.2), true, "better"},
		{"slower", base, scale(0.8), true, "worse"},
		{"same", base, scale(1.0), true, "unchanged"},
		{"lower is better", base, scale(0.8), false, "better"},
		{"within bound", base, scale(0.95), true, "unchanged"},
		{"noisy", wide, scale(1.05), true, "unresolved"},
		{"noisy but clearly apart", wide, scale(2), true, "better"},
		{"noisy and clearly worse", wide, scale(0.4), true, "worse"},
	} {
		if got := compare(c.a, c.b, c.higher, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Without a bound, only sets that do not overlap get a verdict.
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"faster", scale(1.2), "better"},
		{"slower", scale(0.8), "worse"},
		{"within noise", scale(1.005), "unresolved"},
	} {
		if got := compare(base, c.b, true, 0).verdict; got != c.want {
			t.Errorf("no bound, %s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
