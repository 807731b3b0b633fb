package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// runOpts are the settings of one benchmark invocation.
type runOpts struct {
	seed    uint64
	budget  time.Duration // measured time per workload
	scale   string        // "default" or "smoke"
	trace   bool
	workdir string // scratch space for on-disk stores
}

// metricVal is one reported metric. N counts the samples or operations
// behind the value (0: the workload does not exercise it); Q1 and Q3 are
// the quartiles of a timing's samples.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// runner carries one workload's run: its settings, the traced pass's
// tracer, the verification tally and the metrics it reports.
type runner struct {
	runOpts
	name    string
	tr      *tracer
	chk     checker
	metrics map[string]metricVal
	params  any
}

// set reports a metric computed from n operations or samples.
func (r *runner) set(name string, v float64, n int) {
	spec, ok := specOf(name)
	if !ok {
		panic("bench: metric not in the catalog: " + name)
	}
	r.metrics[name] = metricVal{Value: v, Unit: spec.Unit, N: n}
}

// setPct reports the q-quantile of latency samples with their quartiles.
func (r *runner) setPct(name string, samples []float64, q float64) {
	if len(samples) == 0 {
		return
	}
	r.set(name, pct(samples, q), len(samples))
	m := r.metrics[name]
	m.Q1, m.Q3 = pct(samples, 0.25), pct(samples, 0.75)
	r.metrics[name] = m
}

// rateQuantile is the quantile of the per-unit rates that a throughput
// reports. The machine the benchmark was sized on shares its cores and
// memory with other tenants, and their load slows a unit by up to 1.5x;
// the median unit lands on either side of that depending on how long the
// run's slow stretches were. The upper decile is the rate at which the
// program runs when it has the hardware to itself. With at least 100 units
// per run, at least ten lie above it.
const rateQuantile = 0.9

// setRate reports a throughput from the rates of the units it was
// measured in.
func (r *runner) setRate(name string, rates []float64) {
	r.setPct(name, rates, rateQuantile)
}

// measure runs a workload's timed part. An untraced run spends the whole
// budget in one untraced pass, which reports the end-to-end metrics. A
// traced run spends half the budget untraced and half traced; the traced
// pass reports the per-layer metrics, and the closed-loop rates of the two
// halves give the tracing overhead. pass returns its closed-loop rate.
func (r *runner) measure(pass func(budget time.Duration, tr *tracer) (float64, error)) error {
	// Each pass starts on a collected heap, so set-up garbage does not
	// land in its timings.
	if !r.trace {
		runtime.GC()
		_, err := pass(r.budget, nil)
		return err
	}
	runtime.GC()
	plain, err := pass(r.budget/2, nil)
	if err != nil {
		return err
	}
	r.tr = newTracer(r.name)
	runtime.GC()
	traced, err := pass(r.budget/2, r.tr)
	if err != nil {
		return err
	}
	r.set("bench.trace_overhead_pct", 100*ratio(plain-traced, plain), 2)
	r.set("bench.span_coverage", r.tr.coverage(), len(r.tr.tracks))
	return nil
}

// setupReps is how many times each workload is set up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// setUp builds a workload's state setupReps times, discarding all but the
// last, and reports the median set-up time.
func setUp[S any](r *runner, build func() (S, error), discard func(S)) (S, error) {
	var st S
	var times []float64
	for i := range setupReps {
		if i > 0 {
			discard(st)
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	r.set("setup_s", pct(times, 0.5), len(times))
	return st, nil
}

// checker tallies verified operations. Checks may run on any goroutine.
type checker struct {
	attempted, failed atomic.Int64

	mu    sync.Mutex
	notes []string
}

// ops counts n operations whose results a later check covers as a whole.
func (c *checker) ops(n int) { c.attempted.Add(int64(n)) }

// check counts one verified operation, failed unless ok, and keeps the
// first failures' descriptions.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted.Add(1)
	if ok {
		return
	}
	c.failed.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.notes) < 10 {
		msg := fmt.Sprintf(format, args...)
		c.notes = append(c.notes, msg)
		fmt.Fprintln(os.Stderr, "bench: FAILED:", msg)
	}
}

// deadlineReached reports whether another unit of work estimated to take
// est would end past the deadline. The first unit always runs.
func deadlineReached(deadline time.Time, est time.Duration, done int) bool {
	return done > 0 && time.Now().Add(est).After(deadline)
}
