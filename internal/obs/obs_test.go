package obs

import (
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Property: every recorded value lands in a bucket whose half-open
// range contains it (satellite: bucket-boundary property test).
func TestHistogramBucketBoundaries(t *testing.T) {
	// Exhaustive around every power-of-two boundary plus random fill.
	var vals []uint64
	vals = append(vals, 0, 1, 2, math.MaxUint64)
	for i := 1; i < 64; i++ {
		b := uint64(1) << i
		vals = append(vals, b-1, b, b+1)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, v := range vals {
		i := bucketOf(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("value %d mapped to out-of-range bucket %d", v, i)
		}
		lo, hi := BucketLo(i), BucketHi(i)
		if v < lo {
			t.Fatalf("value %d below bucket %d lower bound %d", v, i, lo)
		}
		// hi is exclusive except the saturated top bucket.
		if i < 64 && v >= hi {
			t.Fatalf("value %d at/above bucket %d upper bound %d", v, i, hi)
		}
	}
	// Bucket bounds must tile: hi(i) == lo(i+1).
	for i := 0; i < 63; i++ {
		if BucketHi(i) != BucketLo(i+1) {
			t.Fatalf("buckets %d,%d do not tile: hi=%d lo=%d", i, i+1, BucketHi(i), BucketLo(i+1))
		}
	}
}

// Property: quantile estimates are monotone in q, bounded by populated
// bucket ranges, and stay sane under concurrent Record from 8 goroutines
// (satellite: quantile monotonicity under concurrency).
func TestHistogramQuantileMonotoneConcurrent(t *testing.T) {
	var h Histogram
	const goroutines = 8
	const perG = 20000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	// A concurrent quantile reader while recorders run: every capture
	// must itself be monotone.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			checkMonotone(t, h.Snapshot())
		}
	}()
	var recorders sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		recorders.Add(1)
		go func(seed int64) {
			defer recorders.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Record(rng.Uint64() >> uint(rng.Intn(64)))
			}
		}(int64(g))
	}
	recorders.Wait()
	close(stop)
	readers.Wait()

	sn := h.Snapshot()
	if sn.Count != goroutines*perG {
		t.Fatalf("lost records under concurrency: %d != %d", sn.Count, goroutines*perG)
	}
	checkMonotone(t, sn)
	// Quantile lands inside a populated bucket's range.
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		v := sn.Quantile(q)
		ok := false
		for i := 0; i < NumBuckets; i++ {
			if sn.Buckets[i] != 0 && v >= float64(BucketLo(i)) && v <= float64(BucketHi(i)) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("quantile(%g)=%g outside every populated bucket", q, v)
		}
	}
}

func checkMonotone(t *testing.T, sn HistSnap) {
	t.Helper()
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	prev := -1.0
	for _, q := range qs {
		v := sn.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%g gave %g < %g", q, v, prev)
		}
		prev = v
	}
}

func TestRegistryScrape(t *testing.T) {
	r := NewRegistry("test")
	var h Histogram
	r.CounterFunc("test_ops", "ops", "operations", func() uint64 { return 5 })
	r.GaugeFunc("test_links", "links", "live links", func() int64 { return -2 })
	r.RegisterHistogram("test_lat_ns", "ns", "latency", &h)
	r.CounterFunc("test_fn", "calls", "computed", func() uint64 { return 7 })
	r.GaugeFunc("test_lag", "records", "computed lag", func() int64 { return 3 })

	for i := uint64(1); i <= 100; i++ {
		h.Record(i)
	}

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, want := range []string{
		"test_ops 5", "test_links -2", "test_fn 7", "test_lag 3",
		"# HELP test_fn computed (calls)", "# TYPE test_fn counter", "# TYPE test_lag gauge",
		"test_lat_ns_count 100", "test_lat_ns_bucket{le=\"+Inf\"} 100",
		"# TYPE test_lat_ns histogram", "# TYPE test_ops counter", "# TYPE test_links gauge",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prom output missing %q:\n%s", want, prom)
		}
	}

	sb.Reset()
	if err := r.WriteStatz(&sb); err != nil {
		t.Fatal(err)
	}
	statz := sb.String()
	for _, want := range []string{`"test_lat_ns"`, `"p99"`, `"test_fn"`, `"registry": "test"`} {
		if !strings.Contains(statz, want) {
			t.Fatalf("statz output missing %q:\n%s", want, statz)
		}
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(2, 4)
	for i := uint64(0); i < 10; i++ {
		tr.Record(0, EvDrain, i, 0, i, 0)
	}
	tr.Record(1, EvPublish, 3, 1, 0, 0)
	tr.Record(-1, EvCheckpoint, 0, 0, 123, 0)
	evs := tr.Events()
	if len(evs) != 4+1+1 {
		t.Fatalf("got %d events, want 6 (ring depth 4 + 2)", len(evs))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	// Oldest retained drain event must be epoch 6 (0..5 overwritten).
	minEpoch := uint64(1 << 62)
	for _, ev := range evs {
		if ev.Kind == EvDrain && ev.Epoch < minEpoch {
			minEpoch = ev.Epoch
		}
	}
	if minEpoch != 6 {
		t.Fatalf("oldest retained drain epoch = %d, want 6", minEpoch)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind": "drain"`, `"kind": "checkpoint"`, `"shard": -1`, `"dropped": 6`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("trace json missing %q:\n%s", want, sb.String())
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry("srv")
	var h Histogram
	r.RegisterHistogram("srv_lat_ns", "ns", "latency", &h)
	h.Record(100)
	s := NewServer(r)
	s.AddTrace("pipeline", NewTrace(1, 8))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) string {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "srv_lat_ns_count 1") {
		t.Fatalf("/metrics missing histogram:\n%s", body)
	}
	if body := get("/statz"); !strings.Contains(body, `"registry": "srv"`) {
		t.Fatalf("/statz missing registry name:\n%s", body)
	}
	if body := get("/tracez"); !strings.Contains(body, `"pipeline"`) {
		t.Fatalf("/tracez missing trace name:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
