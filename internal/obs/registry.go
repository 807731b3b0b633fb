package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

type metricKind uint8

const (
	kindHistogram metricKind = iota
	kindCounterFunc
	kindGaugeFunc
)

type entry struct {
	name, unit, help string
	kind             metricKind
	h                *Histogram
	cfn              func() uint64
	gfn              func() int64
}

// Registry is a named set of metrics, each read from its one source: a
// histogram the recording struct owns (RegisterHistogram), or a
// CounterFunc/GaugeFunc over a typed stats accessor. Registration takes
// a lock; recording into a histogram is lock-free. Scraping
// (Gather/WriteProm/WriteStatz) walks the entries and reads every value
// at that instant; the callbacks run at scrape time only, so the hot
// path pays nothing for them.
type Registry struct {
	name string

	mu    sync.Mutex
	ents  []*entry
	names map[string]bool
}

// NewRegistry returns an empty registry. name labels /statz output and
// is informational only.
func NewRegistry(name string) *Registry {
	return &Registry{name: name, names: make(map[string]bool)}
}

// Name returns the registry's label.
func (r *Registry) Name() string { return r.name }

func (r *Registry) register(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[e.name] {
		panic("obs: duplicate metric name " + e.name)
	}
	r.names[e.name] = true
	r.ents = append(r.ents, e)
}

// RegisterHistogram registers an externally owned histogram (one that
// lives inside a pipeline struct and is recorded to directly).
func (r *Registry) RegisterHistogram(name, unit, help string, h *Histogram) {
	r.register(&entry{name: name, unit: unit, help: help, kind: kindHistogram, h: h})
}

// CounterFunc registers a counter whose value is computed at scrape time.
func (r *Registry) CounterFunc(name, unit, help string, fn func() uint64) {
	r.register(&entry{name: name, unit: unit, help: help, kind: kindCounterFunc, cfn: fn})
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, unit, help string, fn func() int64) {
	r.register(&entry{name: name, unit: unit, help: help, kind: kindGaugeFunc, gfn: fn})
}

// Sample is one scraped metric value.
type Sample struct {
	Name string
	Unit string
	Help string
	Kind string // "counter", "gauge", or "histogram"

	Value float64   // counter / gauge value
	Hist  *HistSnap // histogram capture, nil otherwise
}

// Gather scrapes every registered metric and returns samples sorted by
// name.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	ents := make([]*entry, len(r.ents))
	copy(ents, r.ents)
	r.mu.Unlock()

	var out []Sample
	for _, e := range ents {
		switch e.kind {
		case kindCounterFunc:
			out = append(out, Sample{Name: e.name, Unit: e.unit, Help: e.help, Kind: "counter", Value: float64(e.cfn())})
		case kindGaugeFunc:
			out = append(out, Sample{Name: e.name, Unit: e.unit, Help: e.help, Kind: "gauge", Value: float64(e.gfn())})
		case kindHistogram:
			sn := e.h.Snapshot()
			out = append(out, Sample{Name: e.name, Unit: e.unit, Help: e.help, Kind: "histogram", Hist: &sn})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteProm writes the registry in Prometheus text exposition format.
// Histograms emit cumulative le-buckets (trimmed to the populated
// prefix), _sum, and _count series.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, s := range r.Gather() {
		help := s.Help
		if s.Unit != "" {
			help += " (" + s.Unit + ")"
		}
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
			return err
		}
		if s.Hist == nil {
			if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, formatFloat(s.Value)); err != nil {
				return err
			}
			continue
		}
		h := s.Hist
		top := -1
		for i := NumBuckets - 1; i >= 0; i-- {
			if h.Buckets[i] != 0 {
				top = i
				break
			}
		}
		var cum uint64
		for i := 0; i <= top; i++ {
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", s.Name, BucketHi(i), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", s.Name, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", s.Name, h.Sum, s.Name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	if v == float64(uint64(v)) {
		return fmt.Sprintf("%d", uint64(v))
	}
	return fmt.Sprintf("%g", v)
}

// statzMetric is the JSON shape of one metric in /statz output.
type statzMetric struct {
	Type  string  `json:"type"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value,omitempty"`

	Count uint64  `json:"count,omitempty"`
	Sum   uint64  `json:"sum,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	P999  float64 `json:"p999,omitempty"`
	Max   uint64  `json:"max,omitempty"`
}

// WriteStatz writes the registry as indented JSON: one flat object of
// metric name -> value/summary, counters and gauges alongside histogram
// percentile summaries.
func (r *Registry) WriteStatz(w io.Writer) error {
	metrics := make(map[string]statzMetric)
	for _, s := range r.Gather() {
		m := statzMetric{Type: s.Kind, Unit: s.Unit}
		if s.Hist != nil {
			h := s.Hist
			m.Count, m.Sum, m.Mean = h.Count, h.Sum, h.Mean()
			m.P50, m.P90, m.P99, m.P999 = h.P50(), h.P90(), h.P99(), h.P999()
			m.Max = h.Max()
		} else {
			m.Value = s.Value
		}
		metrics[s.Name] = m
	}
	blob, err := json.MarshalIndent(struct {
		Registry string                 `json:"registry"`
		Metrics  map[string]statzMetric `json:"metrics"`
	}{r.name, metrics}, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}
