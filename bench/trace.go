package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans kept for the spans file; aggregates stay exact
// past it.
const maxSpans = 1 << 20

// span is one timed call from the benchmark into a layer.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"` // 0 at the top of its track
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Track    string `json:"track"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the tracer's origin
	EndNS    int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's own calls into each layer's
// public API. Every goroutine that calls into the system owns a track, and
// spans on a track nest strictly, so a span's self time is its duration
// minus that of its children. Spans stay in memory until the run ends.
type tracer struct {
	workload string
	origin   time.Time
	ids      atomic.Int64
	kept     atomic.Int64

	mu     sync.Mutex
	tracks []*track
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// track returns a new track owned by one goroutine. On a nil tracer it
// returns an untraced track, whose begin and end only read the clock.
func (tr *tracer) track(name string) *track {
	k := &track{tr: tr, name: name}
	if tr != nil {
		k.agg = map[string]*spanAgg{}
		tr.mu.Lock()
		tr.tracks = append(tr.tracks, k)
		tr.mu.Unlock()
	}
	return k
}

type spanAgg struct {
	count      int
	busy, self time.Duration
	durs       []float64 // ms
}

type frame struct {
	id    int64
	name  string
	start time.Time
	child time.Duration
}

// track is one goroutine's span stack. Its wall time, counted between
// start and stop, is the base of the span coverage.
type track struct {
	tr    *tracer
	name  string
	stack []frame
	spans []span
	agg   map[string]*spanAgg

	since time.Time
	wall  time.Duration
	top   time.Duration // covered by top-level spans
}

// begin opens a span and returns its start time; end closes it.
func (k *track) begin(name string) time.Time {
	t := time.Now()
	if k.tr != nil {
		k.stack = append(k.stack, frame{id: k.tr.ids.Add(1), name: name, start: t})
	}
	return t
}

// end closes the innermost open span, begun at t0, and returns its
// duration.
func (k *track) end(t0 time.Time) time.Duration {
	t := time.Now()
	d := t.Sub(t0)
	if k.tr == nil {
		return d
	}
	f := k.stack[len(k.stack)-1]
	k.stack = k.stack[:len(k.stack)-1]
	var parent int64
	if n := len(k.stack); n > 0 {
		k.stack[n-1].child += d
		parent = k.stack[n-1].id
	} else {
		k.top += d
	}
	a := k.agg[f.name]
	if a == nil {
		a = &spanAgg{}
		k.agg[f.name] = a
	}
	a.count++
	a.busy += d
	a.self += d - f.child
	a.durs = append(a.durs, ms(d))
	if k.tr.kept.Add(1) <= maxSpans {
		layer, _, _ := strings.Cut(f.name, ".")
		k.spans = append(k.spans, span{
			ID: f.id, Parent: parent, Name: f.name, Layer: layer, Track: k.name,
			Workload: k.tr.workload, StartNS: int64(t0.Sub(k.tr.origin)), EndNS: int64(t.Sub(k.tr.origin)),
		})
	}
	return d
}

// start and stop bracket the time the track's goroutine works for the
// workload.
func (k *track) start() { k.since = time.Now() }
func (k *track) stop()  { k.wall += time.Since(k.since) }

// The accessors below read the tracks after their goroutines have finished.

// durations returns the durations, in ms, of every span with this name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, k := range tr.tracks {
		if a := k.agg[name]; a != nil {
			out = append(out, a.durs...)
		}
	}
	return out
}

// busy returns the summed duration of the spans with this name.
func (tr *tracer) busy(name string) time.Duration {
	var d time.Duration
	for _, k := range tr.tracks {
		if a := k.agg[name]; a != nil {
			d += a.busy
		}
	}
	return d
}

// coverage is the share of the tracks' wall time spent inside spans.
func (tr *tracer) coverage() float64 {
	var top, wall time.Duration
	for _, k := range tr.tracks {
		top += k.top
		wall += k.wall
	}
	return ratio(top.Seconds(), wall.Seconds())
}

// layerRow is one line of the per-layer summary: a layer total, or one
// span name within it.
type layerRow struct {
	Layer string  `json:"layer"`
	Name  string  `json:"name,omitempty"` // empty on a layer total
	Count int     `json:"count"`
	BusyS float64 `json:"busy_s"`
	SelfS float64 `json:"self_s"`
}

// table summarizes the spans by layer and by span name.
func (tr *tracer) table() []layerRow {
	byName := map[string]*layerRow{}
	for _, k := range tr.tracks {
		for name, a := range k.agg {
			row := byName[name]
			if row == nil {
				layer, _, _ := strings.Cut(name, ".")
				row = &layerRow{Layer: layer, Name: name}
				byName[name] = row
			}
			row.Count += a.count
			row.BusyS += a.busy.Seconds()
			row.SelfS += a.self.Seconds()
		}
	}
	layers := map[string]*layerRow{}
	var rows []layerRow
	for _, row := range byName {
		rows = append(rows, *row)
		l := layers[row.Layer]
		if l == nil {
			l = &layerRow{Layer: row.Layer}
			layers[row.Layer] = l
		}
		l.Count += row.Count
		l.BusyS += row.BusyS
		l.SelfS += row.SelfS
	}
	for _, l := range layers {
		rows = append(rows, *l)
	}
	slices.SortFunc(rows, func(a, b layerRow) int {
		if c := strings.Compare(a.Layer, b.Layer); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return rows
}

func printTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-28s %10s %10s %10s\n", "layer / span", "count", "busy_s", "self_s")
	for _, r := range rows {
		label := r.Layer
		if r.Name != "" {
			label = "  " + r.Name
		}
		fmt.Fprintf(w, "  %-28s %10d %10.4f %10.4f\n", label, r.Count, r.BusyS, r.SelfS)
	}
}

// writeSpans writes every kept span, ordered by start time, with the
// summary table.
func (tr *tracer) writeSpans(path string) error {
	var spans []span
	for _, k := range tr.tracks {
		spans = append(spans, k.spans...)
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.StartNS, b.StartNS) })
	dropped := max(tr.kept.Load()-maxSpans, 0)
	blob, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Origin   time.Time  `json:"origin"`
		Dropped  int64      `json:"dropped"`
		Table    []layerRow `json:"table"`
		Spans    []span     `json:"spans"`
	}{tr.workload, tr.origin, dropped, tr.table(), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
