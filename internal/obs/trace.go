package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// EventKind identifies a pipeline lifecycle event.
type EventKind uint8

const (
	EvDrain      EventKind = iota // writer drained its mailbox: A=ops coalesced, B=keys applied
	EvPublish                     // copy-on-write publication: A=approx clone cost (bytes or keys)
	EvCheckpoint                  // checkpoint barrier completed (set-global): A=duration ns
	EvMove                        // rebalance boundary move: A=destination shard, B=keys moved
	EvShip                        // replication shipped records: A=records, B=keys
	EvBootstrap                   // replication bootstrap sent: A=records in base state
	EvApply                       // follower applied shipped records: A=records, B=keys
	EvIndex                       // graph view index built (set-global): A=edges indexed, B=build ns
)

var eventNames = [...]string{
	EvDrain:      "drain",
	EvPublish:    "publish",
	EvCheckpoint: "checkpoint",
	EvMove:       "move",
	EvShip:       "ship",
	EvBootstrap:  "bootstrap",
	EvApply:      "apply",
	EvIndex:      "index",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name so /tracez dumps read without
// a decoder ring.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Event is one recorded lifecycle event. Epoch and Gen tie the event to
// the snapshot epoch and router generation current when it fired; A and
// B are kind-specific payloads (see the EventKind constants).
type Event struct {
	TS    int64     `json:"ts_unix_ns"`
	Shard int       `json:"shard"` // -1 for set-global events (checkpoint)
	Kind  EventKind `json:"kind"`
	Epoch uint64    `json:"epoch"`
	Gen   uint64    `json:"gen"`
	A     uint64    `json:"a"`
	B     uint64    `json:"b"`
}

// DefaultTraceDepth is the per-shard ring capacity when 0 is passed to
// NewTrace.
const DefaultTraceDepth = 256

// Trace is a set of fixed-size per-shard event rings. Recording takes
// the owning ring's mutex — writers are per-shard, so the only
// contention is a concurrent dump — and overwrites the oldest event when
// full. Ring index -1 addresses a dedicated global ring for set-wide
// events.
type Trace struct {
	depth int
	rings []traceRing // rings[0] is the global ring; shard s is rings[s+1]
}

type traceRing struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // total events ever recorded; buf[(n-1) % depth] is newest
}

// NewTrace returns a trace with one ring per shard plus a global ring.
func NewTrace(shards, depth int) *Trace {
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	return &Trace{depth: depth, rings: make([]traceRing, shards+1)}
}

// Record appends an event to shard's ring (-1 for the global ring).
func (t *Trace) Record(shard int, kind EventKind, epoch, gen, a, b uint64) {
	if t == nil {
		return
	}
	r := &t.rings[shard+1]
	ev := Event{TS: time.Now().UnixNano(), Shard: shard, Kind: kind, Epoch: epoch, Gen: gen, A: a, B: b}
	r.mu.Lock()
	if len(r.buf) < t.depth {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.n%uint64(t.depth)] = ev
	}
	r.n++
	r.mu.Unlock()
}

// Events returns every retained event across all rings, oldest first.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		out = append(out, r.buf...)
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Dropped returns how many events have been overwritten ring-wide.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var d uint64
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		if r.n > uint64(len(r.buf)) {
			d += r.n - uint64(len(r.buf))
		}
		r.mu.Unlock()
	}
	return d
}

// WriteJSON dumps the retained events (oldest first) as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	evs := t.Events()
	if evs == nil {
		evs = []Event{}
	}
	blob, err := json.MarshalIndent(struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}{t.Dropped(), evs}, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}
