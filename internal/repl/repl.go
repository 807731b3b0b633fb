// Package repl replicates a durable sharded set to read-only followers by
// shipping its write-ahead log.
//
// A Primary wraps a live durable set (shard.Sharded + its persist.Store).
// Followers replay the primary's per-shard WAL records — already a total
// order per shard — into replica sets (shard.NewReplica) through
// persist.Replay, the run-merging replay crash recovery uses, and serve
// the same handle-based snapshot and live read API off them, scaling read
// traffic horizontally. The applier is the replica's only publisher: each
// replayed batch of records, bootstrap state, and boundary table becomes
// visible to readers as soon as it is applied.
//
// There is one link protocol (wire.go) and two ways to connect it:
// Serve/Dial run it over a socket, and Pair runs it in process over an
// in-memory pipe (net.Pipe). Either way the follower announces its
// positions in a hello, the primary's per-connection shipper streams
// frames from there (so reconnecting is resume-from-position), and the
// follower acknowledges each applied frame. The primary's ReplStats count
// lag from those acknowledgements, so they mean the same for every link.
//
// # Replication contract
//
//   - Per-shard exact prefix: at every instant, each follower shard's key
//     set equals the result of applying a prefix of the primary's
//     acknowledged, fsynced record sequence for that shard. The shipper
//     only reads below the primary's seal (persist.ShippableUpTo), the
//     applier enforces gap-free sequence continuity, and bootstrap states
//     are checkpoint-chain states — exact at their covering sequence (the
//     recovery path's own invariant, inherited wholesale). There is no
//     weaker mode: a follower that cannot maintain the invariant stops
//     with an error, and closes its link, instead of approximating.
//   - Cross-shard: eventually consistent. Shards ship independently, so a
//     follower's cut across shards can sit at different prefixes, and a
//     boundary-table update can reach the follower slightly before or
//     after the move records it describes; during that window a range
//     read on the follower may miss or double-route keys near a moved
//     boundary, exactly as a primary-side reader racing the move window
//     spans shard states. When the follower is caught up and the primary
//     quiescent, follower state equals primary state, bounds included.
//   - Staleness: a follower lags the primary by (a) unsynced records the
//     group commit has not sealed, plus (b) sealed records it has not yet
//     acknowledged applying. ReplStats reports (b) for live links;
//     followers report their own positions. Followers never serve
//     anything the primary could not have served at some recent instant.
//   - Bootstrap: a fresh or too-far-behind follower (its position deleted
//     behind a base checkpoint: persist.ErrPositionGone) receives the
//     newest verifiable checkpoint chain state — the pointer-free leaf
//     list a base checkpoint holds, verified on arrival — stamped with the
//     sequence it covers, then resumes record shipping from there.
//     Recovery-time span-enforcement drops are journaled by the store, so
//     chain-state ⊕ records is always exactly the acknowledged history.
//
// Followers must be constructed with the primary's geometry (shard
// count, partition policy, key width, and for range partitions the same
// seed Bounds/BoundsGen); later boundary moves replicate automatically.
// One link (Pair or Dial) may drive a Follower at a time.
//
// A follower follows one primary's history. The primary refuses a hello
// whose position on any shard lies past its seal, since no follower of
// its own history can be there (a follower receives only sealed records,
// and recovery never lowers the seal). The check cannot catch another
// primary whose seal is already past the follower's positions: that
// primary would ship its records on top of a foreign prefix, so linking
// a follower to a different primary's history is up to the caller to
// avoid.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpma"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/shard"
)

// Default shipping knobs: how long a caught-up shipper sleeps before
// polling the seal again, and how many keys one read batch carries.
const (
	defaultTailInterval   = 2 * time.Millisecond
	defaultMaxKeysPerRead = 1 << 16
)

// Options tunes a replication link. The zero value selects the defaults.
type Options struct {
	// TailInterval is the idle poll interval once a follower is caught up
	// to the primary's seal. 0 means 2ms.
	TailInterval time.Duration
	// MaxKeysPerRead bounds the keys one shipping read collects per shard
	// per iteration. 0 means 65536.
	MaxKeysPerRead int
}

func (o *Options) withDefaults() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.TailInterval <= 0 {
		v.TailInterval = defaultTailInterval
	}
	if v.MaxKeysPerRead <= 0 {
		v.MaxKeysPerRead = defaultMaxKeysPerRead
	}
	return v
}

// Primary is the shipping side of replication: a live durable set and its
// store, plus counters over every link served.
type Primary struct {
	set *shard.Sharded
	st  *persist.Store

	shippedRecs atomic.Uint64
	shippedKeys atomic.Uint64
	boundsShips atomic.Uint64

	// shipDur times one recs frame, read from the sealed log and written
	// to the link (backpressure from a busy follower included, its apply
	// of the frame not); bootDur one boot frame the same way, from the
	// checkpoint chain load on (its count is ReplStats().Bootstraps). Polls
	// that write no frame are not timed.
	shipDur obs.Histogram
	bootDur obs.Histogram

	mu    sync.Mutex
	links map[*cursor]struct{}
}

// NewPrimary wraps a running durable set and its store for
// replication. The set must have been opened from st (persist.OpenSharded
// or repro.OpenPrimary wire this correctly).
func NewPrimary(set *shard.Sharded, st *persist.Store) (*Primary, error) {
	if set == nil || st == nil {
		return nil, errors.New("repl: NewPrimary needs a set and its store")
	}
	if !set.Durable() {
		return nil, errors.New("repl: the primary must be durable (replication ships its WAL)")
	}
	if set.Replica() {
		return nil, errors.New("repl: a replica cannot be a primary")
	}
	if n := len(st.Positions()); n != set.Shards() {
		return nil, fmt.Errorf("repl: store has %d shards, set has %d", n, set.Shards())
	}
	return &Primary{set: set, st: st, links: make(map[*cursor]struct{})}, nil
}

// Set returns the primary's sharded set.
func (pr *Primary) Set() *shard.Sharded { return pr.set }

// ReplStats is the primary's replication counters. LagRecords is the
// largest count, across live links, of sealed records the follower has
// not acknowledged applying: 0 means every linked follower has applied
// and published everything the primary has made durable. Links and
// LagRecords are gauges; the other fields are monotone counters.
type ReplStats struct {
	Links          int
	ShippedRecords uint64
	ShippedKeys    uint64
	Bootstraps     uint64
	BoundsUpdates  uint64
	LagRecords     uint64
}

// RegisterMetrics registers the primary's shipping latency histograms and
// one counter or gauge per ReplStats field with r under prefix ("repl"
// when empty).
func (pr *Primary) RegisterMetrics(r *obs.Registry, prefix string) {
	if prefix == "" {
		prefix = "repl"
	}
	r.RegisterHistogram(prefix+"_ship_ns", "ns", "one recs frame read from the sealed log and written to a link, waiting while the link is full", &pr.shipDur)
	r.RegisterHistogram(prefix+"_bootstrap_ns", "ns", "one bootstrap state transfer: checkpoint chain loaded, encoded and written to a link", &pr.bootDur)
	r.GaugeFunc(prefix+"_links", "links", "live replication links", func() int64 { return int64(pr.ReplStats().Links) })
	r.CounterFunc(prefix+"_shipped_records", "records", "WAL records shipped to followers", func() uint64 { return pr.ReplStats().ShippedRecords })
	r.CounterFunc(prefix+"_shipped_keys", "keys", "keys across shipped records", func() uint64 { return pr.ReplStats().ShippedKeys })
	r.CounterFunc(prefix+"_bootstraps", "transfers", "checkpoint-chain bootstraps sent", func() uint64 { return pr.ReplStats().Bootstraps })
	r.CounterFunc(prefix+"_bounds_updates", "tables", "boundary tables shipped", func() uint64 { return pr.ReplStats().BoundsUpdates })
	r.GaugeFunc(prefix+"_lag_records", "records", "largest count of sealed records a live link's follower has not acknowledged applying", func() int64 { return int64(pr.ReplStats().LagRecords) })
}

// ReplStats returns the primary's replication counters.
func (pr *Primary) ReplStats() ReplStats {
	s := ReplStats{
		ShippedRecords: pr.shippedRecs.Load(),
		ShippedKeys:    pr.shippedKeys.Load(),
		Bootstraps:     pr.bootDur.Count(),
		BoundsUpdates:  pr.boundsShips.Load(),
	}
	seal := make([]uint64, pr.set.Shards())
	for p := range seal {
		seal[p] = pr.st.ShippableUpTo(p)
	}
	pr.mu.Lock()
	s.Links = len(pr.links)
	for cur := range pr.links {
		var lag uint64
		cur.mu.Lock()
		for p, pos := range cur.acked {
			if seal[p] > pos {
				lag += seal[p] - pos
			}
		}
		cur.mu.Unlock()
		if lag > s.LagRecords {
			s.LagRecords = lag
		}
	}
	pr.mu.Unlock()
	return s
}

func (pr *Primary) addLink(cur *cursor) {
	pr.mu.Lock()
	pr.links[cur] = struct{}{}
	pr.mu.Unlock()
}

func (pr *Primary) dropLink(cur *cursor) {
	pr.mu.Lock()
	delete(pr.links, cur)
	pr.mu.Unlock()
}

// cursor is one link's position on the primary: per shard, the last
// record sequence sent and the last one the follower acknowledged, plus
// the last boundary generation sent. The shipper owns sent and boundsGen:
// it reads sent freely and writes it under mu, since the ack reader checks
// acks against it. The ack reader writes acked and ReplStats reads it,
// both under mu.
type cursor struct {
	mu        sync.Mutex
	sent      []uint64
	acked     []uint64
	boundsGen uint64
}

func (c *cursor) set(p int, seq uint64) {
	c.mu.Lock()
	c.sent[p] = seq
	c.mu.Unlock()
}

// ack records an ack frame's payload. The follower is not trusted: an ack
// for a shard the primary does not have, or past what it was sent, is an
// error and ends the link.
func (c *cursor) ack(payload []byte) error {
	if len(payload) != ackLen {
		return errors.New("repl: bad ack frame")
	}
	p := int(binary.LittleEndian.Uint32(payload))
	seq := binary.LittleEndian.Uint64(payload[4:])
	c.mu.Lock()
	defer c.mu.Unlock()
	if p >= len(c.sent) {
		return fmt.Errorf("repl: ack for shard %d", p)
	}
	if seq > c.sent[p] {
		return fmt.Errorf("repl: shard %d acked %d, sent only %d", p, seq, c.sent[p])
	}
	c.acked[p] = seq
	return nil
}

// shipOnce runs one shipping sweep over w: bounds first (cheap, keeps
// follower routing close to follower contents), then every shard —
// bootstrap if the position is gone (or fresh with a chain available),
// else the sealed records past the cursor. Reports whether anything moved.
func (pr *Primary) shipOnce(cur *cursor, w io.Writer, maxKeys int) (bool, error) {
	progress := false
	if gen, bounds := pr.set.RouterBounds(); bounds != nil && gen > cur.boundsGen {
		if err := writeFrame(w, boundsFrame(gen, bounds)); err != nil {
			return progress, err
		}
		cur.boundsGen = gen
		pr.boundsShips.Add(1)
		progress = true
	}
	for p := 0; p < pr.set.Shards(); p++ {
		moved, err := pr.shipShard(cur, w, p, maxKeys)
		if err != nil {
			return progress, err
		}
		progress = progress || moved
	}
	return progress, nil
}

// shipShard ships shard p's next boot or recs frame, if any. The cursor
// moves before the write, since the follower's ack for the frame may
// reach the ack reader before the write returns. A recs frame is the
// shard id followed by the log's own record frames, copied by
// ReadShippable; the primary decodes and encodes no record.
func (pr *Primary) shipShard(cur *cursor, w io.Writer, p, maxKeys int) (bool, error) {
	pos := cur.sent[p]
	t0 := time.Now()
	boot := pos == 0 && pr.st.CkptSeq(p) > 0
	var fr []byte
	last, nk := pos, 0
	if !boot {
		var err error
		fr, last, nk, err = pr.st.ReadShippable(recsFrame(p), p, pos, maxKeys)
		if errors.Is(err, persist.ErrPositionGone) {
			boot = true
		} else if err != nil {
			return false, err
		}
	}
	if boot {
		t0 = time.Now()
		set, tip, err := pr.st.BootState(p)
		if err != nil {
			return false, err
		}
		if fr, err = bootFrame(p, tip, set); err != nil {
			return false, err
		}
		cur.set(p, tip)
		if err := writeFrame(w, fr); err != nil {
			return false, err
		}
		pr.bootDur.Since(t0)
		pr.set.Trace().Record(p, obs.EvBootstrap, 0, 0, tip, 0)
		return true, nil
	}
	if last == pos {
		return false, nil
	}
	cur.set(p, last)
	if err := writeFrame(w, fr); err != nil {
		return false, err
	}
	pr.shipDur.Since(t0)
	pr.shippedRecs.Add(last - pos)
	pr.shippedKeys.Add(uint64(nk))
	pr.set.Trace().Record(p, obs.EvShip, 0, 0, last-pos, uint64(nk))
	return true, nil
}

// Follower is the replay side: a replica sharded set plus per-shard
// replication positions. Construct with NewFollower, attach with Pair
// (in-process) or Dial (socket) — one link at a time — and read through
// Set or Snapshot.
type Follower struct {
	set     *shard.Sharded
	setOpts *cpma.Options

	mu  sync.Mutex
	pos []persist.Position

	inUse      atomic.Bool
	attaches   atomic.Uint64
	bootstraps atomic.Uint64

	// applyDur times one applyRecs replay batch (records actually applied).
	applyDur obs.Histogram
}

// NewFollower builds a follower with the given geometry; opts carries the
// primary's Partition/KeyBits/Bounds/BoundsGen/Set (other fields are
// ignored — followers change only by replay).
func NewFollower(shards int, opts *shard.Options) *Follower {
	var so *cpma.Options
	if opts != nil {
		so = opts.Set
	}
	return &Follower{
		set:     shard.NewReplica(shards, opts),
		setOpts: so,
		pos:     make([]persist.Position, max(shards, 1)),
	}
}

// Set returns the follower's replica set: the full live read API, with
// client mutations panicking.
func (f *Follower) Set() *shard.Sharded { return f.set }

// Snapshot captures an epoch-consistent frozen view of the follower's
// current state (shard.Sharded.Snapshot on the replica).
func (f *Follower) Snapshot() *shard.Snapshot { return f.set.Snapshot() }

// Positions returns the follower's per-shard replication positions: the
// chain sequence it last bootstrapped from and the last record applied.
func (f *Follower) Positions() []persist.Position {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]persist.Position(nil), f.pos...)
}

// applied returns the last record sequence applied to shard p.
func (f *Follower) applied(p int) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pos[p].Seq
}

// FollowerStats counts a follower's replay work.
type FollowerStats struct {
	AppliedRecords uint64
	AppliedKeys    uint64
	Bootstraps     uint64
	Attaches       uint64
}

// RegisterMetrics registers the follower's apply latency histogram and
// one counter per FollowerStats field with r under prefix ("follower"
// when empty).
func (f *Follower) RegisterMetrics(r *obs.Registry, prefix string) {
	if prefix == "" {
		prefix = "follower"
	}
	r.RegisterHistogram(prefix+"_apply_ns", "ns", "one replay batch applied to the replica set", &f.applyDur)
	r.CounterFunc(prefix+"_applied_records", "records", "WAL records replayed into the replica set", func() uint64 { return f.Stats().AppliedRecords })
	r.CounterFunc(prefix+"_applied_keys", "keys", "keys across replayed records", func() uint64 { return f.Stats().AppliedKeys })
	r.CounterFunc(prefix+"_bootstraps", "transfers", "checkpoint-chain bootstraps loaded", func() uint64 { return f.Stats().Bootstraps })
	r.CounterFunc(prefix+"_attaches", "links", "links attached over the follower's lifetime", func() uint64 { return f.Stats().Attaches })
}

// Stats returns the follower's replay counters. The record and key counts
// are the replica's ingest counters, which count replicated records as
// enqueued batches.
func (f *Follower) Stats() FollowerStats {
	in := f.set.IngestStats()
	return FollowerStats{
		AppliedRecords: in.EnqueuedBatches,
		AppliedKeys:    in.EnqueuedKeys,
		Bootstraps:     f.bootstraps.Load(),
		Attaches:       f.attaches.Load(),
	}
}

// attach claims the follower for one link.
func (f *Follower) attach() error {
	if !f.inUse.CompareAndSwap(false, true) {
		return errors.New("repl: follower already attached to a link")
	}
	f.attaches.Add(1)
	return nil
}

func (f *Follower) detach() { f.inUse.Store(false) }

// applyRecs replays records for shard p through persist.Replay, the
// run-merging replay recovery uses: already-applied records are skipped,
// a hole is a hard error (the prefix invariant would silently break), and
// each run of same-kind records applies as one merged batch. Everything
// applied is published in one step at the end — also when a hole stops
// the replay — so the position and the readable state always agree.
func (f *Follower) applyRecs(p int, recs []persist.Rec) error {
	t0 := time.Now()
	cur := f.applied(p)
	var applied, keys uint64
	last, err := persist.Replay(cur, recs, func(remove bool, ks []uint64, records int) {
		f.set.ReplicaApply(p, remove, ks, records)
		applied += uint64(records)
		keys += uint64(len(ks))
	})
	if err != nil {
		err = fmt.Errorf("repl: shard %d: %w", p, err)
	}
	if applied > 0 {
		f.set.ReplicaPublish(p)
	}
	f.mu.Lock()
	f.pos[p].Seq = last
	f.mu.Unlock()
	if applied > 0 {
		f.applyDur.Since(t0)
		f.set.Trace().Record(p, obs.EvApply, 0, 0, applied, keys)
	}
	return err
}
