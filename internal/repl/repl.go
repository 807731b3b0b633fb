// Package repl replicates a durable sharded set to read-only followers by
// shipping its write-ahead log.
//
// A Primary wraps a live durable set (shard.Sharded + its persist.Store).
// Followers replay the primary's per-shard WAL records — already a total
// order per shard — into replica sets (shard.NewReplica) and serve the
// same handle-based snapshot and live read API off them, scaling read
// traffic horizontally. The applier is the replica's only publisher: each
// replayed batch of records, bootstrap state, and boundary table becomes
// visible to readers as soon as it is applied. Two transports share one
// shipping engine: Pair wires a follower in process (catch-up, then
// tailing), Serve/Dial put a length-prefixed socket protocol in the
// middle with resume-from-position on reconnect.
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
//     with an error instead of approximating.
//   - Cross-shard: eventually consistent. Shards ship independently, so a
//     follower's cut across shards can sit at different prefixes, and a
//     boundary-table update can reach the follower slightly before or
//     after the move records it describes; during that window a range
//     read on the follower may miss or double-route keys near a moved
//     boundary, exactly as a primary-side reader racing the move window
//     spans shard states. When the follower is caught up and the primary
//     quiescent, follower state equals primary state, bounds included.
//   - Staleness: a follower lags the primary by (a) unsynced records the
//     group commit has not sealed, plus (b) sealed records not yet
//     shipped/applied. ReplStats reports (b) for live links; followers
//     report their own positions. Followers never serve anything the
//     primary could not have served at some recent instant.
//   - Bootstrap: a fresh or too-far-behind follower (its position deleted
//     behind a base checkpoint: persist.ErrPositionGone) receives the
//     newest verifiable checkpoint chain state — the pointer-free slab
//     format makes this a memcpy-grade transfer — stamped with the
//     sequence it covers, then resumes record shipping from there.
//     Recovery-time span-enforcement drops are journaled by the store, so
//     chain-state ⊕ records is always exactly the acknowledged history.
//
// Followers must be constructed with the primary's geometry (shard
// count, partition policy, key width, and for range partitions the same
// seed Bounds/BoundsGen); later boundary moves replicate automatically.
// One link (Pair or Dial) may drive a Follower at a time.
package repl

import (
	"errors"
	"fmt"
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
	DefaultTailInterval   = 2 * time.Millisecond
	DefaultMaxKeysPerRead = 1 << 16
)

// Options tunes a replication link. The zero value selects the defaults.
type Options struct {
	// TailInterval is the idle poll interval once a follower is caught up
	// to the primary's seal. 0 means DefaultTailInterval.
	TailInterval time.Duration
	// MaxKeysPerRead bounds the keys one shipping read collects per shard
	// per iteration. 0 means DefaultMaxKeysPerRead.
	MaxKeysPerRead int
}

func (o *Options) withDefaults() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.TailInterval <= 0 {
		v.TailInterval = DefaultTailInterval
	}
	if v.MaxKeysPerRead <= 0 {
		v.MaxKeysPerRead = DefaultMaxKeysPerRead
	}
	return v
}

// Primary is the shipping side of replication: a live durable set and its
// store, plus counters over every link served (in-process and socket).
type Primary struct {
	set *shard.Sharded
	st  *persist.Store

	shippedRecs atomic.Uint64
	shippedKeys atomic.Uint64
	bootstraps  atomic.Uint64
	boundsShips atomic.Uint64

	// shipDur times one record shipment end to end — for in-process links
	// that includes the follower's apply, for socket links the frame write.
	// bootDur times bootstrap state transfers.
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
// largest sealed-but-unshipped record count across live links: for
// in-process links shipping and applying are one synchronous step, so it
// is the true follower apply lag; for socket links it measures up to the
// send (the follower's own FollowerStats positions give the apply side).
type ReplStats struct {
	Links          int
	ShippedRecords uint64
	ShippedKeys    uint64
	Bootstraps     uint64
	BoundsUpdates  uint64
	LagRecords     uint64
}

// Sub returns the counters accumulated since prev. Links and LagRecords
// are instantaneous gauges, not monotonic counters, and are carried.
func (s ReplStats) Sub(prev ReplStats) ReplStats {
	return ReplStats{
		Links:          s.Links,
		ShippedRecords: s.ShippedRecords - prev.ShippedRecords,
		ShippedKeys:    s.ShippedKeys - prev.ShippedKeys,
		Bootstraps:     s.Bootstraps - prev.Bootstraps,
		BoundsUpdates:  s.BoundsUpdates - prev.BoundsUpdates,
		LagRecords:     s.LagRecords,
	}
}

// ShipLatency snapshots the primary's per-shipment latency histogram.
func (pr *Primary) ShipLatency() obs.HistSnap { return pr.shipDur.Snapshot() }

// RegisterMetrics registers the primary's replication counters and
// shipping latency histograms with r under prefix (e.g. "cpma_repl").
func (pr *Primary) RegisterMetrics(r *obs.Registry, prefix string) {
	if prefix == "" {
		prefix = "repl"
	}
	r.RegisterHistogram(prefix+"_ship_ns", "ns", "one record shipment, send through apply for in-process links", &pr.shipDur)
	r.RegisterHistogram(prefix+"_bootstrap_ns", "ns", "one bootstrap state transfer", &pr.bootDur)
	r.Stats(prefix, "primary replication counters", func() any { return pr.ReplStats() })
}

// ReplStats returns the primary's replication counters.
func (pr *Primary) ReplStats() ReplStats {
	s := ReplStats{
		ShippedRecords: pr.shippedRecs.Load(),
		ShippedKeys:    pr.shippedKeys.Load(),
		Bootstraps:     pr.bootstraps.Load(),
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
		for p, pos := range cur.pos {
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

// cursor is one link's shipping position: the last record sequence sent
// per shard and the last boundary generation sent. The link goroutine
// owns it; ReplStats reads it under mu.
type cursor struct {
	mu        sync.Mutex
	pos       []uint64
	boundsGen uint64
}

func (c *cursor) get(p int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pos[p]
}

func (c *cursor) set(p int, seq uint64) {
	c.mu.Lock()
	c.pos[p] = seq
	c.mu.Unlock()
}

// sink is where a link delivers: the in-process sink applies straight to
// the follower, the socket sink writes frames.
type sink interface {
	sendBoot(p int, tip uint64, set *cpma.CPMA) error
	sendRecs(p int, recs []persist.Rec) error
	sendBounds(gen uint64, bounds []uint64) error
}

// shipOnce runs one shipping sweep: bounds first (cheap, keeps follower
// routing close to follower contents), then every shard — bootstrap if
// the position is gone (or fresh with a chain available), else the
// sealed records past the cursor. Reports whether anything moved.
func (pr *Primary) shipOnce(cur *cursor, sk sink, maxKeys int) (bool, error) {
	progress := false
	if gen, bounds := pr.set.RouterBounds(); bounds != nil && gen > cur.boundsGen {
		if err := sk.sendBounds(gen, bounds); err != nil {
			return progress, err
		}
		cur.boundsGen = gen
		pr.boundsShips.Add(1)
		progress = true
	}
	for p := 0; p < pr.set.Shards(); p++ {
		moved, err := pr.shipShard(cur, sk, p, maxKeys)
		if err != nil {
			return progress, err
		}
		progress = progress || moved
	}
	return progress, nil
}

func (pr *Primary) shipShard(cur *cursor, sk sink, p, maxKeys int) (bool, error) {
	pos := cur.get(p)
	boot := pos == 0 && pr.st.Positions()[p].CkptSeq > 0
	var recs []persist.Rec
	if !boot {
		var err error
		recs, err = pr.st.ReadShippable(p, pos, maxKeys)
		if errors.Is(err, persist.ErrPositionGone) {
			boot = true
		} else if err != nil {
			return false, err
		}
	}
	if boot {
		set, tip, err := pr.st.BootState(p)
		if err != nil {
			return false, err
		}
		t0 := time.Now()
		if err := sk.sendBoot(p, tip, set); err != nil {
			return false, err
		}
		pr.bootDur.Since(t0)
		cur.set(p, tip)
		pr.bootstraps.Add(1)
		pr.set.Trace().Record(p, obs.EvBootstrap, 0, 0, tip, 0)
		return true, nil
	}
	if len(recs) == 0 {
		return false, nil
	}
	t0 := time.Now()
	if err := sk.sendRecs(p, recs); err != nil {
		return false, err
	}
	pr.shipDur.Since(t0)
	cur.set(p, recs[len(recs)-1].Seq)
	nk := 0
	for _, r := range recs {
		nk += len(r.Keys)
	}
	pr.shippedRecs.Add(uint64(len(recs)))
	pr.shippedKeys.Add(uint64(nk))
	pr.set.Trace().Record(p, obs.EvShip, 0, 0, uint64(len(recs)), uint64(nk))
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

	inUse       atomic.Bool
	attaches    atomic.Uint64
	appliedRecs atomic.Uint64
	appliedKeys atomic.Uint64
	bootstraps  atomic.Uint64

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
		pos:     make([]persist.Position, maxInt(shards, 1)),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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

// FollowerStats counts a follower's replay work.
type FollowerStats struct {
	AppliedRecords uint64
	AppliedKeys    uint64
	Bootstraps     uint64
	Attaches       uint64
}

// Sub returns the counters accumulated since prev.
func (s FollowerStats) Sub(prev FollowerStats) FollowerStats {
	return FollowerStats{
		AppliedRecords: s.AppliedRecords - prev.AppliedRecords,
		AppliedKeys:    s.AppliedKeys - prev.AppliedKeys,
		Bootstraps:     s.Bootstraps - prev.Bootstraps,
		Attaches:       s.Attaches - prev.Attaches,
	}
}

// ApplyLatency snapshots the follower's replay-batch latency histogram.
func (f *Follower) ApplyLatency() obs.HistSnap { return f.applyDur.Snapshot() }

// RegisterMetrics registers the follower's replay counters and apply
// latency histogram with r under prefix (e.g. "cpma_follower").
func (f *Follower) RegisterMetrics(r *obs.Registry, prefix string) {
	if prefix == "" {
		prefix = "follower"
	}
	r.RegisterHistogram(prefix+"_apply_ns", "ns", "one replay batch applied to the replica set", &f.applyDur)
	r.Stats(prefix, "follower replay counters", func() any { return f.Stats() })
}

// Stats returns the follower's replay counters.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		AppliedRecords: f.appliedRecs.Load(),
		AppliedKeys:    f.appliedKeys.Load(),
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

// applyBoot installs a bootstrap state for shard p, covering records up
// to tip. Ownership of set transfers to the replica.
func (f *Follower) applyBoot(p int, tip uint64, set *cpma.CPMA) {
	f.set.ReplicaReset(p, set)
	f.mu.Lock()
	f.pos[p] = persist.Position{CkptSeq: tip, Seq: tip}
	f.mu.Unlock()
	f.bootstraps.Add(1)
}

// applyRecs replays records for shard p, enforcing gap-free sequence
// continuity: already-applied records are skipped, a hole is a hard error
// (the prefix invariant would silently break). Everything applied is
// published in one step at the end — also when a hole stops the replay —
// so the position and the readable state always agree.
func (f *Follower) applyRecs(p int, recs []persist.Rec) error {
	t0 := time.Now()
	f.mu.Lock()
	cur := f.pos[p].Seq
	f.mu.Unlock()
	var applied, keys uint64
	var err error
	for _, r := range recs {
		if r.Seq <= cur {
			continue
		}
		if r.Seq != cur+1 {
			err = fmt.Errorf("repl: shard %d sequence gap: applied %d, next record %d", p, cur, r.Seq)
			break
		}
		f.set.ReplicaApply(p, r.Remove, r.Keys)
		cur = r.Seq
		applied++
		keys += uint64(len(r.Keys))
	}
	if applied > 0 {
		f.set.ReplicaPublish(p)
	}
	f.mu.Lock()
	f.pos[p].Seq = cur
	f.mu.Unlock()
	if applied > 0 {
		f.appliedRecs.Add(applied)
		f.appliedKeys.Add(keys)
		f.applyDur.Since(t0)
		f.set.Trace().Record(p, obs.EvApply, 0, 0, applied, keys)
	}
	return err
}

// applyBounds installs a replicated boundary table; a malformed table is
// an error and changes nothing.
func (f *Follower) applyBounds(gen uint64, bounds []uint64) error {
	return f.set.ReplicaSetBounds(gen, bounds)
}

// localSink applies shipped state directly to an in-process follower.
type localSink struct{ f *Follower }

func (s localSink) sendBoot(p int, tip uint64, set *cpma.CPMA) error {
	s.f.applyBoot(p, tip, set)
	return nil
}
func (s localSink) sendRecs(p int, recs []persist.Rec) error { return s.f.applyRecs(p, recs) }
func (s localSink) sendBounds(gen uint64, bounds []uint64) error {
	return s.f.applyBounds(gen, bounds)
}

// Link is a running in-process replication link. Close stops it; a
// stopped link can be re-Paired (the follower keeps its positions, so
// the new link resumes where this one stopped — the reconnect
// primitive the differential harness kills and revives).
type Link struct {
	pr       *Primary
	f        *Follower
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	errMu sync.Mutex
	err   error
}

// Pair attaches a follower to a primary in process and starts shipping:
// catch-up (bootstrap if needed) and then tailing until Close. The
// follower resumes from its current positions.
func Pair(pr *Primary, f *Follower, opts *Options) (*Link, error) {
	o := opts.withDefaults()
	if err := checkGeometry(pr.set, f.set); err != nil {
		return nil, err
	}
	if err := f.attach(); err != nil {
		return nil, err
	}
	cur := newCursor(f)
	l := &Link{pr: pr, f: f, stop: make(chan struct{}), done: make(chan struct{})}
	pr.addLink(cur)
	go l.run(cur, o)
	return l, nil
}

// newCursor seeds a link cursor from the follower's own positions, so a
// re-attached link continues exactly where the previous one stopped.
func newCursor(f *Follower) *cursor {
	positions := f.Positions()
	pos := make([]uint64, len(positions))
	for p, q := range positions {
		pos[p] = q.Seq
	}
	return &cursor{pos: pos, boundsGen: f.set.RebalanceStats().Gen}
}

func checkGeometry(p, f *shard.Sharded) error {
	if p.Shards() != f.Shards() {
		return fmt.Errorf("repl: primary has %d shards, follower %d", p.Shards(), f.Shards())
	}
	if p.Partition() != f.Partition() {
		return errors.New("repl: primary and follower partition policies differ")
	}
	if p.KeyBits() != f.KeyBits() {
		return fmt.Errorf("repl: primary KeyBits %d, follower %d", p.KeyBits(), f.KeyBits())
	}
	return nil
}

func (l *Link) run(cur *cursor, o Options) {
	defer close(l.done)
	defer l.f.detach()
	defer l.pr.dropLink(cur)
	sk := localSink{f: l.f}
	for {
		progress, err := l.pr.shipOnce(cur, sk, o.MaxKeysPerRead)
		if err != nil {
			l.setErr(err)
			return
		}
		if progress {
			select {
			case <-l.stop:
				return
			default:
			}
			continue
		}
		select {
		case <-l.stop:
			return
		case <-time.After(o.TailInterval):
		}
	}
}

func (l *Link) setErr(err error) {
	l.errMu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.errMu.Unlock()
}

// Err returns the link's first hard error (nil while healthy).
func (l *Link) Err() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

// Close stops the link and waits for its shipper to exit, returning the
// link's first error. The follower stays valid (and re-attachable) with
// everything applied so far.
func (l *Link) Close() error {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
	return l.Err()
}
