// Package shard layers a concurrent, sharded front-end over the
// batch-parallel CPMA.
//
// The CPMA is batch-parallel, not concurrent (paper §2): a batch update uses
// every core, but only a single writer may mutate the structure at a time,
// which caps a server at one mutating client no matter how many cores are
// free. A Sharded set turns P single-writer CPMAs into one concurrently
// usable set — the way PaC-trees wrap batch-parallel structures behind a
// concurrent collection interface. Keys are partitioned across P shards
// (by hash or by key range). Each shard owns one CPMA and exactly one
// mutator: a writer goroutine draining the shard's mailbox. There are no
// shard locks.
//
// A CPMA leaf stores deltas, so a shard stores its keys more compactly the
// denser they sit. Range shards hold contiguous keys. Hash shards store
// quotients: a key's low b = floor(log2 P) bits pick its shard together
// with a hash of the rest, and the shard stores only the rest. Every
// stored delta is then b bits shorter than the key delta would be, and
// reads decode each stored value back into its key (see HashPartition).
//
// # Writes: the mailbox pipeline
//
// Every mutation scatters into sorted per-shard sub-batches that are mailed
// to the owning shards' bounded mailboxes (Options.MailboxDepth). Each
// writer greedily drains whatever has accumulated, coalesces adjacent
// fire-and-forget sub-batches into one sorted merge, and applies it as a
// single CPMA batch: under many concurrent clients a shard applies a few
// large merges instead of many small ones, recovering the batch-size
// amortization of paper Fig. 1 (larger batches insert strictly faster per
// element).
//
//   - InsertBatchAsync/RemoveBatchAsync scatter, enqueue, and return
//     without waiting for the apply. A full mailbox exerts backpressure:
//     the enqueue blocks until the writer catches up.
//   - Insert, Remove, InsertBatch and RemoveBatch enqueue with a completion
//     ticket and wait. A ticketed sub-batch is applied on its own, so the
//     returned fresh/removed count is exact.
//   - Flush blocks until every operation enqueued before the call has been
//     applied and published. Operations enqueued concurrently with a Flush
//     may or may not be covered by it.
//   - Close drains all mailboxes (a final implicit Flush), stops the
//     writers, and makes further mutations panic; reads remain valid on the
//     closed set. Close must not race with in-flight mutations, but is safe
//     against concurrent Flush and reads, and is idempotent.
//
// # Reads: published handles
//
// After every drain that changed its shard, a writer publishes an immutable
// cpma.Clone handle through an atomic pointer (copy-on-write: the clone
// costs O(dirty leaves), see snapshot.go). Every read — Has, Len, Sum,
// SizeBytes, RangeSum, Next, Min, Max, Map, MapRange, Keys, Validate, and
// Snapshot itself — grabs the published handles of the shards its span
// covers, validated against one routing table, and runs on those frozen
// CPMAs. Readers never wait on an apply and never block a writer, and Map
// and MapRange callbacks run on frozen data, so they may call back into the
// set (mutations included).
//
// # Consistency contract
//
// Each shard is linearizable in mailbox order: its mailbox is FIFO and its
// writer is its only mutator, so all operations one goroutine enqueues
// apply in enqueue order on every shard they touch, and every published
// handle is an exact prefix of its shard's operation history.
//
//   - Blocking calls are read-your-writes. A ticket completes only after
//     the drain that applied it has published, so once Insert, Remove,
//     InsertBatch or RemoveBatch returns, every later read — a Snapshot
//     included — observes it.
//   - Fire-and-forget calls are read-your-flushes. InsertBatchAsync and
//     RemoveBatchAsync become visible when their drain publishes; once a
//     Flush returns, every read covers everything it flushed.
//   - A read spanning several shards observes one frontier cut: each
//     shard's handle is a prefix of that shard's history, all grabbed at one
//     instant, so different shards may sit at different prefixes of a
//     multi-shard batch stream. Within one read (or one Snapshot) the data
//     never changes.
//
// # Snapshots
//
// Snapshot() captures the same handles as a long-lived value: a frozen view
// serving the full read API, so many reads share one cut and long analytics
// scans run concurrently with ingest. A Snapshot outlives Close. See
// Snapshot and SnapshotStats in snapshot.go.
//
// # Durability (Options.Journal)
//
// A durable set plugs a Journal (implemented by repro/internal/persist)
// into the pipeline. The mailbox writers are the hook points: each writer
// appends its batch to the journal before applying it (write-ahead), hands
// the journal the frozen handle it publishes after every drain (the
// checkpointable state), and turns Flush tokens into fsync barriers.
// Checkpoint() is Flush plus a slab checkpoint of every shard and WAL
// truncation; PersistStats() reports the journal counters. Because all
// mutations flow through the writers, the journal observes the complete
// per-shard operation sequence with no extra synchronization on the ingest
// path. See the persist package for the durability contract and the
// on-disk formats.
//
// # Rebalancing (Options.Rebalance)
//
// Under RangePartition a skewed key distribution loads shards unevenly,
// and the hot shard's single writer becomes the pipeline's bottleneck.
// Rebalancing makes the span boundaries dynamic: routing is an
// authoritative sorted boundary table held behind an atomic pointer, and
// a load monitor (or an explicit RebalanceOnce call) moves the boundary
// between an overloaded shard and its lighter neighbor. One move
// quiesces exactly the two affected mailbox writers (a quiesce token
// parks each writer at a rest point between applies), extracts the
// pair's keys from their frozen CPMAs, rebuilds two CPMAs split at the
// pair's target share, journals the move on a durable set (see the
// persist package's barrier protocol), swaps in a new router generation,
// and publishes fresh handles stamped with it. Every other shard keeps
// ingesting throughout; enqueues stall only for the move's duration (the
// rebalancer holds the enqueue-side lifecycle lock so no batch can be
// split against one boundary table and mailed against another).
//
// The consistency contract survives rebalancing unchanged: every read
// validates each grabbed handle against the router's per-shard span
// generation, so no read can pair a handle from before a boundary move
// with a routing table from after it (or vice versa). Rebalancing requires
// RangePartition.
//
// # Repeated keys
//
// A batch update is a set union (or difference), so a key that repeats
// within one batch carries no information — and skewed streams repeat a
// few hot keys constantly, which rebalancing cannot help (it cannot
// subdivide one key). Every unsorted enqueue therefore drops repeats
// before anything else touches the batch: one pass over the caller's keys
// probes a small direct-mapped table of last-seen keys and copies only
// first sightings (distinctSorted), then sorts and compacts that private
// copy, so every sub-batch reaches its mailbox sorted and distinct and a
// hot key costs one table probe per occurrence instead of a trip through
// the sort, the scatter, the mailbox, the coalescing merge and the CPMA.
// Caller-sorted batches skip the filter: the CPMA dedups sorted input.
package shard

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpma"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Partition selects how keys are routed to shards.
type Partition int

const (
	// HashPartition spreads any input distribution evenly across shards
	// and stores quotients. With b = floor(log2 P), a key k splits into
	// the quotient q = k>>b and the digit r = k mod 2^b. It routes to shard
	// (h(q) + r) mod P, where h(q) = hi64((q * fibMul mod 2^64) * P) is a
	// multiply-shift hash, and that shard stores q+1 (never 0, never
	// overflowing). The 2^b <= P digits of one quotient land on distinct
	// shards, so each shard holds a quotient at most once and its stored
	// order is its key order. A shard's keys are 2^b times denser than
	// the keys themselves, so each stored delta is b bits shorter. Reads
	// decode q = s-1, r = (p - h(q)) mod P, k = q<<b | r. One shard (b = 0)
	// stores keys as they are. Ordered operations (MapRange, Keys) must
	// merge across all shards.
	HashPartition Partition = iota
	// RangePartition splits the key space [1, 2^KeyBits) into P contiguous
	// equal spans, so ordered operations touch only the overlapping shards.
	// Skewed key distributions will load shards unevenly.
	RangePartition
)

// Pipeline tuning: a mailbox holds up to DefaultMailboxDepth pending
// sub-batches (Options.MailboxDepth overrides it), and one drain coalesces
// at most maxCoalesceKeys keys into a single apply (a single larger batch
// is still applied whole).
const (
	DefaultMailboxDepth = 64
	maxCoalesceKeys     = 1 << 20
)

// repeatBits sizes the enqueue-side repeat filter: a direct-mapped table
// of 1<<repeatBits last-seen keys (8 KiB on the stack), enough to hold a
// skewed stream's hot set while staying in L1.
const repeatBits = 10

// Default rebalancer tuning: the monitor samples per-shard key counts
// every DefaultRebalanceEvery and moves boundaries while the max/mean
// ratio exceeds DefaultMaxSkew.
const (
	DefaultMaxSkew        = 1.5
	DefaultRebalanceEvery = 100 * time.Millisecond
	// minRebalanceKeys is the smallest pair population worth moving a
	// boundary for; below it skew is noise, not load.
	minRebalanceKeys = 64
)

// Options configures a Sharded set.
type Options struct {
	// Partition selects the routing policy (default HashPartition).
	Partition Partition
	// KeyBits is the expected key width for RangePartition: keys are assumed
	// to lie in [1, 2^KeyBits), and keys at or above 2^KeyBits all route to
	// the last shard. 0 (or >64) means the full 64-bit space.
	KeyBits int
	// Bounds seeds the RangePartition boundary table: shards-1 ascending
	// keys, shard p owning [Bounds[p-1], Bounds[p]). nil selects the
	// equal-width default over [0, 2^KeyBits). The persist layer uses it to
	// restart a durable set with the spans its recovery replayed against.
	Bounds []uint64
	// BoundsGen seeds the router generation (the persist layer restores the
	// last journaled rebalance generation so new moves keep the on-disk
	// generation sequence monotone). 0 for fresh sets.
	BoundsGen uint64
	// Set configures each shard's CPMA; nil selects the paper's defaults.
	Set *cpma.Options

	// Async is ignored: every set runs the mailbox pipeline. The field
	// remains so existing callers that set it keep compiling.
	Async bool
	// MailboxDepth bounds each shard's mailbox (pending sub-batches); a
	// full mailbox blocks enqueues. 0 means DefaultMailboxDepth.
	MailboxDepth int

	// Rebalance starts the live span rebalancer (see the package
	// documentation): a background monitor samples per-shard key counts and
	// moves span boundaries between adjacent shards whenever the max/mean
	// ratio exceeds MaxSkew. Requires RangePartition; New panics otherwise.
	// RebalanceOnce can always be called manually on a range-partitioned
	// set, monitor or not.
	Rebalance bool
	// MaxSkew is the rebalance trigger: the monitor moves boundaries while
	// the max/mean shard key-count ratio exceeds it. 0 means
	// DefaultMaxSkew; values below 1.1 are clamped to 1.1 (a perfectly flat
	// target would rebalance forever on rounding noise).
	MaxSkew float64
	// RebalanceEvery is the monitor's sampling interval. 0 means
	// DefaultRebalanceEvery.
	RebalanceEvery time.Duration

	// Dir, when non-empty, asks for crash durability: a per-shard
	// write-ahead log plus slab checkpoints rooted at this directory. The
	// shard package itself only carries these fields — the persist layer
	// reads them, recovers the on-disk state, and hands New a Journal; use
	// repro.OpenDurableShardedSet (or persist.OpenSharded) to build a
	// durable set. New panics if Dir is set without a Journal, so a
	// silently non-durable set cannot be constructed by accident.
	Dir string
	// SyncEvery is the WAL group-commit record threshold: each shard's log
	// is fsynced after this many appended batch records (1 = every record,
	// 0 = the persist layer's default, negative = no count-based fsync).
	SyncEvery int
	// SyncBytes is the WAL group-commit byte threshold, fsyncing a shard's
	// log once this many bytes accumulate since the last sync (0 = default,
	// negative = no byte-based fsync). Flush always forces an fsync
	// regardless of both knobs.
	SyncBytes int
	// CheckpointEveryBatches makes the background checkpointer write a
	// shard's slab checkpoint (and truncate its WAL prefix) once that many
	// batch records accumulate past the last checkpoint (0 = default,
	// negative = checkpoint only on explicit Checkpoint calls).
	CheckpointEveryBatches int
	// CompactEveryDeltas bounds a shard's delta-checkpoint chain: after
	// this many incremental delta checkpoints against one base slab, the
	// next checkpoint writes a fresh full base and compacts the chain away
	// (0 = the persist layer's default, negative = compact on every
	// checkpoint, i.e. disable deltas).
	CompactEveryDeltas int
	// Journal is the durability hook the persist layer implements; the
	// mailbox writer goroutines drive it.
	Journal Journal
}

// Journal is the hook a persistence layer plugs into a Sharded set. All
// per-shard calls (Append, Published, Synced) are made from the owning
// shard's writer goroutine only, strictly ordered: every batch is Appended
// before it is applied to the shard's CPMA (write-ahead), Published hands
// over the frozen handle covering everything appended so far after each
// drain, and Synced is the durability barrier behind Flush. Checkpoint,
// Stats, and Close may be called from any goroutine.
//
// Append and Synced errors are fatal to the writer goroutine (it panics):
// a durable set that can no longer log must not keep acknowledging
// mutations as if it could.
type Journal interface {
	// Append logs one sorted batch bound for shard p before it is applied.
	Append(p int, remove bool, keys []uint64) error
	// Published reports that set — an immutable handle — reflects every
	// batch appended to shard p so far. The handle carries the dirty-leaf
	// window since the previous published handle (cpma.DirtySince), which
	// the journal accumulates to write delta checkpoints; the same handle
	// may be reported repeatedly (flush tokens republish), and only the
	// first report of a handle carries a new window. Also called once per
	// shard during construction (before any writer starts) to hand over
	// the seed handle.
	Published(p int, set *cpma.CPMA)
	// Synced forces shard p's log to stable storage.
	Synced(p int) error
	// Rebalanced journals one boundary move — keys moved from shard src to
	// shard dst, producing router generation gen with the given interior
	// boundary table — as a pair of WAL barrier records plus a durable
	// boundary-table update, ordered so that every crash point recovers to
	// exactly the pre- or post-move state (see the persist package). Called
	// by the rebalancer with both affected writers quiesced, before the
	// in-memory move is applied (write-ahead); an error is fatal to the
	// rebalance (it panics, like writer-side Append failures).
	Rebalanced(src, dst int, keys []uint64, gen uint64, bounds []uint64) error
	// Checkpoint writes a durable checkpoint for every shard and truncates
	// obsolete WAL prefixes.
	Checkpoint() error
	// Stats returns the journal's counters.
	Stats() PersistStats
	// Err returns the first hard I/O error the journal has hit (sticky),
	// including failures during Close.
	Err() error
	// Close flushes and closes the journal. Idempotent.
	Close() error
}

// PersistStats counts a durable set's journal and checkpoint work. The
// Appended/Fsync counters track the write-ahead log; the Checkpoint
// counters count full base slabs and the Delta counters the incremental
// delta checkpoints written against them (CheckpointBytes+DeltaBytes is
// the total checkpoint I/O, and its gap to Checkpoints+DeltaCheckpoints
// times the full slab size is the incremental-checkpoint win); the
// Recovered/Replayed/Torn counters describe the recovery the store
// performed when it was opened.
type PersistStats struct {
	AppendedBatches   uint64 // WAL records appended (one per applied batch)
	AppendedKeys      uint64 // keys across those records
	AppendedBytes     uint64 // encoded WAL bytes appended
	Fsyncs            uint64 // WAL fsyncs (group commits + barriers)
	Checkpoints       uint64 // full (base) slab checkpoints written
	CheckpointBytes   uint64 // encoded slab bytes across those bases
	DeltaCheckpoints  uint64 // delta checkpoints written
	DeltaBytes        uint64 // encoded bytes across those deltas
	TruncatedSegments uint64 // WAL segment files deleted behind checkpoints
	MoveRecords       uint64 // rebalance barrier records appended (two per move)
	MovedKeys         uint64 // keys carried by rebalance barrier records
	RecoveredKeys     uint64 // keys in the recovered shards at Open (checkpoint + replay)
	ReplayedBatches   uint64 // WAL records replayed at Open
	ReplayedKeys      uint64 // keys across replayed records
	TornBytes         uint64 // trailing WAL bytes discarded as torn at Open
	DroppedKeys       uint64 // out-of-span keys dropped by recovery (mid-rebalance crash repair)
}

// cell is one shard: a CPMA plus its mailbox, published handle, and ingest
// counters, padded so that neighboring shards' hot state does not share a
// cache line under write contention.
type cell struct {
	// set is the live CPMA. Only the shard's current sole mutator touches
	// it: the writer goroutine, the rebalancer while the writer is parked,
	// the constructor, or (on a replica) the replication applier. Readers
	// go through snap.
	set  *cpma.CPMA
	mbox chan shardOp

	enqBatches atomic.Uint64
	enqKeys    atomic.Uint64
	appBatches atomic.Uint64
	appKeys    atomic.Uint64

	// Publication state (snapshot.go): epoch counts this shard's
	// state-changing applies and snap is the last published frozen handle.
	// Both are written only by the sole mutator.
	epoch atomic.Uint64
	snap  atomic.Pointer[shardSnap]

	_ [64]byte
}

// Sharded is a concurrent set of nonzero uint64 keys built from P
// single-writer CPMA shards. The zero value is not usable; call New.
type Sharded struct {
	cells []cell
	opt   Options
	// rt is the current routing table. Each published *router is immutable;
	// a rebalance installs a replacement while holding life.Lock with the
	// pair's writers parked, so enqueues (which split and mail under
	// life.RLock) always route against one coherent table, and reads
	// validate their handles against the table they routed with.
	rt atomic.Pointer[router]

	// Lifecycle: enqueues hold life.RLock while sending; Close and the
	// rebalancer take life.Lock, so no send can race a mailbox close or a
	// router swap.
	life    sync.RWMutex
	closed  bool
	writers sync.WaitGroup

	// replica marks a read-only replication follower (replica.go): it has
	// no mailboxes or writers, client mutations panic, and state changes
	// only through the Replica* appliers.
	replica bool

	// Rebalancer state: rebalMu serializes moves (monitor vs manual
	// RebalanceOnce), rebalStop ends the monitor goroutine.
	rebalMu        sync.Mutex
	rebalStop      chan struct{}
	rebalWG        sync.WaitGroup
	rebalChecks    atomic.Uint64
	rebalMoves     atomic.Uint64
	rebalMovedKeys atomic.Uint64

	// Snapshot counters (SnapshotStats).
	snapCaptures   atomic.Uint64
	snapPublishes  atomic.Uint64
	snapCloneBytes atomic.Uint64
	snapFullBytes  atomic.Uint64

	// Pipeline observability (metrics.go): always-on aggregate stage
	// latency histograms and the per-shard lifecycle event trace.
	pm    pipeMetrics
	trace *obs.Trace
}

// New returns a Sharded set with the given number of shards (clamped to at
// least 1); opts may be nil for hash partitioning over default CPMAs. Close
// the set when done to stop its writer goroutines.
func New(shards int, opts *Options) *Sharded {
	return newSharded(shards, nil, opts, false)
}

// NewFrom returns a Sharded set seeded with the given per-shard CPMAs —
// one shard per entry, ownership transferring to the set (callers must not
// touch them afterwards). The persist layer uses it to restart a durable
// set from its recovered shards.
func NewFrom(sets []*cpma.CPMA, opts *Options) *Sharded {
	if len(sets) == 0 {
		panic("shard: NewFrom needs at least one shard")
	}
	return newSharded(len(sets), sets, opts, false)
}

// newSharded builds the set; a replica gets no mailboxes, writers, or
// rebalance monitor.
func newSharded(shards int, seed []*cpma.CPMA, opts *Options, replica bool) *Sharded {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Dir != "" && o.Journal == nil {
		panic("shard: Options.Dir set without a Journal; build durable sets with repro.OpenDurableShardedSet")
	}
	if shards < 1 {
		shards = 1
	}
	if o.KeyBits <= 0 || o.KeyBits > 64 {
		o.KeyBits = 64
	}
	if o.MailboxDepth <= 0 {
		o.MailboxDepth = DefaultMailboxDepth
	}
	if o.Rebalance && o.Partition != RangePartition {
		panic("shard: Options.Rebalance requires RangePartition")
	}
	if o.MaxSkew <= 0 {
		o.MaxSkew = DefaultMaxSkew
	} else if o.MaxSkew < 1.1 {
		o.MaxSkew = 1.1
	}
	if o.RebalanceEvery <= 0 {
		o.RebalanceEvery = DefaultRebalanceEvery
	}
	s := &Sharded{cells: make([]cell, shards), opt: o, replica: replica}
	s.trace = obs.NewTrace(shards, 0)
	bounds := o.Bounds
	if o.Partition != RangePartition {
		bounds = nil
	} else if bounds == nil {
		bounds = defaultBounds(o.KeyBits, shards)
	} else {
		if err := checkBounds(bounds, shards); err != nil {
			panic(err)
		}
		bounds = append([]uint64(nil), bounds...) // the router owns its table
	}
	s.rt.Store(&router{
		part:    o.Partition,
		shards:  shards,
		bounds:  bounds,
		gen:     o.BoundsGen,
		spanGen: make([]uint64, shards),
		replica: replica,
	})
	for i := range s.cells {
		if seed != nil {
			s.cells[i].set = seed[i]
		} else {
			s.cells[i].set = cpma.New(o.Set)
		}
		// Seed each shard's published handle through the regular publish
		// path, so reads before the first drain hold valid frozen sets
		// stamped with a real (epoch, gen).
		sn := s.publish(i, &s.cells[i])
		if o.Journal != nil {
			// The journal must learn the seed handle too: on a durable
			// reopen the seed Clone consumes the recovery replay's dirty
			// window, and skipping this handoff would lose that window for
			// the first delta checkpoint. No writers are running yet, so
			// the call is race-free.
			o.Journal.Published(i, sn.set)
		}
	}
	if replica {
		return s
	}
	for i := range s.cells {
		s.cells[i].mbox = make(chan shardOp, o.MailboxDepth)
	}
	s.writers.Add(shards)
	for i := range s.cells {
		go s.writer(i)
	}
	if o.Rebalance && shards > 1 {
		s.rebalStop = make(chan struct{})
		s.rebalWG.Add(1)
		go s.rebalanceMonitor()
	}
	return s
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.cells) }

// Partition returns the routing policy keys are partitioned by.
func (s *Sharded) Partition() Partition { return s.opt.Partition }

// KeyBits returns the configured key width (64 when unset).
func (s *Sharded) KeyBits() int { return s.opt.KeyBits }

// checkKey rejects the reserved key 0 at the API boundary, in the caller's
// goroutine — a panic inside a writer would be unrecoverable for the
// client that enqueued the bad key.
func checkKey(x uint64) {
	if x == 0 {
		panic("shard: key 0 is reserved")
	}
}

// distinctSorted returns a sorted, duplicate-free private copy of an
// unsorted batch. One pass drops repeats before the sort: each key probes
// a direct-mapped table of last-seen keys (slot = the top repeatBits bits
// of a Fibonacci hash) and only keys not found there are copied out. The
// table is a filter, not a set — a key evicted by a colliding one is
// copied again — so slices.Compact finishes the job after the sort; on a
// skewed stream the hot keys stay resident and almost all their
// occurrences are gone before the O(n log n) sort sees them. The pass is
// also the batch's reserved-key check, made before the probe: the zeroed
// table already "holds" key 0, so a check after it would drop the key
// silently instead of panicking.
func distinctSorted(keys []uint64) []uint64 {
	var seen [1 << repeatBits]uint64
	out := make([]uint64, len(keys))
	n := 0
	for _, k := range keys {
		checkKey(k)
		h := (k * fibMul) >> (64 - repeatBits)
		if seen[h] != k {
			seen[h] = k
			out[n] = k
			n++
		}
	}
	out = out[:n]
	parallel.Sort(out)
	return slices.Compact(out)
}

// Insert adds x, returning false if already present. It routes through the
// owning shard's mailbox (behind any batches already enqueued) and waits
// until the apply is published.
func (s *Sharded) Insert(x uint64) bool {
	s.checkNotReplica()
	checkKey(x)
	return s.enqueueOne(opInsert, x)
}

// Remove deletes x, returning false if absent; the same path as Insert.
func (s *Sharded) Remove(x uint64) bool {
	s.checkNotReplica()
	checkKey(x)
	return s.enqueueOne(opRemove, x)
}

// Has reports whether x is in the set, read off x's shard's published
// handle. It allocates nothing.
func (s *Sharded) Has(x uint64) bool {
	if x == 0 {
		return false
	}
	var buf [1]*shardSnap
	v := s.capture(func(rt *router) (int, int) {
		p := rt.shardOf(x)
		return p, p
	}, buf[:])
	return v.has(x)
}

// InsertBatch inserts a batch of keys, returning how many were new. The
// batch is scattered into per-shard sub-batches mailed with a completion
// ticket; the call returns once every shard has applied and published its
// part, so the count is exact and every later read observes the batch. If
// sorted is true the keys must be in ascending order; an unsorted batch may
// repeat keys freely (repeats are dropped before the enqueue).
func (s *Sharded) InsertBatch(keys []uint64, sorted bool) int {
	s.checkNotReplica()
	return s.enqueue(opInsert, keys, sorted, true)
}

// RemoveBatch removes a batch of keys, returning how many were present;
// the same contract as InsertBatch.
func (s *Sharded) RemoveBatch(keys []uint64, sorted bool) int {
	s.checkNotReplica()
	return s.enqueue(opRemove, keys, sorted, true)
}

// InsertBatchAsync enqueues a batch for insertion and returns without
// waiting for it to apply; Flush makes it visible to every read. A full
// shard mailbox blocks until its writer catches up (backpressure).
func (s *Sharded) InsertBatchAsync(keys []uint64, sorted bool) {
	s.checkNotReplica()
	s.enqueue(opInsert, keys, sorted, false)
}

// RemoveBatchAsync enqueues a batch for removal and returns without
// waiting; the same contract as InsertBatchAsync.
func (s *Sharded) RemoveBatchAsync(keys []uint64, sorted bool) {
	s.checkNotReplica()
	s.enqueue(opRemove, keys, sorted, false)
}

// enqueueOne mails a single-key ticketed op straight to its owning shard —
// the point-op path, skipping the scatter machinery entirely — and waits
// for the apply, reporting whether the key was fresh (insert) or present
// (remove). The fresh slice keeps the mailbox from aliasing caller memory.
// Routing happens under life.RLock so a concurrent rebalance (which holds
// life.Lock for the router swap) cannot strand the key in a shard that no
// longer owns it.
func (s *Sharded) enqueueOne(kind opKind, x uint64) bool {
	tk := newTicket(1)
	s.life.RLock()
	if s.closed {
		s.life.RUnlock()
		panic("shard: mutation on closed Sharded")
	}
	p, v := s.router().route(x)
	c := &s.cells[p]
	c.enqBatches.Add(1)
	c.enqKeys.Add(1)
	c.mbox <- shardOp{kind: kind, keys: []uint64{v}, tk: tk, enq: time.Now()}
	s.life.RUnlock()
	return tk.wait() == 1
}

// enqueue splits keys into sorted sub-batches and mails each to its shard.
// An unsorted batch first becomes a private sorted, distinct copy
// (distinctSorted, which also rejects key 0), outside the lock; a sorted
// one only needs its first key checked. The split and the sends run under
// life.RLock — the split must use the same boundary table the mailboxes
// are routed by, and a rebalance excludes itself via life.Lock. With wait
// set it attaches a completion ticket, blocks until every shard has
// applied and published its part, and returns the summed exact count;
// otherwise it returns 0 as soon as everything is enqueued (see asyncSplit
// for when sub-batches may alias the caller's slice).
func (s *Sharded) enqueue(kind opKind, keys []uint64, sorted bool, wait bool) int {
	private := wait
	if !sorted {
		keys, private = distinctSorted(keys), true
	} else if len(keys) > 0 {
		checkKey(keys[0])
	}
	s.life.RLock()
	if s.closed {
		s.life.RUnlock()
		panic("shard: mutation on closed Sharded")
	}
	subs := asyncSplit(s.router(), keys, private)
	parts := 0
	for _, sub := range subs {
		if len(sub) > 0 {
			parts++
		}
	}
	if parts == 0 {
		s.life.RUnlock()
		return 0
	}
	var tk *ticket
	if wait {
		tk = newTicket(parts)
	}
	// One clock read covers every sub-batch this call mails: residency is
	// measured per drained op, stamped per enqueue call, never per key.
	now := time.Now()
	for p, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		c := &s.cells[p]
		c.enqBatches.Add(1)
		c.enqKeys.Add(uint64(len(sub)))
		c.mbox <- shardOp{kind: kind, keys: sub, tk: tk, enq: now}
	}
	s.life.RUnlock()
	if wait {
		return tk.wait()
	}
	return 0
}

// Flush blocks until every operation enqueued before the call has been
// applied and published, establishing a read barrier across all shards —
// even when it races a concurrent Close, in which case it waits for
// Close's final drain. Mailbox FIFO order means everything enqueued
// earlier has applied by the time a shard's flush token completes. A
// no-op on a replica (its applier publishes as it goes).
func (s *Sharded) Flush() {
	if s.replica {
		return
	}
	s.life.RLock()
	if s.closed {
		s.life.RUnlock()
		// Close is (or was) draining; a barrier must still not return
		// until everything previously enqueued has been applied.
		s.writers.Wait()
		return
	}
	tk := newTicket(len(s.cells))
	for p := range s.cells {
		s.cells[p].mbox <- shardOp{kind: opFlush, tk: tk}
	}
	s.life.RUnlock()
	tk.wait()
}

// Close drains all mailboxes, stops the writer goroutines, and marks the
// set closed: further mutations panic, Flush becomes a no-op, and reads
// keep working against the final state. Idempotent; safe against
// concurrent Flush and reads, but must not race in-flight mutations. On a
// durable set the Close that wins the race additionally closes the journal
// after the drain, fsyncing every shard's log (the final durability
// barrier); journal close errors are sticky — check PersistErr after
// Close. A no-op on a replica.
func (s *Sharded) Close() {
	if s.replica {
		return
	}
	s.life.Lock()
	if s.closed {
		s.life.Unlock()
		// Another Close won the race to set the flag; still wait for the
		// drain so every caller of Close observes the fully applied state.
		s.writers.Wait()
		return
	}
	s.closed = true
	s.life.Unlock()
	// Stop the rebalance monitor first: a move that raced the flag is
	// already excluded (moves run under life.Lock and abort on closed), so
	// this only ends the sampling loop.
	if s.rebalStop != nil {
		close(s.rebalStop)
		s.rebalWG.Wait()
	}
	// No sender can be in-flight past this point: enqueues take life.RLock
	// and observe closed. Closing the mailboxes is the writers' drain-and-
	// exit signal, so Close doubles as a final Flush.
	for p := range s.cells {
		close(s.cells[p].mbox)
	}
	s.writers.Wait()
	if j := s.opt.Journal; j != nil {
		j.Close()
	}
}

// Durable reports whether this set runs a persistence journal.
func (s *Sharded) Durable() bool { return s.opt.Journal != nil }

// Checkpoint is the durability barrier: it flushes the pipeline (every
// previously enqueued operation applied and logged), then writes a slab
// checkpoint of every shard's published state and truncates the obsolete
// WAL prefix. After Checkpoint returns, recovery replays at most the
// operations enqueued after the call. On a non-durable set it degrades to
// a plain Flush and returns nil.
func (s *Sharded) Checkpoint() error {
	t0 := time.Now()
	s.Flush()
	if s.opt.Journal == nil {
		return nil
	}
	err := s.opt.Journal.Checkpoint()
	if err == nil {
		d := time.Since(t0)
		s.pm.checkpoint.Observe(d)
		s.trace.Record(-1, obs.EvCheckpoint, 0, s.router().gen, uint64(d), 0)
	}
	return err
}

// PersistStats returns the durability counters (zero on a non-durable
// set). Counters are monotone; RegisterMetrics exports each field under
// {prefix}_persist_*.
func (s *Sharded) PersistStats() PersistStats {
	if s.opt.Journal == nil {
		return PersistStats{}
	}
	return s.opt.Journal.Stats()
}

// PersistErr returns the first hard I/O error the durability journal has
// hit, nil on a healthy or non-durable set. It is the post-Close health
// check: Close cannot return an error, so a failed final fsync (real
// durability loss) surfaces here — check it after Close before trusting
// the unsynced tail to have landed.
func (s *Sharded) PersistErr() error {
	if s.opt.Journal == nil {
		return nil
	}
	return s.opt.Journal.Err()
}

// spanOf is the capture span of a read over [start, end).
func spanOf(start, end uint64) func(rt *router) (int, int) {
	return func(rt *router) (int, int) { return rt.shardSpan(start, end) }
}

// Len returns the number of keys stored.
func (s *Sharded) Len() int { return s.capture(fullSpan, nil).length() }

// SizeBytes returns the summed memory footprint of the shards.
func (s *Sharded) SizeBytes() uint64 { return s.capture(fullSpan, nil).sizeBytes() }

// Sum returns the sum (mod 2^64) of all keys, shards processed in
// parallel.
func (s *Sharded) Sum() uint64 { return s.capture(fullSpan, nil).sum() }

// RangeSum sums keys in [start, end). Under RangePartition only the span's
// shards are read; under HashPartition every shard is, in parallel.
// Degenerate ranges (end <= start) are empty.
func (s *Sharded) RangeSum(start, end uint64) (sum uint64, count int) {
	return s.capture(spanOf(start, end), nil).rangeSum(start, end)
}

// Next returns the smallest key >= x across all shards.
func (s *Sharded) Next(x uint64) (uint64, bool) {
	return s.capture(func(rt *router) (int, int) {
		if rt.part == RangePartition {
			return rt.shardOf(x), rt.shards - 1
		}
		return 0, rt.shards - 1
	}, nil).next(x)
}

// Min returns the smallest key in the set.
func (s *Sharded) Min() (uint64, bool) {
	return s.Next(1)
}

// Max returns the largest key in the set.
func (s *Sharded) Max() (uint64, bool) { return s.capture(fullSpan, nil).max() }

// MapRange applies f to keys in [start, end) in ascending order, stopping
// early when f returns false; reports whether the scan completed.
// Degenerate ranges (end <= start) complete immediately. Under
// RangePartition the span's shards stream in key order; under
// HashPartition the whole range is gathered from every shard in parallel
// and merged first (so early exits still pay the full gather). f runs on
// frozen handles and may call back into the set.
func (s *Sharded) MapRange(start, end uint64, f func(uint64) bool) bool {
	if start >= end {
		return true
	}
	return s.capture(spanOf(start, end), nil).mapRange(start, end, f)
}

// Map applies f to every key in ascending order, stopping early when f
// returns false; reports whether the scan completed. The same contract as
// MapRange.
func (s *Sharded) Map(f func(uint64) bool) bool {
	return s.capture(fullSpan, nil).mapAll(f)
}

// Keys returns all keys in ascending order; primarily for tests.
func (s *Sharded) Keys() []uint64 {
	var out []uint64
	s.Map(func(v uint64) bool {
		out = append(out, v)
		return true
	})
	return out
}

// mergeLists merges disjoint sorted runs pairwise (log P rounds of the
// load-balanced parallel merge).
func mergeLists(lists [][]uint64) []uint64 {
	for len(lists) > 1 {
		next := make([][]uint64, 0, (len(lists)+1)/2)
		for i := 0; i+1 < len(lists); i += 2 {
			a, b := lists[i], lists[i+1]
			switch {
			case len(a) == 0:
				next = append(next, b)
			case len(b) == 0:
				next = append(next, a)
			default:
				out := make([]uint64, len(a)+len(b))
				parallel.Merge(a, b, out)
				next = append(next, out)
			}
		}
		if len(lists)%2 == 1 {
			next = append(next, lists[len(lists)-1])
		}
		lists = next
	}
	if len(lists) == 0 {
		return nil
	}
	return lists[0]
}

// Validate flushes, then checks every shard's published CPMA invariants
// and audits its routing: every stored value must be one the router sends
// to that shard (a test helper); callers must still quiesce their own
// writers.
func (s *Sharded) Validate() error {
	s.Flush()
	return s.capture(fullSpan, nil).validate()
}
