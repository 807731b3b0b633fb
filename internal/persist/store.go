package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cpma"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/shard"
)

// Store is the durability engine behind a sharded set: one WAL appender
// per shard plus a background checkpointer. It implements shard.Journal;
// the per-shard methods (Append, Published, Synced) are called by the
// shard's writer goroutine, everything else may be called from anywhere.
type Store struct {
	dir    string
	opt    Options
	shards []*storeShard

	// ckptMu serializes checkpoint passes (manual Checkpoint calls versus
	// the background checkpointer) — checkpoints are rare, coarse locking
	// keeps the invariants simple.
	ckptMu  sync.Mutex
	ckptReq chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	closeOnce sync.Once
	closedErr error
	closed    atomic.Bool

	errMu    sync.Mutex
	firstErr error

	// lockFile holds the exclusive flock on the store directory for the
	// Store's lifetime; released by Close (or by the OS if the process
	// dies, which is what makes flock safe across crashes).
	lockFile *os.File

	appBatches atomic.Uint64
	appKeys    atomic.Uint64
	appBytes   atomic.Uint64
	fsyncs     atomic.Uint64
	ckpts      atomic.Uint64
	ckptBytes  atomic.Uint64
	deltaCkpts atomic.Uint64
	deltaBytes atomic.Uint64
	truncSegs  atomic.Uint64
	moveRecs   atomic.Uint64
	movedKeys  atomic.Uint64

	// Latency histograms, aggregated across shards. walAppend times the
	// whole append call — lock wait included, so it reads as the stall a
	// shard writer sees, not just the file write. walFsync times seg.sync
	// alone; ckptDur one shard's checkpoint pass when it wrote something.
	walAppend obs.Histogram
	walFsync  obs.Histogram
	ckptDur   obs.Histogram

	// The recovered boundary table (nil = default equal-width spans) and
	// its router generation. Written once by Open; Rebalanced advances the
	// on-disk table but callers read these only at open time (Bounds).
	bounds    []uint64
	boundsGen uint64

	// Recovery counters, written once by Open before any concurrency.
	recoveredKeys   uint64
	replayedBatches uint64
	replayedKeys    uint64
	tornBytes       uint64
	droppedKeys     uint64
}

// storeShard is one shard's persistence state.
type storeShard struct {
	id  int
	dir string

	// mu guards the appender: the active segment, sequence numbers, and
	// the group-commit accounting. The shard writer holds it for appends;
	// the checkpointer takes it briefly to rotate segments.
	mu           sync.Mutex
	seg          *segment
	seq          atomic.Uint64 // last appended record sequence
	syncedSeq    uint64        // last record covered by an fsync — the shippable seal (mu)
	pendingRecs  int           // records since last fsync
	pendingBytes int
	encBuf       []byte

	// pub is the latest published frozen handle and the sequence it
	// covers; the shard writer stores it, the checkpointer loads it.
	// pendingAll/pendingDirty accumulate the dirty-leaf windows of every
	// handle published since the checkpointer's last capture: each handle
	// carries the leaves mutated since the previous publish
	// (cpma.DirtySince), and their union is exactly the leaf set the next
	// delta checkpoint must include. pendingAll means the window is
	// unknown or spans a rebuild — the next checkpoint must be a full
	// base slab.
	pubMu        sync.Mutex
	pubSet       *cpma.CPMA
	pubSeq       uint64
	pendingAll   bool
	pendingDirty *parallel.Bitset

	// ckptSeq is the sequence covered by the newest durable checkpoint —
	// base or delta, the tip of the chain (Append's trigger reads it).
	// The rest is the checkpointer's chain state, touched only under
	// ckptMu: baseSeq is the full slab the live delta chain patches (0 =
	// none yet), prevBaseSeq the previous chain's base — the file/WAL
	// deletion floor, see the retention note in the package doc — and
	// deltasSinceBase the chain length, bounded by CompactEveryDeltas.
	ckptSeq         atomic.Uint64
	baseSeq         uint64
	prevBaseSeq     uint64
	deltasSinceBase int
}

func shardDirName(p int) string { return fmt.Sprintf("shard-%04d", p) }

// Open opens (creating as needed) the store rooted at opts.Dir and
// recovers every shard: newest valid checkpoint plus WAL tail replay. It
// returns the recovered per-shard CPMAs, ready to seed shard.NewFrom; the
// caller owns wiring the Store into the set as its Journal (or use
// OpenSharded, which does both).
func Open(opts Options) (*Store, []*cpma.CPMA, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	st := &Store{
		dir:     o.Dir,
		opt:     o,
		shards:  make([]*storeShard, o.Shards),
		ckptReq: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	// Exclusive directory lock: two stores appending to the same WAL
	// files would interleave frames and destroy both logs. flock is
	// released automatically if the process dies, so a crash never
	// strands the store locked.
	if err := st.acquireLock(); err != nil {
		return nil, nil, err
	}
	opened := false
	defer func() {
		if !opened {
			// Close every segment a successfully recovered shard left open:
			// a later shard failing validation must not leak the earlier
			// shards' WAL file handles (callers commonly retry Open after
			// fixing the directory, and leaked fds accumulate per attempt).
			for _, sh := range st.shards {
				if sh != nil && sh.seg != nil {
					sh.seg.close()
				}
			}
			st.releaseLock()
		}
	}()
	if err := ensureManifest(o); err != nil {
		return nil, nil, err
	}
	if err := st.recoverBounds(o); err != nil {
		return nil, nil, err
	}
	sets := make([]*cpma.CPMA, o.Shards)
	for p := range st.shards {
		sh := &storeShard{id: p, dir: filepath.Join(o.Dir, shardDirName(p))}
		if err := os.MkdirAll(sh.dir, 0o755); err != nil {
			return nil, nil, err
		}
		set, err := st.recoverShard(sh)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: shard %d: %w", p, err)
		}
		st.shards[p] = sh
		sets[p] = set
	}
	// Span enforcement: a crash inside a rebalance barrier can leave the
	// moved keys present in both shards of the pair (the protocol orders
	// its three durable steps so keys are never lost, only briefly owned
	// twice). The authoritative boundary table decides ownership — drop
	// every key from shards that no longer own it, restoring exactly the
	// pre- or post-move state.
	if o.Partition == shard.RangePartition && o.Shards > 1 {
		bounds := st.bounds
		if bounds == nil {
			bounds = shard.DefaultBounds(o.KeyBits, o.Shards)
		}
		for p, set := range sets {
			stale := dropOutOfSpan(set, p, o.Shards, bounds)
			if len(stale) == 0 {
				continue
			}
			st.droppedKeys += uint64(len(stale))
			// Journal the drop as an ordinary remove record, fsynced before
			// the store is handed out: without it the on-disk history
			// (chain + WAL) would disagree with the in-memory state by
			// exactly these keys, and a follower bootstrapping from the
			// chain would resurrect them with no later record to remove
			// them. With it, chain ⊕ WAL is always the acknowledged state.
			if _, err := st.appendKind(p, recRemove, 0, stale); err != nil {
				return nil, nil, err
			}
			if err := st.Synced(p); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, set := range sets {
		st.recoveredKeys += uint64(set.Len()) // replay included; see recoverShard
	}
	st.wg.Add(1)
	go st.runCheckpointer()
	opened = true
	return st, sets, nil
}

// recoverBounds loads the durable boundary table (if any) and reconciles
// it with the caller-supplied seed: the stored table always wins — it is
// what the journaled history was routed against — and an explicit seed
// that contradicts it is a geometry error, like a manifest mismatch. A
// fresh store with an explicit seed persists it immediately, so a crash
// before the first rebalance still recovers against the right spans.
func (st *Store) recoverBounds(o Options) error {
	stored, gen, ok, err := loadBounds(o.Dir, o.Shards)
	if err != nil {
		return err
	}
	if ok {
		if o.Bounds != nil && !slices.Equal(o.Bounds, stored) {
			return fmt.Errorf("persist: store at %s has a journaled boundary table (gen %d) that differs from Options.Bounds", o.Dir, gen)
		}
		st.bounds, st.boundsGen = stored, gen
		return nil
	}
	if o.Bounds != nil && o.Partition == shard.RangePartition {
		if err := writeBounds(o.Dir, o.BoundsGen, o.Bounds); err != nil {
			return err
		}
		st.bounds, st.boundsGen = o.Bounds, o.BoundsGen
	}
	return nil
}

// Bounds returns the recovered boundary table and its router generation;
// a nil table means the default equal-width spans. Valid after Open.
func (st *Store) Bounds() ([]uint64, uint64) { return st.bounds, st.boundsGen }

// acquireLock takes a non-blocking exclusive flock on dir/LOCK.
func (st *Store) acquireLock() error {
	f, err := os.OpenFile(filepath.Join(st.dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return fmt.Errorf("persist: store at %s is locked by another process: %w", st.dir, err)
	}
	st.lockFile = f
	return nil
}

func (st *Store) releaseLock() {
	if st.lockFile != nil {
		syscall.Flock(int(st.lockFile.Fd()), syscall.LOCK_UN)
		st.lockFile.Close()
		st.lockFile = nil
	}
}

// OpenSharded opens (or creates) the durable store described by opts.Dir
// and returns a running Sharded set recovered from it, wired to the store
// as its journal (durability rides the mailbox writer goroutines). Closing
// the set closes the store.
func OpenSharded(shards int, sopts *shard.Options) (*shard.Sharded, *Store, error) {
	var so shard.Options
	if sopts != nil {
		so = *sopts
	}
	if shards < 1 {
		shards = 1
	}
	st, sets, err := Open(Options{
		Dir:                    so.Dir,
		Shards:                 shards,
		SyncEvery:              so.SyncEvery,
		SyncBytes:              so.SyncBytes,
		CheckpointEveryBatches: so.CheckpointEveryBatches,
		CompactEveryDeltas:     so.CompactEveryDeltas,
		Set:                    so.Set,
		Partition:              so.Partition,
		KeyBits:                so.KeyBits,
		Bounds:                 so.Bounds,
		BoundsGen:              so.BoundsGen,
	})
	if err != nil {
		return nil, nil, err
	}
	so.Journal = st
	// The restarted router must route against the spans recovery replayed
	// (and span-enforced) the shards with, and new rebalances must extend
	// the journaled generation sequence.
	so.Bounds, so.BoundsGen = st.Bounds()
	return shard.NewFrom(sets, &so), st, nil
}

// fail records the first hard error the store hits and returns err.
func (st *Store) fail(err error) error {
	st.errMu.Lock()
	if st.firstErr == nil {
		st.firstErr = err
	}
	st.errMu.Unlock()
	return err
}

// Err returns the first hard I/O error the store has hit, if any.
func (st *Store) Err() error {
	st.errMu.Lock()
	defer st.errMu.Unlock()
	return st.firstErr
}

// appendKind frames and appends one record of the given kind to shard p's
// log, honoring the group-commit knobs. Returns the record's sequence
// number.
func (st *Store) appendKind(p int, kind byte, gen uint64, keys []uint64) (uint64, error) {
	if st.closed.Load() {
		return 0, st.fail(fmt.Errorf("persist: append on closed store"))
	}
	t0 := time.Now()
	sh := st.shards[p]
	sh.mu.Lock()
	seq := sh.seq.Load() + 1
	sh.encBuf = appendRecord(sh.encBuf[:0], seq, kind, gen, keys)
	frameLen := len(sh.encBuf)
	if err := sh.seg.append(sh.encBuf); err != nil {
		sh.mu.Unlock()
		return 0, st.fail(err)
	}
	sh.seq.Store(seq)
	sh.pendingRecs++
	sh.pendingBytes += frameLen
	if (st.opt.SyncEvery > 0 && sh.pendingRecs >= st.opt.SyncEvery) ||
		(st.opt.SyncBytes > 0 && sh.pendingBytes >= st.opt.SyncBytes) {
		if err := st.syncLocked(sh); err != nil {
			sh.mu.Unlock()
			return 0, st.fail(err)
		}
	}
	sh.mu.Unlock()
	st.walAppend.Since(t0)
	st.appBytes.Add(uint64(frameLen))
	return seq, nil
}

// Append logs one sorted batch for shard p ahead of its apply
// (shard.Journal). Group commit: the record lands in the segment's buffer
// immediately and the file is fsynced once SyncEvery records or SyncBytes
// bytes accumulate.
func (st *Store) Append(p int, remove bool, keys []uint64) error {
	kind := byte(recInsert)
	if remove {
		kind = recRemove
	}
	seq, err := st.appendKind(p, kind, 0, keys)
	if err != nil {
		return err
	}
	st.appBatches.Add(1)
	st.appKeys.Add(uint64(len(keys)))
	if st.opt.CheckpointEveryBatches > 0 &&
		seq-st.shards[p].ckptSeq.Load() >= uint64(st.opt.CheckpointEveryBatches) {
		select {
		case st.ckptReq <- struct{}{}:
		default:
		}
	}
	return nil
}

// Rebalanced journals one boundary move (shard.Journal): keys moved from
// shard src to shard dst under the new boundary table at router
// generation gen. Three durable steps, strictly ordered:
//
//  1. A recMoveIn barrier (the keys, as an insert) in dst's log, fsynced.
//  2. The new boundary table in the BOUNDS sidecar, atomically replaced.
//  3. A recMoveOut barrier (the keys, as a removal) in src's log, fsynced.
//
// Every crash point recovers exactly: before 2 the old table routes the
// keys to src (which never logged their removal), so recovery drops the
// dst copy if step 1's record landed; after 2 the new table routes them
// to dst (whose record is durable — step 1 completed), so recovery drops
// the src copy until step 3's removal is on disk. Either way the key set
// is intact and span-consistent — recovery's out-of-span enforcement is
// what collapses the transient double ownership.
//
// Called by the rebalancer with both shards' writers quiesced, so the
// appends cannot interleave with writer-side Appends on these logs.
func (st *Store) Rebalanced(src, dst int, keys []uint64, gen uint64, bounds []uint64) error {
	if _, err := st.appendKind(dst, recMoveIn, gen, keys); err != nil {
		return err
	}
	if err := st.Synced(dst); err != nil {
		return err
	}
	if err := writeBounds(st.dir, gen, bounds); err != nil {
		return st.fail(err)
	}
	if _, err := st.appendKind(src, recMoveOut, gen, keys); err != nil {
		return err
	}
	if err := st.Synced(src); err != nil {
		return err
	}
	st.moveRecs.Add(2)
	st.movedKeys.Add(uint64(len(keys)))
	return nil
}

func (st *Store) syncLocked(sh *storeShard) error {
	if sh.pendingRecs == 0 && sh.pendingBytes == 0 {
		return nil
	}
	t0 := time.Now()
	if err := sh.seg.sync(); err != nil {
		return err
	}
	st.walFsync.Since(t0)
	sh.pendingRecs = 0
	sh.pendingBytes = 0
	sh.syncedSeq = sh.seq.Load()
	st.fsyncs.Add(1)
	return nil
}

// Synced forces shard p's WAL to stable storage (shard.Journal; the
// durability barrier behind Flush).
func (st *Store) Synced(p int) error {
	sh := st.shards[p]
	sh.mu.Lock()
	err := st.syncLocked(sh)
	sh.mu.Unlock()
	if err != nil {
		return st.fail(err)
	}
	return nil
}

// Published records shard p's latest frozen handle (shard.Journal). The
// caller is the shard's writer goroutine, so every record it appended is
// covered by this handle and sh.seq is stable for the read. A handle not
// seen before carries a dirty window — the leaves mutated since the
// previous clone — which is folded into the shard's pending accumulator
// for the next delta checkpoint. Re-reports of the same handle (flush
// tokens on an idle shard re-publish without new mutations) carry no new
// dirt and are deduplicated by pointer.
func (st *Store) Published(p int, set *cpma.CPMA) {
	sh := st.shards[p]
	seq := sh.seq.Load()
	sh.pubMu.Lock()
	if set != sh.pubSet {
		all, bits := set.DirtySince()
		sh.noteDirtyLocked(all, bits)
		sh.pubSet = set
	}
	sh.pubSeq = seq
	sh.pubMu.Unlock()
}

// noteDirtyLocked folds one published dirty window into the pending
// accumulator. Caller holds pubMu. A nil bitset or an explicit all means
// the window is unknown (a handle that never went through Clone) or
// spans a geometry rebuild; either way every leaf is suspect and the
// next checkpoint must be a full base.
func (sh *storeShard) noteDirtyLocked(all bool, bits *parallel.Bitset) {
	if sh.pendingAll {
		return
	}
	if all || bits == nil {
		sh.pendingAll = true
		sh.pendingDirty = nil
		return
	}
	if sh.pendingDirty == nil {
		// The handle's bitset is frozen at Clone and may still be read by
		// others; the accumulator mutates, so it takes its own copy.
		sh.pendingDirty = bits.Clone()
		return
	}
	if !sh.pendingDirty.Or(bits) {
		// Length mismatch: a rebuild changed the leaf count between
		// windows without reporting all (defensive — it should have).
		sh.pendingAll = true
		sh.pendingDirty = nil
	}
}

// Stats returns the store's counters (shard.Journal).
func (st *Store) Stats() shard.PersistStats {
	return shard.PersistStats{
		AppendedBatches:   st.appBatches.Load(),
		AppendedKeys:      st.appKeys.Load(),
		AppendedBytes:     st.appBytes.Load(),
		Fsyncs:            st.fsyncs.Load(),
		Checkpoints:       st.ckpts.Load(),
		CheckpointBytes:   st.ckptBytes.Load(),
		DeltaCheckpoints:  st.deltaCkpts.Load(),
		DeltaBytes:        st.deltaBytes.Load(),
		TruncatedSegments: st.truncSegs.Load(),
		MoveRecords:       st.moveRecs.Load(),
		MovedKeys:         st.movedKeys.Load(),
		RecoveredKeys:     st.recoveredKeys,
		ReplayedBatches:   st.replayedBatches,
		ReplayedKeys:      st.replayedKeys,
		TornBytes:         st.tornBytes,
		DroppedKeys:       st.droppedKeys,
	}
}

// StoreLatencies is a snapshot of the store's latency histograms, all in
// nanoseconds.
type StoreLatencies struct {
	Append     obs.HistSnap // whole Append call, lock wait included
	Fsync      obs.HistSnap // seg.sync alone (group-commit and barrier syncs)
	Checkpoint obs.HistSnap // per-shard checkpoint passes that wrote a file
}

// Latencies snapshots the store's latency histograms.
func (st *Store) Latencies() StoreLatencies {
	return StoreLatencies{
		Append:     st.walAppend.Snapshot(),
		Fsync:      st.walFsync.Snapshot(),
		Checkpoint: st.ckptDur.Snapshot(),
	}
}

// Sub returns the latencies accumulated since prev.
func (l StoreLatencies) Sub(prev StoreLatencies) StoreLatencies {
	return StoreLatencies{
		Append:     l.Append.Sub(prev.Append),
		Fsync:      l.Fsync.Sub(prev.Fsync),
		Checkpoint: l.Checkpoint.Sub(prev.Checkpoint),
	}
}

// RegisterMetrics registers the store's latency histograms with r under
// prefix (e.g. "cpma_wal"). Sharded.RegisterMetrics calls this through an
// optional interface when the set's Journal is a *Store, so the WAL's
// stall profile lands in the same registry as the pipeline's.
func (st *Store) RegisterMetrics(r *obs.Registry, prefix string) {
	if prefix == "" {
		prefix = "wal"
	}
	r.RegisterHistogram(prefix+"_append_ns", "ns", "WAL append call latency (lock wait + buffered write + group-commit fsync when triggered)", &st.walAppend)
	r.RegisterHistogram(prefix+"_fsync_ns", "ns", "WAL fsync latency", &st.walFsync)
	r.RegisterHistogram(prefix+"_checkpoint_ns", "ns", "per-shard checkpoint pass duration (passes that wrote a base or delta)", &st.ckptDur)
}

// Checkpoint writes a slab checkpoint for every shard whose published
// state has advanced past its last checkpoint, then truncates obsolete
// WAL segments (shard.Journal). Callers wanting "everything enqueued so
// far is checkpointed" should flush the set first — Sharded.Checkpoint
// does.
func (st *Store) Checkpoint() error {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	// Checked under ckptMu: Close tears the segments down while holding
	// it, so a Checkpoint that loses the race observes closed here rather
	// than rotating onto a closed file (which would poison the sticky
	// error on a perfectly clean shutdown).
	if st.closed.Load() {
		return st.Err()
	}
	var firstErr error
	for _, sh := range st.shards {
		if err := st.checkpointShard(sh, 1); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return st.fail(firstErr)
	}
	return st.Err()
}

// checkpointShard checkpoints one shard if its published state covers at
// least minAdvance records past the last checkpoint. Caller holds ckptMu.
//
// The checkpoint is a delta against the current base when the pending
// dirty window is known and the chain is shorter than the compaction
// cadence, otherwise a fresh full base slab. Only a base moves the
// retention floor: the delta path deletes nothing, so any single
// corrupt file in the live chain still leaves the previous base — and
// the WAL tail above it — available for fallback.
func (st *Store) checkpointShard(sh *storeShard, minAdvance uint64) error {
	// Time the pass, but only record it when a checkpoint file was
	// actually written — skipped passes (nothing published, no advance)
	// would otherwise flood the histogram with near-zero samples.
	t0 := time.Now()
	wrote0 := st.ckpts.Load() + st.deltaCkpts.Load()
	defer func() {
		if st.ckpts.Load()+st.deltaCkpts.Load() != wrote0 {
			st.ckptDur.Since(t0)
		}
	}()
	// Capture-and-swap the published handle and its accumulated dirty
	// window under one lock acquisition: dirt reported after this point
	// belongs to the next checkpoint, dirt captured here is consumed by
	// this one (or re-merged by restore if it skips or fails).
	sh.pubMu.Lock()
	set, seq := sh.pubSet, sh.pubSeq
	all, dirtyBits := sh.pendingAll, sh.pendingDirty
	sh.pendingAll, sh.pendingDirty = false, nil
	sh.pubMu.Unlock()
	restore := func() {
		sh.pubMu.Lock()
		sh.noteDirtyLocked(all, dirtyBits)
		sh.pubMu.Unlock()
	}
	cur := sh.ckptSeq.Load()
	if set == nil || seq < cur+minAdvance {
		restore()
		return nil
	}

	writeDelta := sh.baseSeq != 0 && !all && dirtyBits != nil &&
		st.opt.CompactEveryDeltas > 0 && sh.deltasSinceBase < st.opt.CompactEveryDeltas
	if writeDelta && dirtyBits.Len() != set.Leaves() {
		// The window's geometry does not match the handle (a rebuild
		// should have reported all; defensive): write a base.
		writeDelta = false
	}

	if writeDelta {
		payloadBytes, err := writeDeltaCheckpoint(sh.dir, sh.id, seq, cur, sh.baseSeq, set, dirtyBits.Indices())
		if err != nil {
			restore()
			return err
		}
		st.deltaCkpts.Add(1)
		st.deltaBytes.Add(payloadBytes)
		sh.deltasSinceBase++
		sh.ckptSeq.Store(seq)
		// Rotate so the covered prefix lives in closed segments, but
		// delete nothing: deltas never advance the retention floor.
		return st.rotateSegment(sh)
	}

	payloadBytes, err := writeCheckpoint(sh.dir, sh.id, seq, set)
	if err != nil {
		restore()
		return err
	}
	st.ckpts.Add(1)
	st.ckptBytes.Add(payloadBytes)
	floor := sh.baseSeq // the now-previous base: the WAL deletion floor
	sh.prevBaseSeq = sh.baseSeq
	sh.baseSeq = seq
	sh.deltasSinceBase = 0
	sh.ckptSeq.Store(seq)
	if err := st.rotateSegment(sh); err != nil {
		return err
	}

	// Drop checkpoint files — bases and deltas — from chains older than
	// the retained previous base, then every closed segment whose records
	// are all covered by the deletion floor (a segment's records end one
	// before the next segment's first seq).
	ckptSeqs, err := listSeqFiles(sh.dir, "ckpt-", ".ckpt")
	if err != nil {
		return err
	}
	for _, s := range ckptSeqs {
		if s < sh.prevBaseSeq {
			if err := os.Remove(filepath.Join(sh.dir, checkpointName(s))); err != nil {
				return err
			}
		}
	}
	deltaSeqs, err := listSeqFiles(sh.dir, "delta-", ".dckpt")
	if err != nil {
		return err
	}
	for _, s := range deltaSeqs {
		if s < sh.prevBaseSeq {
			if err := os.Remove(filepath.Join(sh.dir, deltaName(s))); err != nil {
				return err
			}
		}
	}
	segSeqs, err := listSeqFiles(sh.dir, "wal-", ".log")
	if err != nil {
		return err
	}
	removed := false
	for i := 0; i+1 < len(segSeqs); i++ {
		if segSeqs[i+1]-1 > floor {
			break
		}
		if err := os.Remove(filepath.Join(sh.dir, segmentName(segSeqs[i]))); err != nil {
			return err
		}
		st.truncSegs.Add(1)
		removed = true
	}
	if removed {
		if err := syncDir(sh.dir); err != nil {
			return err
		}
	}
	return nil
}

// rotateSegment closes the active WAL segment (if it holds any records)
// and opens a fresh one, so the prefix a checkpoint just covered lives
// in closed segments that a future base checkpoint can delete whole.
func (st *Store) rotateSegment(sh *storeShard) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.seg.records == 0 {
		return nil
	}
	if err := st.syncLocked(sh); err != nil {
		return err
	}
	if err := sh.seg.close(); err != nil {
		return err
	}
	nsg, err := createSegment(filepath.Join(sh.dir, segmentName(sh.seq.Load()+1)), sh.id)
	if err != nil {
		return err
	}
	sh.seg = nsg
	return nil
}

// runCheckpointer is the background checkpoint loop: woken by Append when
// a shard crosses CheckpointEveryBatches, it checkpoints every shard that
// is over the threshold. Errors are sticky (Err) — durability of the WAL
// is unaffected by a failed checkpoint, so the pipeline keeps running.
func (st *Store) runCheckpointer() {
	defer st.wg.Done()
	for {
		select {
		case <-st.done:
			return
		case <-st.ckptReq:
			st.ckptMu.Lock()
			for _, sh := range st.shards {
				if err := st.checkpointShard(sh, uint64(st.opt.CheckpointEveryBatches)); err != nil {
					st.fail(err)
				}
			}
			st.ckptMu.Unlock()
		}
	}
}

// Close stops the checkpointer, fsyncs and closes every shard's WAL, and
// returns the store's first hard error (shard.Journal). Idempotent. The
// caller must have stopped the shard writers first — Sharded.Close does,
// closing the journal only after the final drain.
func (st *Store) Close() error {
	st.closeOnce.Do(func() {
		st.closed.Store(true)
		close(st.done)
		st.wg.Wait()
		// ckptMu excludes in-flight Checkpoint passes: they either finish
		// before the teardown (their rotations land on live segments) or
		// observe closed after acquiring the lock and do nothing.
		st.ckptMu.Lock()
		for _, sh := range st.shards {
			sh.mu.Lock()
			if err := st.syncLocked(sh); err == nil {
				if err := sh.seg.close(); err != nil {
					st.fail(err)
				}
			} else {
				st.fail(err)
				sh.seg.close()
			}
			sh.mu.Unlock()
		}
		st.ckptMu.Unlock()
		st.releaseLock()
		st.closedErr = st.Err()
	})
	return st.closedErr
}
