package persist

// Crash recovery. Each shard recovers independently: load the newest
// base checkpoint that verifies end to end (CRC + cpma.Validate), fall
// back to the retained previous one if it does not, walk the base's
// delta chain as far as it verifies and links, then replay the WAL tail
// in sequence order on top. The first delta that fails — bad CRC, broken
// chain linkage, structural or semantic rejection — simply ends the
// chain: the state at the previous link is a valid recovery point, and
// the WAL retention floor (which only base checkpoints advance) still
// holds every record above the base, so nothing acknowledged is lost.
// The first WAL record that fails — torn frame, CRC mismatch, sequence
// gap — ends the log: the segment is truncated at that boundary and any
// later segments (unreachable past the gap) are deleted, so the log on
// disk again equals exactly the state that was recovered. The tail
// replays through Replay, shared with followers: each run of adjacent
// same-kind records applies as one merged batch (the paper's Fig. 1
// amortization). Replay stays idempotent: InsertBatch/RemoveBatch are
// set-semantic, a run's records all move keys one way, and runs keep every
// insert ordered against every removal. So the checkpoint chain only needs
// to cover a *prefix* of the log: re-applying covered records converges.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cpma"
	"repro/internal/parallel"
	"repro/internal/shard"
)

// recoverShard rebuilds one shard's CPMA from its directory, repairs the
// log (torn-tail truncation, orphan deletion), and leaves sh ready for
// appending: sh.seq is the last valid record, sh.ckptSeq the recovered
// chain's tip, sh.baseSeq its base, and a fresh active segment is open.
func (st *Store) recoverShard(sh *storeShard) (*cpma.CPMA, error) {
	removeTemps(sh.dir)
	set, base, tip, applied, err := loadChain(sh.dir, sh.id, st.opt.Set)
	if err != nil {
		return nil, err
	}

	// Anything newer than the recovered chain failed verification (a base
	// newer than the winner, a delta past the tip). Delete it now:
	// appends are about to resume numbering from the recovered position,
	// which can sit below the rejected file's coverage — if it later
	// became readable again (a transient I/O error), a future recovery
	// would prefer it and resurrect the very state this recovery rejected
	// while skipping the reused sequence numbers.
	if _, err := baseFiles.remove(sh.dir, func(s uint64) bool { return s > base }); err != nil {
		return nil, err
	}
	if _, err := deltaFiles.remove(sh.dir, func(s uint64) bool { return s > tip }); err != nil {
		return nil, err
	}
	sh.ckptSeq.Store(tip)
	sh.baseSeq = base
	sh.prevBaseSeq = base
	sh.deltasSinceBase = applied
	// Stand for the chain's tip with a handle of it: the replay below and
	// every later write are stamped after its generation, so the next
	// delta holds exactly what changed since the tip.
	sh.ckptGen = set.Clone().Gen()

	segSeqs, err := segFiles.list(sh.dir)
	if err != nil {
		return nil, err
	}
	// chain walks the record sequence from the oldest segment on disk,
	// which legitimately starts before the recovered chain tip (segments
	// are only deleted whole, and the deletion floor trails a full base
	// behind the tip); records with seq <= tip are chain-validated but
	// not re-applied.
	chain := tip
	if len(segSeqs) > 0 {
		if segSeqs[0] > tip+1 {
			// The log starts after the recovered chain's coverage ends:
			// records in between are gone. That cannot happen under this
			// store's retention rule, so refuse to silently lose data.
			return nil, fmt.Errorf("WAL gap: checkpoint chain covers seq %d but oldest segment starts at %d", tip, segSeqs[0])
		}
		chain = segSeqs[0] - 1
	}
	logEnded := false // set once damage ends the log; later segments are orphans
	for _, fs := range segSeqs {
		path := filepath.Join(sh.dir, segFiles.name(fs))
		if logEnded {
			info, serr := os.Stat(path)
			if serr == nil {
				st.tornBytes += uint64(info.Size())
			}
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			st.truncSegs.Add(1)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		recs, validEnd, headerOK := scanSegmentBytes(data, sh.id)
		size := int64(len(data))
		if !headerOK || fs != chain+1 {
			// A segment whose header never made it to disk, or one that
			// does not continue the sequence chain: the log ends before it.
			st.tornBytes += uint64(size)
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			st.truncSegs.Add(1)
			logEnded = true
			continue
		}
		end := validEnd
		for i, rec := range recs {
			if rec.Seq != chain+1 {
				end = rec.start // sequence gap: reject from here on
				recs = recs[:i]
				break
			}
			chain = rec.Seq
		}
		// Barriers replay as the batches they encode; cross-shard agreement
		// (the pair's other half, possibly cut off by the crash) is Open's
		// span enforcement. Records the chain covers are skipped.
		if _, err := Replay(max(tip, fs-1), recs, func(remove bool, keys []uint64, records int) {
			if remove {
				set.RemoveBatch(keys, true)
			} else {
				set.InsertBatch(keys, true)
			}
			st.replayedBatches += uint64(records)
			st.replayedKeys += uint64(len(keys))
		}); err != nil {
			return nil, err // unreachable: the walk above checked continuity
		}
		if end < size {
			st.tornBytes += uint64(size - end)
			if err := truncateFile(path, end); err != nil {
				return nil, err
			}
			logEnded = true
		}
	}

	last := chain
	if last < tip {
		// The checkpoint chain is ahead of the surviving log (a crash can
		// tear unsynced records the chain's in-memory state already
		// covered). The log below the tip is fully subsumed — drop it so
		// the on-disk record chain restarts cleanly at tip+1 and future
		// recoveries see no gap.
		if _, err := segFiles.remove(sh.dir, func(uint64) bool { return true }); err != nil {
			return nil, err
		}
		last = tip
	}

	// Appends resume in a fresh segment right after the last valid record.
	// (The name can only collide with a fully consumed — typically empty —
	// segment, which createSegment truncates.)
	sg, err := createSegment(filepath.Join(sh.dir, segFiles.name(last+1)), sh.id)
	if err != nil {
		return nil, err
	}
	sh.seg = sg
	sh.seq.Store(last)
	// Everything recovery kept was read back from disk, so the shippable
	// seal starts at the full recovered log.
	sh.syncedSeq = last
	if err := syncDir(sh.dir); err != nil {
		sg.close()
		return nil, err
	}
	return set, nil
}

// Replay applies recs to a state reflecting every record at or below
// after and returns the last sequence consumed. It skips records at or
// below after and empty ones, and stops with an error at the first hole.
// Each maximal run of adjacent records moving keys one way (a barrier as
// the batch it encodes), capped once it holds shard.MaxCoalesceKeys keys,
// is merged into one sorted batch and passed to apply with its record
// count. apply must not retain keys: merged runs reuse scratch.
func Replay(after uint64, recs []Rec, apply func(remove bool, keys []uint64, records int)) (uint64, error) {
	last := after
	var (
		run    [][]uint64
		bufs   [2][]uint64
		remove bool
		n      int
	)
	flush := func() {
		if len(run) > 0 {
			apply(remove, parallel.MergeRuns(run, &bufs), len(run))
		}
		run, n = run[:0], 0
	}
	for _, r := range recs {
		if r.Seq <= last {
			continue
		}
		if r.Seq != last+1 {
			flush()
			return last, fmt.Errorf("persist: sequence gap: applied %d, next record %d", last, r.Seq)
		}
		last = r.Seq
		if len(r.Keys) == 0 {
			continue
		}
		if len(run) > 0 && (r.Remove != remove || n >= shard.MaxCoalesceKeys) {
			flush()
		}
		remove = r.Remove
		run = append(run, r.Keys)
		n += len(r.Keys)
	}
	flush()
	return last, nil
}

// loadChain loads the newest verifiable checkpoint chain in a shard
// directory without modifying anything on disk: the winning base (or an
// empty set when none verifies) and the delta links that verify and
// connect. recoverShard layers log repair and anti-resurrection deletion
// on top; the follower bootstrap (Store.BootState) uses it read-only under
// ckptMu.
//
// The chain walk: ascending delta sequences past the base, each linking
// to the chain (its baseSeq names this base, its prevSeq the current tip)
// and verifying end to end. Each delta is applied onto a COW clone of the
// current link, so a delta that fails late — the strict semantic
// validator runs after the patch — costs nothing: the clone is discarded
// and the previous link, untouched, is the recovery point. Deltas at or
// below the base belong to the retained previous chain (fallback
// material, skipped here, reaped by the next base checkpoint).
func loadChain(dir string, shardID int, opts *cpma.Options) (set *cpma.CPMA, base, tip uint64, applied int, err error) {
	// Newest verifiable base checkpoint wins; older ones are only
	// fallbacks.
	ckptSeqs, err := baseFiles.list(dir)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	for i := len(ckptSeqs) - 1; i >= 0; i-- {
		if set = loadBase(dir, shardID, ckptSeqs[i], opts); set != nil {
			base = ckptSeqs[i]
			break
		}
	}
	if set == nil {
		set = cpma.New(opts)
	}
	deltaSeqs, err := deltaFiles.list(dir)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	tip = base
	for _, ds := range deltaSeqs {
		if ds <= base || base == 0 {
			continue
		}
		prevSeq, baseRef, payload, lerr := loadCheckpoint(filepath.Join(dir, deltaFiles.name(ds)), shardID, ds)
		if lerr != nil || baseRef != base || prevSeq != tip {
			break
		}
		next := set.Clone()
		if aerr := next.ApplyDeltaFrom(bytes.NewReader(payload)); aerr != nil {
			break
		}
		if verr := next.Validate(); verr != nil {
			break
		}
		set, tip = next, ds
		applied++
	}
	return set, base, tip, applied, nil
}

// loadBase loads base checkpoint seq, or returns nil when the file fails
// any check: framing, the base links (prevSeq 0, baseSeq its own seq),
// the cpma decoder, and the strict validator.
func loadBase(dir string, shardID int, seq uint64, opts *cpma.Options) *cpma.CPMA {
	prevSeq, baseSeq, payload, err := loadCheckpoint(filepath.Join(dir, baseFiles.name(seq)), shardID, seq)
	if err != nil || prevSeq != 0 || baseSeq != seq {
		return nil
	}
	set, err := cpma.ReadFrom(bytes.NewReader(payload), opts)
	if err != nil || set.Validate() != nil {
		return nil
	}
	return set
}

// dropOutOfSpan removes from a recovered shard every key outside its span
// under the authoritative boundary table, returning the dropped keys in
// ascending order. Nonempty only after a crash inside a rebalance
// barrier, where the moved keys can transiently exist in both shards of
// the pair; the copy in the shard that does not own them under the
// recovered table is the stale one (the barrier protocol's ordering
// guarantees the owning shard's copy is durable). Open journals the
// returned keys as a remove record so the on-disk history stays equal to
// the recovered state.
func dropOutOfSpan(set *cpma.CPMA, p, shards int, bounds []uint64) []uint64 {
	var lo, hi uint64
	if p > 0 {
		lo = bounds[p-1]
	}
	if p < shards-1 {
		hi = bounds[p]
	}
	var stale []uint64
	if lo > 1 {
		set.MapRange(1, lo, func(k uint64) bool {
			stale = append(stale, k)
			return true
		})
	}
	if p < shards-1 {
		if hi == 0 {
			hi = 1 // keys are nonzero; an all-empty tail span owns nothing
		}
		set.MapRange(hi, ^uint64(0), func(k uint64) bool {
			stale = append(stale, k)
			return true
		})
		if set.Has(^uint64(0)) {
			stale = append(stale, ^uint64(0))
		}
	}
	if len(stale) == 0 {
		return nil
	}
	set.RemoveBatch(stale, true)
	return stale
}

// truncateFile cuts path to size bytes and forces the new length down.
func truncateFile(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
