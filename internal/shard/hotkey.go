package shard

// Hot-key absorption: phase-reconciled commutative ingest for single-key
// hotspots.
//
// The rebalancer caps *span* skew but cannot subdivide one key: when a
// single key dominates traffic, its owning shard's writer becomes the whole
// pipeline's throughput ceiling, re-merging and re-applying the same key
// millions of times. CPMA insert/remove of one key is idempotent-
// commutative, so duplicate traffic to a detected-hot key can be absorbed
// in front of the mailbox and folded into the CPMA once per drain — the
// Doppel-style split-phase protocol, one level up from the paper's batch
// amortization.
//
// The pieces:
//
//   - Detection: each shard's writer feeds a small space-saving sketch from
//     the batches it applies (run-length over the sorted merge, so a drain
//     costs O(distinct) sketch updates). Every HotKeyEvery keys it promotes
//     keys whose share of the window exceeds HotKeyFrac and demotes
//     promoted keys whose absorbed traffic cooled below a quarter of that.
//   - Separation: unsorted batches run a pre-pass against the global
//     promoted-key index (hotIdx, the sorted union of all shards' tables)
//     that tallies hot occurrences into compact hotEntry records —
//     {key, occurrence count} — before the batch is even sorted, so hot
//     traffic skips the enqueue-side sort and scatter (the dominant cost
//     on skewed streams) as well as the mailbox payload, the coalescing
//     merge, and the CPMA applies; that is the throughput win. Sorted
//     sub-batches are additionally checked against the owning shard's
//     table (an atomic pointer load; nil when nothing is hot) and runs of
//     promoted keys are excised the same way.
//   - Absorption: the writer folds an op's entries into per-key slots (a
//     last-wins insert/remove bit over a base-presence bit) at the op's
//     FIFO position, next to the op's cold apply. A writer-side strip in
//     applyOne is the backstop for sub-batches split against a stale table
//     during a promotion, so a promoted key's CPMA state ("base") never
//     changes outside reconciliation.
//   - Reconciliation: before every publish point (drain end, Flush token,
//     quiesce token) the writer folds dirty slots into the CPMA as ordinary
//     sorted batches — WAL-appended first, exactly like any other apply —
//     so every published handle, and therefore every read, is an exact
//     FIFO prefix of the shard's history (absorption is invisible to
//     readers), Flush forces reconciliation, and durability covers exactly
//     the reconciled state.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// Default absorber tuning: the detector evaluates every DefaultHotKeyEvery
// keys through a shard, promotes keys above DefaultHotKeyFrac of that
// window, and keeps at most DefaultHotKeyMax keys promoted per shard.
const (
	DefaultHotKeyFrac  = 1.0 / 16
	DefaultHotKeyMax   = 16
	DefaultHotKeyEvery = 1 << 15
)

// pending op states of a hotSlot.
const (
	pendNone uint8 = iota
	pendInsert
	pendRemove
)

// hotEntry is the compact absorbed form of one promoted key's occurrences
// within one sub-batch: separation collapses a run of n equal keys into a
// single entry (the op kind is the mailbox op's kind). Entries are always
// freshly built — they never alias caller memory.
type hotEntry struct {
	key uint64
	n   uint64
}

// hotSlot is one promoted key's absorbed state. base is the key's presence
// in the shard's CPMA (the truth as of the last reconciliation — promoted
// keys are stripped from every apply, so base changes only at reconcile);
// pend is the last-wins pending op. The effective membership is pend if
// set, else base. hits counts absorbed occurrences since the last detector
// window. Only the shard's writer goroutine touches a slot.
type hotSlot struct {
	base bool
	pend uint8
	hits uint64
}

// eff returns the slot's effective membership: the pending op if one is
// absorbed, else the base presence.
func (sl *hotSlot) eff() bool {
	if sl.pend != pendNone {
		return sl.pend == pendInsert
	}
	return sl.base
}

// hotTable is one shard's promoted-key set: sorted keys with parallel
// slots. The table's keys are immutable once published through cell.hot
// (promotion/demotion installs a replacement), so enqueuers may read them;
// the slots belong to the writer.
type hotTable struct {
	keys  []uint64
	slots []*hotSlot
}

// lookup returns the slot for k, nil if k is not promoted.
func (ht *hotTable) lookup(k uint64) *hotSlot {
	if ht == nil || len(ht.keys) == 0 {
		return nil
	}
	i := sort.Search(len(ht.keys), func(j int) bool { return ht.keys[j] >= k })
	if i < len(ht.keys) && ht.keys[i] == k {
		return ht.slots[i]
	}
	return nil
}

// stripHotSorted excises runs of promoted keys from a sorted sub-batch. It
// returns (nil, nil) when no promoted key occurs — the caller keeps sub —
// and otherwise a freshly built cold remainder (never aliasing sub) plus
// one entry per promoted key found, in table (ascending key) order. It
// reads only the table's immutable keys, so enqueuers may call it.
func stripHotSorted(sub []uint64, ht *hotTable) ([]uint64, []hotEntry) {
	if ht == nil || len(ht.keys) == 0 {
		return nil, nil
	}
	var (
		cold []uint64
		ents []hotEntry
		prev int
	)
	for _, hk := range ht.keys {
		rest := sub[prev:]
		i := prev + sort.Search(len(rest), func(j int) bool { return rest[j] >= hk })
		if i == len(sub) {
			break
		}
		rest = sub[i:]
		j := i + sort.Search(len(rest), func(k int) bool { return rest[k] > hk })
		if j == i {
			continue
		}
		cold = append(cold, sub[prev:i]...)
		ents = append(ents, hotEntry{key: hk, n: uint64(j - i)})
		prev = j
	}
	if ents == nil {
		return nil, nil
	}
	return append(cold, sub[prev:]...), ents
}

// --- detection ---

// ssEntry is one space-saving counter.
type ssEntry struct {
	key   uint64
	count uint64
}

// spaceSaving is a tiny top-K frequency sketch: at most cap counters, a
// new key beyond capacity replaces the minimum counter and inherits its
// count (the classic overestimate — fine for a promotion trigger, which a
// real absorbed-traffic measurement then confirms or demotes). Capacity is
// small, so linear scans beat a heap.
type spaceSaving struct {
	entries []ssEntry
	cap     int
}

func (s *spaceSaving) add(key, n uint64) {
	for i := range s.entries {
		if s.entries[i].key == key {
			s.entries[i].count += n
			return
		}
	}
	if len(s.entries) < s.cap {
		s.entries = append(s.entries, ssEntry{key: key, count: n})
		return
	}
	mi := 0
	for i := 1; i < len(s.entries); i++ {
		if s.entries[i].count < s.entries[mi].count {
			mi = i
		}
	}
	s.entries[mi] = ssEntry{key: key, count: s.entries[mi].count + n}
}

func (s *spaceSaving) reset() { s.entries = s.entries[:0] }

// hotDetector is one shard's traffic sampler: a space-saving sketch over
// the keys the writer applies plus a window counter that triggers
// evaluation. Touched only by the shard's writer goroutine (the rebalancer
// resets it only while the writer is parked on a quiesce token).
type hotDetector struct {
	sk     spaceSaving
	window uint64
}

func (d *hotDetector) reset() {
	d.sk.reset()
	d.window = 0
}

// observe feeds one applied sorted batch into the sketch, run-length
// collapsed. Large batches skip runs too short to matter — a key below
// ~0.4% of one merged drain cannot reach a promotion share — so uniform
// traffic costs almost no sketch updates.
func (d *hotDetector) observe(keys []uint64) {
	n := len(keys)
	if n == 0 {
		return
	}
	d.window += uint64(n)
	minRun := 1 + n>>8
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j] == keys[i] {
			j++
		}
		if j-i >= minRun {
			d.sk.add(keys[i], uint64(j-i))
		}
		i = j
	}
}

// --- writer-side absorption, reconciliation, promotion/demotion ---

// splitEntries partitions an op's hot entries against the current table:
// entries for still-promoted keys absorb into slots; entries whose key was
// demoted while the op was in flight fall back to ordinary keys, merged
// into the op's cold batch at the same FIFO position. A fallback entry of
// n occurrences re-expands as one applied key — idempotent ops collapse —
// with the other n-1 reported as surplus so the absorbed-key accounting
// (AppliedKeys + AbsorbedKeys converges to EnqueuedKeys) stays exact.
// Entries from a coalesced run are concatenated per op, so the fallback
// list is sorted before use. Reads only immutable table keys.
func splitEntries(ht *hotTable, ents []hotEntry) (abs []hotEntry, fallback []uint64, surplus uint64) {
	for _, e := range ents {
		if ht.lookup(e.key) != nil {
			abs = append(abs, e)
		} else {
			fallback = append(fallback, e.key)
			surplus += e.n - 1
		}
	}
	if len(fallback) > 1 && !sort.SliceIsSorted(fallback, func(i, j int) bool { return fallback[i] < fallback[j] }) {
		sort.Slice(fallback, func(i, j int) bool { return fallback[i] < fallback[j] })
	}
	return abs, fallback, surplus
}

// mergeSortedInto merges the small sorted list extra into the sorted batch
// keys (the demotion-fallback path; rare, so it allocates).
func mergeSortedInto(keys, extra []uint64) []uint64 {
	out := make([]uint64, 0, len(keys)+len(extra))
	i, j := 0, 0
	for i < len(keys) && j < len(extra) {
		if keys[i] <= extra[j] {
			out = append(out, keys[i])
			i++
		} else {
			out = append(out, extra[j])
			j++
		}
	}
	return append(append(out, keys[i:]...), extra[j:]...)
}

// reconcileHot folds every dirty slot into the shard's CPMA as ordinary
// sorted batches, WAL-appended before the apply exactly like applyOne, and
// flips the slot bases. Called by the writer before every publish point;
// after it returns, the published handle equals the exact FIFO prefix of
// the shard's operation history — absorption is invisible to reads,
// recovery, and checkpoints.
func (s *Sharded) reconcileHot(p int, c *cell) {
	ht := c.hot.Load()
	if ht == nil {
		return
	}
	var ins, rem []uint64 // table order, therefore sorted
	dirty := false
	for i, sl := range ht.slots {
		if sl.pend == pendNone {
			continue
		}
		dirty = true
		if e := sl.pend == pendInsert; e != sl.base {
			if e {
				ins = append(ins, ht.keys[i])
			} else {
				rem = append(rem, ht.keys[i])
			}
		}
	}
	if !dirty {
		return
	}
	t0 := time.Now()
	if j := s.opt.Journal; j != nil {
		if len(ins) > 0 {
			if err := j.Append(p, false, ins); err != nil {
				panic(fmt.Sprintf("shard %d: journal append (reconcile): %v", p, err))
			}
		}
		if len(rem) > 0 {
			if err := j.Append(p, true, rem); err != nil {
				panic(fmt.Sprintf("shard %d: journal append (reconcile): %v", p, err))
			}
		}
	}
	changed := 0
	if len(ins) > 0 {
		changed += c.set.InsertBatch(ins, true)
		c.reconciles.Add(1)
	}
	if len(rem) > 0 {
		changed += c.set.RemoveBatch(rem, true)
		c.reconciles.Add(1)
	}
	for _, sl := range ht.slots {
		if sl.pend != pendNone {
			sl.base = sl.pend == pendInsert
			sl.pend = pendNone
		}
	}
	if changed > 0 {
		c.epoch.Add(1)
	}
	s.pm.reconcile.Since(t0)
}

// retuneHot is the writer's end-of-drain promotion/demotion pass. It runs
// after reconcileHot, so every slot is clean: a demoted key's CPMA state
// is already the truth (dropping the slot loses nothing), and a freshly
// promoted key's base is read straight off the CPMA (this goroutine is the
// only mutator), and the new table installs with one atomic store.
func (s *Sharded) retuneHot(p int, c *cell) {
	d := &c.det
	if d.window < uint64(s.opt.HotKeyEvery) {
		return
	}
	ht := c.hot.Load()
	promoteAt := uint64(float64(d.window) * s.opt.HotKeyFrac)
	if promoteAt < 1 {
		promoteAt = 1
	}
	demoteAt := promoteAt / 4

	kept := 0
	var drop []bool
	if ht != nil {
		drop = make([]bool, len(ht.keys))
		for i, sl := range ht.slots {
			if sl.hits < demoteAt {
				drop[i] = true
			} else {
				kept++
			}
		}
	}
	var adds []uint64
	for _, e := range d.sk.entries {
		if e.count >= promoteAt && ht.lookup(e.key) == nil && kept+len(adds) < s.opt.HotKeyMax {
			adds = append(adds, e.key)
		}
	}
	demoted := 0
	if ht != nil {
		demoted = len(ht.keys) - kept
	}
	if len(adds) > 0 || demoted > 0 {
		var nt *hotTable
		if kept+len(adds) > 0 {
			nt = &hotTable{
				keys:  make([]uint64, 0, kept+len(adds)),
				slots: make([]*hotSlot, 0, kept+len(adds)),
			}
			if ht != nil {
				for i := range ht.keys {
					if !drop[i] {
						ht.slots[i].hits = 0
						nt.keys = append(nt.keys, ht.keys[i])
						nt.slots = append(nt.slots, ht.slots[i])
					}
				}
			}
			for _, k := range adds {
				nt.keys = append(nt.keys, k)
				nt.slots = append(nt.slots, &hotSlot{base: c.set.Has(k)})
			}
			sortTable(nt)
		}
		c.hot.Store(nt)
		s.rebuildHotIndex()
		c.promos.Add(uint64(len(adds)))
		c.demos.Add(uint64(demoted))
		if len(adds) > 0 {
			s.trace.Record(p, obs.EvPromote, c.epoch.Load(), 0, uint64(len(adds)), 0)
		}
		if demoted > 0 {
			s.trace.Record(p, obs.EvDemote, c.epoch.Load(), 0, uint64(demoted), 0)
		}
	} else if ht != nil {
		for _, sl := range ht.slots {
			sl.hits = 0
		}
	}
	d.reset()
}

// sortTable co-sorts a freshly built table's keys and slots (insertion
// sort — tables hold at most HotKeyMax entries).
func sortTable(t *hotTable) {
	for i := 1; i < len(t.keys); i++ {
		k, sl := t.keys[i], t.slots[i]
		j := i - 1
		for j >= 0 && t.keys[j] > k {
			t.keys[j+1], t.slots[j+1] = t.keys[j], t.slots[j]
			j--
		}
		t.keys[j+1], t.slots[j+1] = k, sl
	}
}

// dropHotTables demotes every promoted key on shard p, resetting the
// detector. Called by the rebalancer with the writer quiesced: a boundary
// move changes which shard owns a key, so per-shard promoted state (whose
// base was read from this shard's CPMA) must not survive the move. Slots
// are clean — the quiesce token's publish reconciled them — so dropping
// the table loses nothing; genuinely hot keys re-promote within one
// detector window.
func (s *Sharded) dropHotTables(p int, c *cell) {
	if !s.opt.HotKeys {
		return
	}
	if ht := c.hot.Load(); ht != nil {
		c.hot.Store(nil)
		c.demos.Add(uint64(len(ht.keys)))
		s.trace.Record(p, obs.EvDemote, c.epoch.Load(), 0, uint64(len(ht.keys)), 0)
	}
	c.det.reset()
	s.rebuildHotIndex()
}

// hotIndexDenseMax bounds the direct-mapped lookup table: when every
// promoted key is below it — they are on skewed streams, whose hot keys
// cluster at the bottom of the key space — the pre-pass lookup is a single
// array load instead of a binary search. 512 KiB of int16 at worst.
const hotIndexDenseMax = 1 << 18

// hotIndex is the global promoted-key index: the sorted union of every
// shard's hot-table keys (at most shards x HotKeyMax of them). Immutable
// once published through Sharded.hotIdx; enqueue's pre-pass probes it per
// key, with a cheap top-key reject for the cold majority of a uniform
// tail.
type hotIndex struct {
	keys []uint64
	top  uint64 // keys[len(keys)-1]
	// dense direct-maps [0, top]: dense[k] is 1 + k's position in keys, 0
	// for unpromoted keys. Nil when top >= hotIndexDenseMax.
	dense []int16
}

// find returns k's position in ix.keys, or -1 if k is not promoted.
func (ix *hotIndex) find(k uint64) int {
	if ix.dense != nil {
		if k < uint64(len(ix.dense)) {
			return int(ix.dense[k]) - 1
		}
		return -1
	}
	if k > ix.top {
		return -1
	}
	lo, hi := 0, len(ix.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.keys[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(ix.keys) && ix.keys[lo] == k {
		return lo
	}
	return -1
}

// rebuildHotIndex republishes the index from the cells' current tables.
// Callers are the shard writers (after a retune) and the rebalancer (after
// dropping tables); concurrent rebuilds are benign — each publishes a
// coherent union of the tables it observed, and enqueue-side staleness in
// either direction is corrected downstream (backstop strip / demotion
// fallback).
func (s *Sharded) rebuildHotIndex() {
	var keys []uint64
	for i := range s.cells {
		if ht := s.cells[i].hot.Load(); ht != nil {
			keys = append(keys, ht.keys...)
		}
	}
	if len(keys) == 0 {
		s.hotIdx.Store(nil)
		return
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	idx := &hotIndex{keys: keys, top: keys[len(keys)-1]}
	if idx.top < hotIndexDenseMax {
		idx.dense = make([]int16, idx.top+1)
		for j, k := range keys {
			idx.dense[k] = int16(j + 1)
		}
	}
	s.hotIdx.Store(idx)
}

// hotScan is the enqueue-side fast pre-pass for unsorted batches: it
// tallies occurrences of globally promoted keys (per hot-index position)
// and returns the remaining cold keys, so hot traffic never reaches the
// sort or the scatter. It doubles as the batch's reserved-key check — one
// pass over the batch instead of checkKeys plus a probe pass. The cold
// slice is freshly allocated whenever anything was excised (the caller's
// slice is never mutated); if nothing hot occurs the input is returned
// as-is with nil counts. Runs before life.RLock (no side effects, so the
// reserved-key panic cannot strand the lock); the index snapshot may be a
// retune older or newer than any shard's table, which the writer-side
// backstop strip and demotion fallback already tolerate.
func (s *Sharded) hotScan(keys []uint64) (cold []uint64, ik []uint64, counts []uint64) {
	idx := s.hotIdx.Load()
	if idx == nil || len(keys) == 0 {
		checkKeys(keys, false)
		return keys, nil, nil
	}
	ik = idx.keys
	if dense := idx.dense; dense != nil {
		// The hot loop of the hot path: one array load per key (find has a
		// search loop, so the compiler won't inline it — hand-inline the
		// dense probe).
		bound := uint64(len(dense))
		for i, k := range keys {
			if k == 0 {
				panic("shard: key 0 is reserved")
			}
			if k < bound {
				if j := dense[k]; j != 0 {
					if counts == nil {
						counts = make([]uint64, len(ik))
						cold = append(make([]uint64, 0, i+(len(keys)-i)/8+8), keys[:i]...)
					}
					counts[j-1]++
					continue
				}
			}
			if counts != nil {
				cold = append(cold, k)
			}
		}
	} else {
		for i, k := range keys {
			if k == 0 {
				panic("shard: key 0 is reserved")
			}
			if j := idx.find(k); j >= 0 {
				if counts == nil {
					counts = make([]uint64, len(ik))
					cold = append(make([]uint64, 0, i+(len(keys)-i)/8+8), keys[:i]...)
				}
				counts[j]++
				continue
			}
			if counts != nil {
				cold = append(cold, k)
			}
		}
	}
	if counts == nil {
		return keys, nil, nil
	}
	return cold, ik, counts
}

// routeHot turns a hotScan tally into per-shard hotEntry lists using the
// router the caller splits and mails by (held stable under life.RLock).
func routeHot(rt *router, ik []uint64, counts []uint64) [][]hotEntry {
	ents := make([][]hotEntry, rt.shards)
	for j, n := range counts {
		if n == 0 {
			continue
		}
		p := rt.shardOf(ik[j])
		ents[p] = append(ents[p], hotEntry{key: ik[j], n: n})
	}
	return ents
}

// HotKeys returns the currently promoted (absorbed-path) keys across all
// shards, sorted — bench and test introspection for the absorber.
func (s *Sharded) HotKeys() []uint64 {
	if !s.opt.HotKeys {
		return nil
	}
	var out []uint64
	for p := range s.cells {
		if ht := s.cells[p].hot.Load(); ht != nil {
			out = append(out, ht.keys...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
