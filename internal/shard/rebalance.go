package shard

// Live span rebalancing for skewed workloads. RangePartition assigns each
// shard a contiguous key span; a skewed key distribution (zipfian inserts,
// monotone id streams) can concentrate most keys — and most ingest work —
// in one shard, whose single writer then caps the whole pipeline. The
// rebalancer makes the spans dynamic: a monitor samples per-shard key
// counts and, when the max/mean ratio exceeds Options.MaxSkew, runs a
// repartition sweep — left-to-right passes over the adjacent boundary
// pairs that give each shard its fair share of the keys, letting surplus
// flow through the pairs until the ratio is back under the threshold.
//
// One move is the span handoff the mailbox writers make feasible:
//
//  1. Take life.Lock — no batch can be split against one boundary table
//     and mailed against another, and Close is excluded.
//  2. Quiesce the two affected writers with opQuiesce tokens: each parks
//     at a rest point between applies, leaving the rebalancer as the sole
//     mutator of both CPMAs (readers keep reading published handles).
//  3. Extract both shards' keys (they are frozen and adjacent, so the
//     concatenation is already sorted), pick the new boundary at the
//     target split index, and build the two new CPMAs with a batch build.
//  4. On a durable set, journal the move first (Journal.Rebalanced): WAL
//     barrier records carrying the moved keys plus a durable boundary-
//     table update, ordered so any crash point recovers to exactly the
//     pre- or post-move state.
//  5. Install the new CPMAs, bump the shard epochs, swap in the new
//     router, and publish fresh handles stamped with the new span
//     generation.
//  6. Resume the writers and release life.Lock.
//
// Every read validates its handles' span generations against the router
// it routes with (capture), so no read can ever pair pre-move placement
// with post-move routing or vice versa.

import (
	"fmt"
	"time"

	"repro/internal/cpma"
	"repro/internal/obs"
)

// RebalanceStats counts the rebalancer's work. Counters are monotone;
// snapshot before and after a phase and Sub the two to measure it.
type RebalanceStats struct {
	Checks    uint64 // skew evaluations (monitor ticks + RebalanceOnce calls)
	Moves     uint64 // boundary moves performed
	MovedKeys uint64 // keys that changed shards across those moves
	Gen       uint64 // current router generation (0 = never rebalanced)
}

// Sub returns the counter deltas st - prev (Gen is carried, not
// subtracted).
func (st RebalanceStats) Sub(prev RebalanceStats) RebalanceStats {
	return RebalanceStats{
		Checks:    st.Checks - prev.Checks,
		Moves:     st.Moves - prev.Moves,
		MovedKeys: st.MovedKeys - prev.MovedKeys,
		Gen:       st.Gen,
	}
}

// RebalanceStats returns the rebalancer counters.
func (s *Sharded) RebalanceStats() RebalanceStats {
	return RebalanceStats{
		Checks:    s.rebalChecks.Load(),
		Moves:     s.rebalMoves.Load(),
		MovedKeys: s.rebalMovedKeys.Load(),
		Gen:       s.router().gen,
	}
}

// Bounds returns a copy of the current interior boundary table: shards-1
// ascending keys, shard p owning [bounds[p-1], bounds[p]). nil under
// HashPartition or with a single shard.
func (s *Sharded) Bounds() []uint64 {
	return append([]uint64(nil), s.router().bounds...)
}

// LoadRatio reports the current max/mean shard key-count ratio and the
// per-shard key counts it was computed from (1 on an empty or single-shard
// set). Counts are sampled per shard without a global cut — the monitor
// needs a trend, not a linearizable total.
func (s *Sharded) LoadRatio() (float64, []int) {
	lens := s.shardLens()
	return loadRatio(lens), lens
}

func (s *Sharded) shardLens() []int {
	lens := make([]int, len(s.cells))
	for p := range lens {
		lens[p] = s.cellLen(p)
	}
	return lens
}

func loadRatio(lens []int) float64 {
	total, max := 0, 0
	for _, n := range lens {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 || len(lens) < 2 {
		return 1
	}
	return float64(max) * float64(len(lens)) / float64(total)
}

// rebalanceMonitor is the background load monitor: every RebalanceEvery it
// samples the per-shard key counts and runs a rebalance sweep when the
// skew exceeds MaxSkew.
func (s *Sharded) rebalanceMonitor() {
	defer s.rebalWG.Done()
	t := time.NewTicker(s.opt.RebalanceEvery)
	defer t.Stop()
	for {
		select {
		case <-s.rebalStop:
			return
		case <-t.C:
			s.RebalanceOnce()
		}
	}
}

// RebalanceOnce runs one rebalance sweep: while the max/mean shard
// key-count ratio exceeds Options.MaxSkew, repartition passes move the
// adjacent span boundaries so every shard converges to its fair share.
// It returns the number of boundary moves performed (0 when the set
// is already balanced, closed, or too small to matter). Requires
// RangePartition — the same precondition as Options.Rebalance — and a
// primary set, and panics otherwise; it may be called manually
// whether or not the background monitor is running, and is serialized
// against it.
func (s *Sharded) RebalanceOnce() int {
	if s.replica || s.opt.Partition != RangePartition {
		panic("shard: RebalanceOnce requires RangePartition on a primary (non-replica) set")
	}
	if len(s.cells) < 2 {
		return 0
	}
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	s.rebalChecks.Add(1)
	P := len(s.cells)
	moves := 0
	// A sweep is a sequence of left-to-right repartition passes: each pass
	// walks the boundaries in order and splits every adjacent pair so the
	// left shard ends up holding its fair share of the total, letting
	// surplus (or deficit) flow rightward through the pairs. One pass
	// settles any surplus that sits left of (or inside) the shards that
	// need it; a deficit at the far left needs the surplus to ripple back,
	// one pass per shard of distance in the worst case — hence the P-pass
	// cap. Purely local greedy moves (trim the hottest shard toward its
	// lighter neighbor) were tried first and can oscillate when the hot
	// shard sits at the end of the array: the excess bounces between the
	// last pair forever.
	for pass := 0; pass < P; pass++ {
		lens := s.shardLens()
		total := 0
		for _, n := range lens {
			total += n
		}
		if total < minRebalanceKeys || loadRatio(lens) <= s.opt.MaxSkew {
			break
		}
		share := total / P
		extra := total % P
		movedInPass := 0
		for a := 0; a < P-1; a++ {
			want := share
			if a < extra {
				want++
			}
			// Cheap pre-check on the sampled counts before paying for a
			// move (which parks both writers, stalls enqueues, and extracts
			// the pair): skip corrections under the same ~6% tolerance
			// moveBoundary enforces, re-sampling only the pair so earlier
			// moves in this pass are accounted for. Without this, residual
			// skew between the tolerance and MaxSkew would make every
			// monitor tick quiesce and copy out the whole set for nothing.
			la, lb := s.cellLen(a), s.cellLen(a+1)
			diff := la - want
			if diff < 0 {
				diff = -diff
			}
			if diff*16 < la+lb {
				continue
			}
			if s.moveBoundary(a, want) {
				movedInPass++
			}
		}
		moves += movedInPass
		if movedInPass == 0 {
			break
		}
	}
	return moves
}

// cellLen is shard p's key count as of its published handle.
func (s *Sharded) cellLen(p int) int { return s.cells[p].snap.Load().set.Len() }

// moveBoundary rebalances the adjacent pair (a, a+1) by moving their
// shared boundary so the left shard keeps keepLeft keys (clamped to the
// pair's population). Reports whether a move actually happened (false
// when the set is closed or the boundary would not change).
func (s *Sharded) moveBoundary(a, keepLeft int) bool {
	b := a + 1
	s.life.Lock()
	if s.closed {
		s.life.Unlock()
		return false
	}
	// Park both writers. The tokens are the last ops in the two mailboxes:
	// enqueues need life.RLock, which we hold exclusively.
	tMove := time.Now()
	resume := make(chan struct{})
	park := newTicket(2)
	for _, p := range [2]int{a, b} {
		s.cells[p].mbox <- shardOp{kind: opQuiesce, tk: park, resume: resume}
	}
	park.wait()
	s.pm.quiesce.Since(tMove)
	unpark := func() {
		close(resume)
		s.life.Unlock()
	}

	// Both CPMAs are frozen (writers parked, mutators excluded by
	// life.Lock); extract and rebuild. Adjacent spans mean ka < kb
	// pointwise, so the concatenation is sorted and the split point is a
	// plain index.
	ka := s.cells[a].set.Keys()
	kb := s.cells[b].set.Keys()
	merged := append(ka, kb...)
	n := len(merged)
	if n < 2 {
		unpark()
		return false
	}
	splitAt := keepLeft
	if splitAt < 1 {
		splitAt = 1
	}
	if splitAt > n-1 {
		splitAt = n - 1
	}
	rt := s.router()
	newBound := merged[splitAt] // keys < newBound stay left, >= newBound go right
	oldBound := rt.bounds[a]
	if newBound == oldBound {
		unpark()
		return false
	}
	// The moved keys are the slice between the old and new boundary.
	var moved []uint64
	var src, dst int
	if newBound < oldBound {
		moved, src, dst = merged[splitAt:len(ka)], a, b
	} else {
		moved, src, dst = merged[len(ka):splitAt], b, a
	}
	// A move rebuilds both CPMAs, so marginal shifts are not worth it:
	// skip when the correction is under ~6% of the pair's population.
	// Per-pair shares then sit within that tolerance of ideal, which
	// keeps the global ratio comfortably under every supported MaxSkew
	// while letting the sweep reach a stable no-op state instead of
	// endlessly polishing boundaries under live ingest.
	if len(moved) == 0 || len(moved)*16 < n {
		unpark()
		return false
	}
	newA := cpma.FromSorted(merged[:splitAt], s.opt.Set)
	newB := cpma.FromSorted(merged[splitAt:], s.opt.Set)

	nrt := &router{
		part:    rt.part,
		shards:  rt.shards,
		bounds:  append([]uint64(nil), rt.bounds...),
		gen:     rt.gen + 1,
		spanGen: append([]uint64(nil), rt.spanGen...),
	}
	nrt.bounds[a] = newBound
	nrt.spanGen[a] = nrt.gen
	nrt.spanGen[b] = nrt.gen

	// Write-ahead: the journal sees the move before memory does. Its
	// barrier protocol (dest record, boundary table, source record — each
	// forced to disk in turn) makes every crash point recover to exactly
	// the pre- or post-move state.
	if j := s.opt.Journal; j != nil {
		if err := j.Rebalanced(src, dst, moved, nrt.gen, nrt.bounds); err != nil {
			unpark()
			panic(fmt.Sprint("shard: journal rebalance: ", err))
		}
	}

	// Install. Until the fresh handles below land, captures under the new
	// router see stale-generation handles for the pair and retry; captures
	// under the old router either finish before the swap (and read the
	// old placement consistently) or see the router change and retry.
	ca, cb := &s.cells[a], &s.cells[b]
	ca.set, cb.set = newA, newB
	ca.epoch.Add(1)
	cb.epoch.Add(1)
	// The move changed which shard owns which keys, so both shards'
	// promoted-key state (whose base bits were read off the old CPMAs) is
	// demoted wholesale. Slots are clean — the quiesce-token publish
	// reconciled them, so the extracted Keys above were already the full
	// truth — and genuinely hot keys re-promote within one detector window.
	// The parked writers give the rebalancer safe access to the detectors.
	s.dropHotTables(a, ca)
	s.dropHotTables(b, cb)
	s.rt.Store(nrt)
	// Publish fresh handles at the new span generation so captures
	// converge (stale-gen handles are rejected until these land).
	sa := s.publish(a, ca)
	sb := s.publish(b, cb)
	if j := s.opt.Journal; j != nil {
		// The writers are still parked, so recording the published handles
		// (covering the barrier records just appended) is race-free.
		j.Published(a, sa.set)
		j.Published(b, sb.set)
	}

	s.rebalMoves.Add(1)
	s.rebalMovedKeys.Add(uint64(len(moved)))
	s.pm.move.Since(tMove)
	s.trace.Record(src, obs.EvMove, 0, nrt.gen, uint64(dst), uint64(len(moved)))
	unpark()
	return true
}
