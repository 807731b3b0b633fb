package shard

// The ingest pipeline: each shard owns a bounded mailbox of pending
// operations drained by a dedicated writer goroutine, the shard's only
// mutator. Clients enqueue sorted sub-batches and return immediately
// (fire-and-forget) or wait on a completion ticket (blocking calls); the
// writer greedily drains whatever has accumulated, merges runs of adjacent
// same-kind fire-and-forget batches into one sorted run, and applies it as
// a single InsertBatch/RemoveBatch. Coalescing is what makes the pipeline
// fast: the CPMA's rebalance cost amortizes with batch size (paper Fig. 1),
// so under many clients sending small batches the writer applies few large
// merges instead of many small ones. Tickets complete only after the drain
// publishes, which is what makes blocking calls read-your-writes.

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// opKind labels a mailbox operation.
type opKind uint8

const (
	opInsert opKind = iota
	opRemove
	opFlush
	opQuiesce
)

// shardOp is one mailbox entry: a sorted sub-batch destined for the
// owning shard (opInsert/opRemove), a flush token (opFlush), or a
// rebalancer quiesce token (opQuiesce). keys must not be read after the
// op's apply completes: fire-and-forget enqueues hand over copies the
// pipeline owns outright, but ticketed ops may alias the caller's slice,
// which the caller is free to reuse the moment its ticket completes
// (asyncSplit documents the ownership matrix). A non-nil ticket makes the
// op blocking: the writer applies it individually (for an exact
// fresh/removed count) and completes the ticket once the result is
// published; ticket-free ops are the coalescable fast path. A quiesce
// token parks the writer — it completes the ticket and then blocks until
// resume is closed, leaving the rebalancer as the shard's sole mutator for
// the interim.
//
// With the hot-key absorber on (Options.HotKeys), hot carries the
// promoted-key occurrences the enqueuer stripped from keys — run-collapsed
// {key, count} records the writer absorbs into slot state at this op's
// FIFO position instead of pushing through the merge and the CPMA
// (hotkey.go). Entries are always freshly built, never aliasing caller
// memory.
type shardOp struct {
	kind   opKind
	keys   []uint64
	hot    []hotEntry
	tk     *ticket
	resume chan struct{}
	// enq is the enqueue timestamp feeding the mailbox-residency
	// histogram: one clock read per enqueue call covers every sub-op it
	// mails. Zero for flush/quiesce tokens (they measure nothing).
	enq time.Time
}

// ticket is a completion barrier shared by the per-shard sub-ops of one
// logical operation. Each sub-op completes it once, adding its count; the
// waiter unblocks when the last shard reports in.
type ticket struct {
	remaining atomic.Int32
	total     atomic.Int64
	done      chan struct{}
}

func newTicket(parts int) *ticket {
	t := &ticket{done: make(chan struct{})}
	t.remaining.Store(int32(parts))
	return t
}

func (t *ticket) complete(n int) {
	t.total.Add(int64(n))
	if t.remaining.Add(-1) == 0 {
		close(t.done)
	}
}

func (t *ticket) wait() int {
	<-t.done
	return int(t.total.Load())
}

// IngestStats counts the batch traffic through a Sharded set: sub-batches
// as enqueued by clients versus merged applies executed by the shard
// writers. AppliedKeys + AbsorbedKeys always converges to EnqueuedKeys
// once the pipeline is flushed; AppliedBatches <= EnqueuedBatches, and the
// gap is the coalescing win (mean applied-batch size / mean enqueued
// sub-batch size).
//
// The last four counters track the hot-key absorber (Options.HotKeys; all
// zero when it is off): AbsorbedKeys counts key occurrences diverted from
// the apply path into per-shard slot state, ReconcileBatches the batches
// that folded absorbed state back into the CPMAs at publish points
// (deliberately excluded from AppliedBatches/AppliedKeys, which keep
// counting client traffic only), and HotKeys/Demotions the cumulative
// promotions and demotions (HotKeys - Demotions is the number of keys on
// the absorbed path right now).
type IngestStats struct {
	EnqueuedBatches uint64 // sub-batches handed to shards
	EnqueuedKeys    uint64 // keys across those sub-batches
	AppliedBatches  uint64 // merged InsertBatch/RemoveBatch calls at shards
	AppliedKeys     uint64 // keys across those applies (pre-dedup)

	AbsorbedKeys     uint64 // hot-key occurrences absorbed instead of applied
	ReconcileBatches uint64 // reconcile batches folding absorbed state into CPMAs
	HotKeys          uint64 // cumulative key promotions to the absorbed path
	Demotions        uint64 // cumulative demotions back to the normal path
}

// MeanEnqueuedBatch returns the mean keys per enqueued sub-batch.
func (st IngestStats) MeanEnqueuedBatch() float64 {
	if st.EnqueuedBatches == 0 {
		return 0
	}
	return float64(st.EnqueuedKeys) / float64(st.EnqueuedBatches)
}

// MeanAppliedBatch returns the mean keys per merged apply.
func (st IngestStats) MeanAppliedBatch() float64 {
	if st.AppliedBatches == 0 {
		return 0
	}
	return float64(st.AppliedKeys) / float64(st.AppliedBatches)
}

// Sub returns the counter deltas st - prev (for measuring one phase).
func (st IngestStats) Sub(prev IngestStats) IngestStats {
	return IngestStats{
		EnqueuedBatches: st.EnqueuedBatches - prev.EnqueuedBatches,
		EnqueuedKeys:    st.EnqueuedKeys - prev.EnqueuedKeys,
		AppliedBatches:  st.AppliedBatches - prev.AppliedBatches,
		AppliedKeys:     st.AppliedKeys - prev.AppliedKeys,

		AbsorbedKeys:     st.AbsorbedKeys - prev.AbsorbedKeys,
		ReconcileBatches: st.ReconcileBatches - prev.ReconcileBatches,
		HotKeys:          st.HotKeys - prev.HotKeys,
		Demotions:        st.Demotions - prev.Demotions,
	}
}

// IngestStats returns the batch-traffic counters summed over all shards.
// Counters are monotone; snapshot before and after a phase and Sub the two
// to measure it.
func (s *Sharded) IngestStats() IngestStats {
	var st IngestStats
	for p := range s.cells {
		c := &s.cells[p]
		st.EnqueuedBatches += c.enqBatches.Load()
		st.EnqueuedKeys += c.enqKeys.Load()
		st.AppliedBatches += c.appBatches.Load()
		st.AppliedKeys += c.appKeys.Load()
		st.AbsorbedKeys += c.absorbed.Load()
		st.ReconcileBatches += c.reconciles.Load()
		st.HotKeys += c.promos.Load()
		st.Demotions += c.demos.Load()
	}
	return st
}

// writerScratch holds one writer's reusable buffers: the drained-op list,
// two ping-pong merge arenas, the run-level hot-entry accumulator, and the
// ticket answers waiting for the next publication, so steady-state
// coalescing allocates nothing beyond what the CPMA itself needs.
type writerScratch struct {
	pending []shardOp
	runs    [][]uint64
	bufs    [2][]uint64
	ents    []hotEntry
	acks    []ack
}

// ack is a ticketed op's exact count, held until the drain publishes.
type ack struct {
	tk *ticket
	n  int
}

// ackAll completes every held ticket; callers have just published.
func (ws *writerScratch) ackAll() {
	for _, a := range ws.acks {
		a.tk.complete(a.n)
	}
	clear(ws.acks)
	ws.acks = ws.acks[:0]
}

// maxRetainedArena caps the merge-arena capacity (in keys) a writer keeps
// between drains; a one-off burst near CoalesceMax must not pin megabytes
// of scratch for the rest of the set's lifetime.
const maxRetainedArena = 1 << 16

// release drops references the last drain no longer needs: the applied
// key slices behind pending/runs (so their arrays become collectable) and
// any arena an unusually large coalesce grew past the retention cap.
func (ws *writerScratch) release() {
	clear(ws.pending[:cap(ws.pending)]) // full capacity: drop prior drains' stale headers too
	clear(ws.runs[:cap(ws.runs)])
	clear(ws.ents[:cap(ws.ents)])
	for i := range ws.bufs {
		if cap(ws.bufs[i]) > maxRetainedArena {
			ws.bufs[i] = nil
		}
	}
}

// writer is shard p's single mutator: it blocks for the next op, greedily
// drains whatever else is already buffered (up to CoalesceMax keys), and
// applies the drained prefix in order. It exits when the mailbox is closed
// and fully drained, so Close doubles as a final flush.
func (s *Sharded) writer(p int) {
	defer s.writers.Done()
	c := &s.cells[p]
	var ws writerScratch
	for {
		op, ok := <-c.mbox
		if !ok {
			return
		}
		ws.pending = append(ws.pending[:0], op)
		n := len(op.keys)
		closed := false
	drain:
		for n < s.opt.CoalesceMax {
			select {
			case op2, ok2 := <-c.mbox:
				if !ok2 {
					closed = true
					break drain
				}
				ws.pending = append(ws.pending, op2)
				n += len(op2.keys)
			default:
				break drain
			}
		}
		t0 := time.Now()
		s.applyPending(p, c, &ws)
		// Copy-on-publish: one frozen handle per state-changing drain, so
		// reads never wait on (or block) the apply path. The final drain
		// before exit publishes too, so reads after Close see the fully
		// drained state. Then let the detector retune the promoted set at
		// this rest point — slots are clean, so promotion and demotion are
		// plain table swaps.
		sn := s.rest(p, c, &ws)
		if s.opt.HotKeys {
			s.retuneHot(p, c)
		}
		// Two clock reads bound the whole drain; residency for each
		// drained sub-batch derives from its enqueue stamp against the
		// same end time. A drain that carried a quiesce token spent its
		// time parked for a rebalance, not working — the pair park is
		// measured by the rebalance quiesce/move histograms instead.
		t1 := time.Now()
		parked := false
		for i := range ws.pending {
			if ws.pending[i].kind == opQuiesce {
				parked = true
				break
			}
		}
		if !parked {
			s.pm.drain.Observe(t1.Sub(t0))
			if n > 0 {
				s.pm.coalesce.Record(uint64(n))
			}
			for i := range ws.pending {
				op := &ws.pending[i]
				if (op.kind == opInsert || op.kind == opRemove) && !op.enq.IsZero() {
					s.pm.residency.Observe(t1.Sub(op.enq))
				}
			}
		}
		s.trace.Record(p, obs.EvDrain, sn.epoch, sn.gen, uint64(len(ws.pending)), uint64(n))
		ws.release()
		if closed {
			return
		}
	}
}

// rest is a publication point: it reconciles absorbed hot-key state into
// the CPMA (so the handle is an exact FIFO prefix of the shard's history
// and absorption stays invisible to reads and durability), publishes, and
// hands the handle to the journal — the immutable state a checkpoint can
// serialize, covering every record this goroutine appended so far. Then
// it completes the tickets held since the previous rest point: their
// results are now visible to every read.
func (s *Sharded) rest(p int, c *cell, ws *writerScratch) *shardSnap {
	if s.opt.HotKeys {
		s.reconcileHot(p, c)
	}
	sn := s.publish(p, c)
	if j := s.opt.Journal; j != nil {
		j.Published(p, sn.set)
	}
	ws.ackAll()
	return sn
}

// applyPending executes the drained ops in mailbox order. Maximal runs of
// adjacent ticket-free ops of one kind merge into a single sorted apply;
// ticketed ops apply alone so their fresh/removed counts stay exact, and
// their answers wait for the next rest point. Flush and quiesce tokens
// are rest points themselves (everything enqueued before them has been
// applied by the time they are reached).
func (s *Sharded) applyPending(p int, c *cell, ws *writerScratch) {
	pending := ws.pending
	for i := 0; i < len(pending); {
		op := pending[i]
		switch {
		case op.kind == opFlush:
			// Publish before completing the token: once a Flush returns,
			// every read must include everything it covered. On a durable
			// set the token is also the durability barrier — force the log
			// to disk before anyone waiting on the Flush is released.
			s.rest(p, c, ws)
			if j := s.opt.Journal; j != nil {
				if err := j.Synced(p); err != nil {
					panic(fmt.Sprintf("shard %d: journal sync: %v", p, err))
				}
			}
			op.tk.complete(0)
			i++
		case op.kind == opQuiesce:
			// Park for the rebalancer: publish the rest-point state (the
			// pre-move handle other shards' captures may still pair with,
			// with no absorbed state hiding beside the CPMA the rebalancer
			// extracts), signal arrival, and block. Nothing can follow this
			// token in the mailbox because the rebalancer holds the
			// enqueue-side lifecycle lock while it is outstanding. Until
			// resume closes, the rebalancer is this shard's sole mutator.
			s.rest(p, c, ws)
			op.tk.complete(0)
			<-op.resume
			i++
		case op.tk != nil:
			ws.acks = append(ws.acks, ack{op.tk, s.applyOne(p, c, op.kind, op.keys, op.hot)})
			i++
		default:
			j := i + 1
			for j < len(pending) && pending[j].kind == op.kind && pending[j].tk == nil {
				j++
			}
			keys, hot := op.keys, op.hot
			if j > i+1 {
				ws.runs = ws.runs[:0]
				// Hot entries from the run's ops concatenate in op order;
				// within one run every op has the same kind, so a last-wins
				// fold over them lands on the same slot state regardless of
				// how the cold keys merged.
				ws.ents = ws.ents[:0]
				for k := i; k < j; k++ {
					if ks := pending[k].keys; len(ks) > 0 {
						ws.runs = append(ws.runs, ks)
					}
					ws.ents = append(ws.ents, pending[k].hot...)
				}
				keys = nil
				if len(ws.runs) > 0 {
					keys = mergeRuns(ws.runs, &ws.bufs)
				}
				hot = ws.ents
			}
			s.applyOne(p, c, op.kind, keys, hot)
			i = j
		}
	}
}

// applyOne applies one sorted batch to shard p, records it in the ingest
// counters, and advances the shard's epoch when the apply changed state
// (all-duplicate or all-absent batches leave the state — and therefore the
// published handle — untouched). On a durable set the batch is appended
// to the shard's write-ahead log first: the log must never trail the
// in-memory state it redoes, and a log the set cannot append to is fatal
// (see Journal).
//
// With the absorber on, hot carries the op's pre-separated promoted-key
// entries, and the batch is re-checked against the current table first
// (the backstop for sub-batches split against a stale table during a
// promotion — a promoted key's CPMA state must never change outside
// reconciliation). Entries whose key was demoted while the op was in
// flight fall back into the applied batch at this same FIFO position, so
// the write-ahead contract covers them; surviving entries fold into slot
// state at the same FIFO position as the cold apply — absorbed keys are
// deliberately NOT journaled here, their WAL records are written by
// reconcileHot when the slot state folds into the CPMA. The returned count
// stays exact for ticketed ops: a slot whose effective membership flips
// counts exactly like a fresh insert or a present remove.
func (s *Sharded) applyOne(p int, c *cell, kind opKind, keys []uint64, hot []hotEntry) int {
	var ht *hotTable
	if s.opt.HotKeys {
		ht = c.hot.Load()
		if ht != nil && len(keys) > 0 {
			if cold, ents := stripHotSorted(keys, ht); ents != nil {
				keys = cold
				hot = append(hot, ents...)
			}
		}
		if len(hot) > 0 {
			abs, fallback, surplus := splitEntries(ht, hot)
			if len(fallback) > 0 {
				keys = mergeSortedInto(keys, fallback)
			}
			if surplus > 0 {
				// Demotion-fallback duplicates collapsed by separation: they
				// count as absorbed traffic (they never reach the CPMA) even
				// though their key travels the normal path again.
				c.absorbed.Add(surplus)
				c.det.window += surplus
			}
			hot = abs
		}
	}
	if len(keys) == 0 && len(hot) == 0 {
		return 0
	}
	if len(keys) > 0 {
		if j := s.opt.Journal; j != nil {
			if err := j.Append(p, kind == opRemove, keys); err != nil {
				panic(fmt.Sprintf("shard %d: journal append: %v", p, err))
			}
		}
		c.appBatches.Add(1)
		c.appKeys.Add(uint64(len(keys)))
	}
	var n int
	var absorbed uint64
	if len(keys) > 0 {
		if kind == opInsert {
			n = c.set.InsertBatch(keys, true)
		} else {
			n = c.set.RemoveBatch(keys, true)
		}
		if n > 0 {
			c.epoch.Add(1)
		}
	}
	for _, e := range hot {
		sl := ht.lookup(e.key) // non-nil: splitEntries kept only table keys
		was := sl.eff()
		if kind == opInsert {
			sl.pend = pendInsert
		} else {
			sl.pend = pendRemove
		}
		if sl.eff() != was {
			n++
		}
		sl.hits += e.n
		absorbed += e.n
	}
	if s.opt.HotKeys {
		if absorbed > 0 {
			c.absorbed.Add(absorbed)
		}
		// Absorbed traffic advances the detector's window (it is real
		// traffic for share computation) but not the sketch — its keys are
		// already promoted.
		c.det.observe(keys)
		c.det.window += absorbed
	}
	return n
}

// mergeRuns merges the k sorted runs into one sorted slice with
// level-by-level pairwise rounds (O(total log k) element moves),
// ping-ponging between two reusable arenas. Every round writes all of its
// output — including a copied odd leftover — into that round's arena, so
// no round ever reads the arena it is writing. Duplicates across runs are
// preserved — the CPMA's batch preparation dedups sorted input — so a
// plain merge suffices. runs is clobbered; the result aliases one of the
// arenas and is only valid until the next call.
func mergeRuns(runs [][]uint64, bufs *[2][]uint64) []uint64 {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	which := 0
	for len(runs) > 1 {
		dst := bufs[which]
		if cap(dst) < total {
			dst = make([]uint64, total)
		}
		dst = dst[:total]
		bufs[which] = dst
		which ^= 1
		off, n := 0, 0
		for i := 0; i+1 < len(runs); i += 2 {
			a, b := runs[i], runs[i+1]
			out := dst[off : off+len(a)+len(b)]
			parallel.Merge(a, b, out)
			runs[n] = out
			n++
			off += len(out)
		}
		if len(runs)%2 == 1 {
			last := runs[len(runs)-1]
			out := dst[off : off+len(last)]
			copy(out, last)
			runs[n] = out
			n++
		}
		runs = runs[:n]
	}
	return runs[0]
}
