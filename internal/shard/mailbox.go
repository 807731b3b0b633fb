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
type shardOp struct {
	kind   opKind
	keys   []uint64
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
// writers. EnqueuedKeys counts keys after the enqueue-side repeat filter,
// so an unsorted batch contributes its distinct keys, not its length.
// AppliedKeys converges to EnqueuedKeys once the pipeline is flushed, and
// EnqueuedKeys - AppliedKeys is the backlog still in the mailboxes;
// AppliedBatches <= EnqueuedBatches, and the gap is the coalescing win
// (mean applied-batch size / mean enqueued sub-batch size).
type IngestStats struct {
	EnqueuedBatches uint64 // sub-batches handed to shards
	EnqueuedKeys    uint64 // keys across those sub-batches
	AppliedBatches  uint64 // merged InsertBatch/RemoveBatch calls at shards
	AppliedKeys     uint64 // keys across those applies (pre-dedup)
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

// IngestStats returns the batch-traffic counters summed over all shards.
// Counters are monotone; RegisterMetrics exports each field under
// {prefix}_ingest_*.
func (s *Sharded) IngestStats() IngestStats {
	var st IngestStats
	for p := range s.cells {
		c := &s.cells[p]
		st.EnqueuedBatches += c.enqBatches.Load()
		st.EnqueuedKeys += c.enqKeys.Load()
		st.AppliedBatches += c.appBatches.Load()
		st.AppliedKeys += c.appKeys.Load()
	}
	return st
}

// writerScratch holds one writer's reusable buffers: the drained-op list,
// two ping-pong merge arenas, and the ticket answers waiting for the next
// publication, so steady-state coalescing allocates nothing beyond what
// the CPMA itself needs.
type writerScratch struct {
	pending []shardOp
	runs    [][]uint64
	bufs    [2][]uint64
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
// between drains; a one-off burst near MaxCoalesceKeys must not pin
// megabytes of scratch for the rest of the set's lifetime.
const maxRetainedArena = 1 << 16

// release drops references the last drain no longer needs: the applied
// key slices behind pending/runs (so their arrays become collectable) and
// any arena an unusually large coalesce grew past the retention cap.
func (ws *writerScratch) release() {
	clear(ws.pending[:cap(ws.pending)]) // full capacity: drop prior drains' stale headers too
	clear(ws.runs[:cap(ws.runs)])
	for i := range ws.bufs {
		if cap(ws.bufs[i]) > maxRetainedArena {
			ws.bufs[i] = nil
		}
	}
}

// writer is shard p's single mutator: it blocks for the next op, greedily
// drains whatever else is already buffered (up to MaxCoalesceKeys keys), and
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
		for n < MaxCoalesceKeys {
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
		// drained state.
		sn := s.rest(p, &ws)
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
		s.trace.Record(p, obs.EvDrain, sn.snaps[p].epoch, sn.rt.gen, uint64(len(ws.pending)), uint64(n))
		ws.release()
		if closed {
			return
		}
	}
}

// rest is a publication point: it publishes the shard's state (an exact
// FIFO prefix of its history) and hands the handle to the journal — the
// immutable state a checkpoint can serialize, covering every record this
// goroutine appended so far. Then it completes the tickets held since the
// previous rest point: their results are now visible to every read.
func (s *Sharded) rest(p int, ws *writerScratch) *Snapshot {
	sn := s.publish(nil, p)
	if j := s.opt.Journal; j != nil {
		j.Published(p, sn.snaps[p].set)
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
			s.rest(p, ws)
			if j := s.opt.Journal; j != nil {
				if err := j.Synced(p); err != nil {
					panic(fmt.Sprintf("shard %d: journal sync: %v", p, err))
				}
			}
			op.tk.complete(0)
			i++
		case op.kind == opQuiesce:
			// Park for the rebalancer: publish the rest-point state (the
			// pre-move handle reads keep using until the move publishes),
			// signal arrival, and block. Nothing can follow this
			// token in the mailbox because the rebalancer holds the
			// enqueue-side lifecycle lock while it is outstanding. Until
			// resume closes, the rebalancer is this shard's sole mutator.
			s.rest(p, ws)
			op.tk.complete(0)
			<-op.resume
			i++
		case op.tk != nil:
			ws.acks = append(ws.acks, ack{op.tk, s.applyOne(p, c, op.kind, op.keys)})
			i++
		default:
			j := i + 1
			for j < len(pending) && pending[j].kind == op.kind && pending[j].tk == nil {
				j++
			}
			ws.runs = ws.runs[:0]
			for k := i; k < j; k++ {
				ws.runs = append(ws.runs, pending[k].keys)
			}
			s.applyOne(p, c, op.kind, parallel.MergeRuns(ws.runs, &ws.bufs))
			i = j
		}
	}
}

// applyOne applies one sorted, nonempty batch to shard p, records it in
// the ingest counters, and advances the shard's epoch when the apply
// changed state (all-duplicate or all-absent batches leave the state — and
// therefore the published handle — untouched). On a durable set the batch
// is appended to the shard's write-ahead log first: the log must never
// trail the in-memory state it redoes, and a log the set cannot append to
// is fatal (see Journal).
func (s *Sharded) applyOne(p int, c *cell, kind opKind, keys []uint64) int {
	if j := s.opt.Journal; j != nil {
		if err := j.Append(p, kind == opRemove, keys); err != nil {
			panic(fmt.Sprintf("shard %d: journal append: %v", p, err))
		}
	}
	c.appBatches.Add(1)
	c.appKeys.Add(uint64(len(keys)))
	var n int
	if kind == opInsert {
		n = c.set.InsertBatch(keys, true)
	} else {
		n = c.set.RemoveBatch(keys, true)
	}
	if n > 0 {
		c.epoch.Add(1)
	}
	return n
}
