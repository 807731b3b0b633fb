package shard

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cpma"
	"repro/internal/workload"
)

// configs are the geometries every table test runs. The unprefixed ones
// use the default mailbox depth; the "async-" ones run tiny mailboxes, so
// enqueues hit backpressure constantly.
func configs() map[string]*Options {
	return map[string]*Options{
		"hash-1":        {Partition: HashPartition},
		"hash-4":        {Partition: HashPartition},
		"hash-7":        {Partition: HashPartition},
		"range-4":       {Partition: RangePartition, KeyBits: workload.UniformBits},
		"range-5":       {Partition: RangePartition, KeyBits: 64},
		"range-64":      {Partition: RangePartition, KeyBits: 16},
		"async-hash-1":  {Partition: HashPartition, MailboxDepth: 2},
		"async-hash-4":  {Partition: HashPartition, MailboxDepth: 4},
		"async-range-4": {Partition: RangePartition, KeyBits: workload.UniformBits, MailboxDepth: 4},
		// Extreme partition geometries: more shards than distinct spans
		// (2-bit keys across 9 shards leave most spans empty) and the full
		// 64-bit space over a non-power-of-two shard count.
		"range-9x2bit":       {Partition: RangePartition, KeyBits: 2},
		"async-range-9x2bit": {Partition: RangePartition, KeyBits: 2, MailboxDepth: 2},
		"async-range-7x64":   {Partition: RangePartition, KeyBits: 64, MailboxDepth: 4},
	}
}

func shardCount(name string) int {
	switch name {
	case "hash-1", "async-hash-1":
		return 1
	case "hash-4", "range-4", "async-hash-4", "async-range-4":
		return 4
	case "hash-7", "async-range-7x64":
		return 7
	case "range-5":
		return 5
	case "range-9x2bit", "async-range-9x2bit":
		return 9
	default:
		return 64
	}
}

// snapshotShardKeys returns snapshot shard p's keys, decoded, in
// ascending order.
func snapshotShardKeys(sn *Snapshot, p int) []uint64 {
	keys := sn.at(p).Keys()
	for i, v := range keys {
		keys[i] = sn.rt.key(p, v)
	}
	return keys
}

// newTestSet builds a Sharded for one named config and stops its writer
// goroutines when the test finishes.
func newTestSet(t *testing.T, name string, opt *Options) *Sharded {
	t.Helper()
	s := New(shardCount(name), opt)
	t.Cleanup(s.Close)
	return s
}

func TestPointOps(t *testing.T) {
	for name, opt := range configs() {
		t.Run(name, func(t *testing.T) {
			s := newTestSet(t, name, opt)
			keys := []uint64{5, 1, 9, 1 << 15, 77, 1<<15 + 1, 3}
			for _, k := range keys {
				if !s.Insert(k) {
					t.Fatalf("Insert(%d) reported duplicate", k)
				}
			}
			if s.Insert(5) {
				t.Fatal("duplicate Insert(5) reported new")
			}
			if got := s.Len(); got != len(keys) {
				t.Fatalf("Len = %d, want %d", got, len(keys))
			}
			for _, k := range keys {
				if !s.Has(k) {
					t.Fatalf("Has(%d) = false", k)
				}
			}
			if s.Has(2) || s.Has(0) {
				t.Fatal("Has reported absent key present")
			}
			if v, ok := s.Min(); !ok || v != 1 {
				t.Fatalf("Min = %d,%v want 1", v, ok)
			}
			if v, ok := s.Max(); !ok || v != 1<<15+1 {
				t.Fatalf("Max = %d,%v want %d", v, ok, 1<<15+1)
			}
			if v, ok := s.Next(6); !ok || v != 9 {
				t.Fatalf("Next(6) = %d,%v want 9", v, ok)
			}
			if !s.Remove(9) || s.Remove(9) {
				t.Fatal("Remove(9) wrong")
			}
			if v, ok := s.Next(6); !ok || v != 77 {
				t.Fatalf("Next(6) after remove = %d,%v want 77", v, ok)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBatchAgainstSingleCPMA(t *testing.T) {
	for name, opt := range configs() {
		t.Run(name, func(t *testing.T) {
			s := newTestSet(t, name, opt)
			ref := cpma.New(nil)
			r := workload.NewRNG(7)
			for round := 0; round < 6; round++ {
				ins := workload.Uniform(r, 5000, 16)
				gotIns := s.InsertBatch(ins, false)
				wantIns := ref.InsertBatch(ins, false)
				if gotIns != wantIns {
					t.Fatalf("round %d: InsertBatch added %d, want %d", round, gotIns, wantIns)
				}
				del := workload.Uniform(r, 2000, 16)
				gotDel := s.RemoveBatch(del, false)
				wantDel := ref.RemoveBatch(del, false)
				if gotDel != wantDel {
					t.Fatalf("round %d: RemoveBatch removed %d, want %d", round, gotDel, wantDel)
				}
				if s.Len() != ref.Len() {
					t.Fatalf("round %d: Len = %d, want %d", round, s.Len(), ref.Len())
				}
				if s.Sum() != ref.Sum() {
					t.Fatalf("round %d: Sum mismatch", round)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			got, want := s.Keys(), ref.Keys()
			if len(got) != len(want) {
				t.Fatalf("Keys length %d, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Keys[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

func TestSortedBatchSplit(t *testing.T) {
	for name, opt := range configs() {
		t.Run(name, func(t *testing.T) {
			s := newTestSet(t, name, opt)
			keys := make([]uint64, 0, 10000)
			for k := uint64(1); k <= 10000; k++ {
				keys = append(keys, k*3)
			}
			if got := s.InsertBatch(keys, true); got != len(keys) {
				t.Fatalf("sorted InsertBatch added %d, want %d", got, len(keys))
			}
			if got := s.InsertBatch(keys, true); got != 0 {
				t.Fatalf("repeat sorted InsertBatch added %d, want 0", got)
			}
			if got := s.RemoveBatch(keys[:5000], true); got != 5000 {
				t.Fatalf("sorted RemoveBatch removed %d, want 5000", got)
			}
			if s.Len() != 5000 {
				t.Fatalf("Len = %d, want 5000", s.Len())
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMapRange(t *testing.T) {
	for name, opt := range configs() {
		t.Run(name, func(t *testing.T) {
			s := newTestSet(t, name, opt)
			ref := cpma.New(nil)
			r := workload.NewRNG(11)
			keys := workload.Uniform(r, 20000, 16)
			s.InsertBatch(keys, false)
			ref.InsertBatch(keys, false)
			for trial := 0; trial < 30; trial++ {
				start := r.Uint64() % (1 << 16)
				end := start + r.Uint64()%(1<<14)
				var got, want []uint64
				s.MapRange(start, end, func(v uint64) bool { got = append(got, v); return true })
				ref.MapRange(start, end, func(v uint64) bool { want = append(want, v); return true })
				if len(got) != len(want) {
					t.Fatalf("[%d,%d): %d keys, want %d", start, end, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("[%d,%d) pos %d: %d, want %d", start, end, i, got[i], want[i])
					}
				}
				gs, gc := s.RangeSum(start, end)
				ws, wc := ref.RangeSum(start, end)
				if gs != ws || gc != wc {
					t.Fatalf("RangeSum [%d,%d) = %d,%d want %d,%d", start, end, gs, gc, ws, wc)
				}
			}
			// Early termination stops the scan.
			visited := 0
			if s.MapRange(0, ^uint64(0), func(v uint64) bool { visited++; return visited < 10 }) {
				t.Fatal("MapRange reported complete despite early stop")
			}
			if visited != 10 {
				t.Fatalf("early stop visited %d, want 10", visited)
			}
		})
	}
}

func TestRoutingIsTotal(t *testing.T) {
	for _, opt := range []*Options{
		{Partition: HashPartition},
		{Partition: RangePartition, KeyBits: 40},
		{Partition: RangePartition, KeyBits: 64},
	} {
		for _, p := range []int{1, 2, 3, 5, 8, 64} {
			s := New(p, opt)
			r := workload.NewRNG(3)
			for i := 0; i < 10000; i++ {
				k := r.Uint64()
				if id := s.shardOf(k); id < 0 || id >= p {
					t.Fatalf("shardOf(%d) = %d out of [0,%d)", k, id, p)
				}
			}
			// Range routing must be monotone in the key.
			if opt.Partition == RangePartition {
				prev := 0
				for _, k := range []uint64{1, 1 << 10, 1 << 20, 1 << 39, 1 << 63, ^uint64(0)} {
					id := s.shardOf(k)
					if id < prev {
						t.Fatalf("range shardOf not monotone at %d: %d < %d", k, id, prev)
					}
					prev = id
				}
			}
			s.Close()
		}
	}
}

func TestZeroShardClamp(t *testing.T) {
	s := New(0, nil)
	defer s.Close()
	if s.Shards() != 1 {
		t.Fatalf("Shards = %d, want 1", s.Shards())
	}
	s.Insert(9)
	if !s.Has(9) {
		t.Fatal("single-shard set lost key")
	}
}

// TestAsyncFlushVisibility: Flush is the read barrier — everything
// enqueued before it is visible afterwards, and the caller's batch slice
// may be reused immediately after an async enqueue returns.
func TestAsyncFlushVisibility(t *testing.T) {
	for _, part := range []Partition{HashPartition, RangePartition} {
		s := New(3, &Options{Partition: part, KeyBits: 18, MailboxDepth: 4})
		defer s.Close()
		ref := cpma.New(nil)
		r := workload.NewRNG(21)
		buf := make([]uint64, 800)
		for round := 0; round < 20; round++ {
			keys := workload.Uniform(r, len(buf), 18)
			copy(buf, keys)
			ref.InsertBatch(keys, false)
			s.InsertBatchAsync(buf, false)
			for i := range buf { // enqueue must not alias the caller's slice
				buf[i] = 0
			}
			if round%4 == 3 {
				del := workload.Uniform(r, 300, 18)
				s.RemoveBatchAsync(del, false)
				ref.RemoveBatch(del, false)
			}
		}
		s.Flush()
		if s.Len() != ref.Len() || s.Sum() != ref.Sum() {
			t.Fatalf("partition %v: after Flush Len/Sum = %d/%d, want %d/%d",
				part, s.Len(), s.Sum(), ref.Len(), ref.Sum())
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseDrainsAndRejects: Close without a prior Flush still applies
// every enqueued batch, is idempotent, keeps reads working, and makes
// further mutations panic.
func TestCloseDrainsAndRejects(t *testing.T) {
	s := New(3, &Options{MailboxDepth: 2})
	keys := workload.Uniform(workload.NewRNG(5), 20000, 18)
	ref := cpma.New(nil)
	ref.InsertBatch(keys, false)
	for lo := 0; lo < len(keys); lo += 500 {
		s.InsertBatchAsync(keys[lo:lo+500], false)
	}
	s.Close()
	if s.Len() != ref.Len() || s.Sum() != ref.Sum() {
		t.Fatalf("Close did not drain: Len/Sum = %d/%d, want %d/%d", s.Len(), s.Sum(), ref.Len(), ref.Sum())
	}
	s.Close() // idempotent
	s.Flush() // no-op after Close
	if !s.Has(keys[0]) {
		t.Fatal("reads must keep working on a closed set")
	}
	for name, op := range map[string]func(){
		"InsertBatch":       func() { s.InsertBatch([]uint64{1}, true) },
		"InsertBatch empty": func() { s.InsertBatch(nil, true) },
		"RemoveBatch":       func() { s.RemoveBatch([]uint64{1}, true) },
		"InsertBatchAsync":  func() { s.InsertBatchAsync([]uint64{1}, true) },
		"Insert":            func() { s.Insert(1) },
	} {
		if !panics(op) {
			t.Fatalf("%s after Close did not panic", name)
		}
	}
}

// TestIngestStatsCoalesce parks the writers on quiesce tokens while
// sub-batches pile up in the mailboxes, making coalescing deterministic:
// releasing them must drain each mailbox in one apply.
func TestIngestStatsCoalesce(t *testing.T) {
	const batches, batchLen = 16, 100
	s := New(2, &Options{MailboxDepth: 2 * batches})
	defer s.Close()
	r := workload.NewRNG(9)
	resume := make(chan struct{})
	park := newTicket(s.Shards())
	for p := range s.cells {
		s.cells[p].mbox <- shardOp{kind: opQuiesce, tk: park, resume: resume}
	}
	park.wait()
	for i := 0; i < batches; i++ {
		s.InsertBatchAsync(workload.Uniform(r, batchLen, 20), false)
	}
	close(resume)
	s.Flush()
	st := s.IngestStats()
	if st.EnqueuedKeys != uint64(batches*batchLen) || st.EnqueuedKeys != st.AppliedKeys {
		t.Fatalf("key accounting off: %+v", st)
	}
	// The whole pile was enqueued before the writers resumed, so each
	// shard's next drain takes all of it in one coalesced apply.
	if max := uint64(s.Shards()); st.AppliedBatches > max {
		t.Fatalf("coalescing failed: %d applies for %d sub-batches (max %d): %+v",
			st.AppliedBatches, st.EnqueuedBatches, max, st)
	}
	if st.MeanAppliedBatch() <= st.MeanEnqueuedBatch() {
		t.Fatalf("mean applied %.1f not above mean enqueued %.1f",
			st.MeanAppliedBatch(), st.MeanEnqueuedBatch())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroKeyRejected: the reserved key 0 fails fast at the API boundary,
// in the caller's goroutine.
func TestZeroKeyRejected(t *testing.T) {
	s := New(2, nil)
	defer s.Close()
	if s.Has(0) {
		t.Fatal("Has(0) must be false")
	}
	for name, op := range map[string]func(){
		"Insert":               func() { s.Insert(0) },
		"Remove":               func() { s.Remove(0) },
		"InsertBatch unsorted": func() { s.InsertBatch([]uint64{3, 0, 5}, false) },
		"InsertBatch sorted":   func() { s.InsertBatch([]uint64{0, 3}, true) },
		"RemoveBatch unsorted": func() { s.RemoveBatch([]uint64{3, 0}, false) },
		"InsertBatchAsync":     func() { s.InsertBatchAsync([]uint64{0}, true) },
		"RemoveBatchAsync":     func() { s.RemoveBatchAsync([]uint64{5, 0}, false) },
		// The repeat filter's table starts zeroed, so it already "holds"
		// key 0: a check after the probe would drop these silently.
		"InsertBatch repeat then zero": func() { s.InsertBatch([]uint64{7, 7, 0}, false) },
		"InsertBatchAsync zeros":       func() { s.InsertBatchAsync([]uint64{0, 0}, false) },
	} {
		if !panics(op) {
			t.Fatalf("%s accepted key 0", name)
		}
	}
	if s.Len() != 0 {
		t.Fatal("rejected ops mutated the set")
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// --- Snapshot tests ---

// smallSet pins shard CPMAs to the compressed format's minimum leaf, 512
// bytes, so snapshot walks cross many leaf rebuilds.
var smallSet = &cpma.Options{LeafBytes: 512}

// TestSnapshotPrefixCutDifferential is the snapshot-consistency
// differential harness: a writer streams a scripted history of
// fire-and-forget insert/remove batches through the async pipeline while
// the main goroutine repeatedly captures Snapshots. Every capture must be
// a valid cut — each shard's frozen contents must equal that shard's state
// after some prefix of the applied history (shard mailboxes are FIFO and
// writers publish only at batch boundaries) — with per-shard prefixes and
// epochs advancing monotonically across captures, for both hash and range
// partitions. Each subtest verifies 600+ randomized capture interleavings
// (1200+ total), which the CI race job runs under -race with -count=2.
func TestSnapshotPrefixCutDifferential(t *testing.T) {
	hashOpt := &Options{Partition: HashPartition, Set: smallSet, MailboxDepth: 4}
	rangeOpt := &Options{Partition: RangePartition, KeyBits: 16, Set: smallSet, MailboxDepth: 4}
	for _, tc := range []struct {
		name string
		opt  *Options
		hot  bool
	}{
		{"hash", hashOpt, false},
		{"range", rangeOpt, false},
		// Repeated keys must not change the cut contract: the hot
		// histories repeat four keys 150 times per batch, so every capture
		// races batches the enqueue-side repeat filter has shrunk.
		{"hash-hotkey", hashOpt, true},
		{"range-hotkey", rangeOpt, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const P = 3
			const rounds = 120
			const minCaptures = 600
			s := New(P, tc.opt)
			t.Cleanup(s.Close)
			r := workload.NewRNG(77)

			// Script the batch history up front and precompute, per shard,
			// the expected contents after every prefix of it.
			type histBatch struct {
				remove bool
				keys   []uint64
			}
			hist := make([]histBatch, rounds)
			states := make([][][]uint64, P) // states[p][j]: shard p after j batches
			shardModel := make([]map[uint64]bool, P)
			for p := 0; p < P; p++ {
				shardModel[p] = map[uint64]bool{}
				states[p] = make([][]uint64, rounds+1)
				states[p][0] = []uint64{}
			}
			sortedOf := func(m map[uint64]bool) []uint64 {
				out := make([]uint64, 0, len(m))
				for k := range m {
					out = append(out, k)
				}
				slices.Sort(out)
				return out
			}
			for j := range hist {
				remove := j%4 == 3
				keys := workload.Uniform(r, 1+r.Intn(250), 16)
				if j%4 == 1 || j%4 == 2 {
					// A clustered run: it crowds a few leaves while the
					// rest of the shard has room, so it is redistributed
					// across neighboring leaves rather than grown.
					lo := 1 + r.Uint64()%(1<<16-uint64(len(keys)))
					for i := range keys {
						keys[i] = lo + uint64(i)
					}
				}
				if tc.hot {
					for i := 0; i < 150; i++ {
						keys = append(keys, 1+uint64(r.Intn(4)))
					}
				}
				hist[j] = histBatch{remove: remove, keys: keys}
				for _, k := range keys {
					if remove {
						delete(shardModel[s.shardOf(k)], k)
					} else {
						shardModel[s.shardOf(k)][k] = true
					}
				}
				for p := 0; p < P; p++ {
					states[p][j+1] = sortedOf(shardModel[p])
				}
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, b := range hist {
					if b.remove {
						s.RemoveBatchAsync(b.keys, false)
					} else {
						s.InsertBatchAsync(b.keys, false)
					}
				}
				s.Flush()
			}()

			cur := make([]int, P) // last matched prefix per shard
			lastEpochs := make([]uint64, P)
			captures := 0
			writerDone := false
			for !writerDone || captures < minCaptures {
				select {
				case <-done:
					writerDone = true
				default:
				}
				sn := s.Snapshot()
				epochs := sn.Epochs()
				for p := 0; p < P; p++ {
					if epochs[p] < lastEpochs[p] {
						t.Fatalf("capture %d shard %d: epoch went backwards (%d < %d)",
							captures, p, epochs[p], lastEpochs[p])
					}
					lastEpochs[p] = epochs[p]
					got := snapshotShardKeys(sn, p)
					j := cur[p]
					for j <= rounds && !slices.Equal(got, states[p][j]) {
						j++
					}
					if j > rounds {
						t.Fatalf("capture %d shard %d: %d keys match no prefix of the applied history (last matched prefix %d)",
							captures, p, len(got), cur[p])
					}
					cur[p] = j
				}
				// Reads within one snapshot must be mutually consistent.
				if captures%64 == 0 {
					keys := sn.Keys()
					if len(keys) != sn.Len() {
						t.Fatalf("capture %d: Keys yields %d, Len says %d", captures, len(keys), sn.Len())
					}
					var sum uint64
					for _, k := range keys {
						sum += k
					}
					if sum != sn.Sum() {
						t.Fatalf("capture %d: Sum inconsistent with Keys", captures)
					}
				}
				captures++
			}

			// After the final Flush, a fresh snapshot sits at the full history.
			sn := s.Snapshot()
			// The walk must cross both kinds of rebalance smallSet exists
			// for: redistributions of more than one leaf, and growths.
			multi, grows := 0, 0
			for _, set := range sn.ShardSets() {
				dm, dg := set.Rebalances()
				multi, grows = multi+dm, grows+dg
			}
			if multi == 0 || grows == 0 {
				t.Fatalf("walk ran %d multi-leaf redistributions and %d growths; it must reach both", multi, grows)
			}
			for p := 0; p < P; p++ {
				if !slices.Equal(snapshotShardKeys(sn, p), states[p][rounds]) {
					t.Fatalf("post-flush snapshot shard %d does not hold the full history", p)
				}
			}
			if err := sn.Validate(); err != nil {
				t.Fatal(err)
			}
			if captures < minCaptures {
				t.Fatalf("only %d captures", captures)
			}
		})
	}
}

// TestSnapshotReadAPI checks every Snapshot read against the live set on a
// quiesced Sharded for all configs, then checks snapshot isolation: later
// mutations of the live set must not be visible through the old snapshot.
func TestSnapshotReadAPI(t *testing.T) {
	for name, opt := range configs() {
		t.Run(name, func(t *testing.T) {
			s := newTestSet(t, name, opt)
			r := workload.NewRNG(13)
			s.InsertBatch(workload.Uniform(r, 20000, 16), false)
			s.RemoveBatch(workload.Uniform(r, 5000, 16), false)
			s.Flush()
			sn := s.Snapshot()

			if sn.Shards() != s.Shards() {
				t.Fatalf("Shards = %d, want %d", sn.Shards(), s.Shards())
			}
			if sn.Len() != s.Len() || sn.Sum() != s.Sum() {
				t.Fatalf("Len/Sum = %d/%d, live %d/%d", sn.Len(), sn.Sum(), s.Len(), s.Sum())
			}
			if sn.SizeBytes() == 0 {
				t.Fatal("SizeBytes = 0")
			}
			keys := sn.Keys()
			if !slices.Equal(keys, s.Keys()) {
				t.Fatal("Keys diverge from live set")
			}
			if v, ok := sn.Min(); !ok || v != keys[0] {
				t.Fatalf("Min = %d,%v want %d", v, ok, keys[0])
			}
			if v, ok := sn.Max(); !ok || v != keys[len(keys)-1] {
				t.Fatalf("Max = %d,%v want %d", v, ok, keys[len(keys)-1])
			}
			for trial := 0; trial < 50; trial++ {
				k := 1 + r.Uint64()%(1<<16)
				if sn.Has(k) != s.Has(k) {
					t.Fatalf("Has(%d) diverges", k)
				}
				gv, gok := sn.Next(k)
				wv, wok := s.Next(k)
				if gv != wv || gok != wok {
					t.Fatalf("Next(%d) = %d,%v want %d,%v", k, gv, gok, wv, wok)
				}
				start := r.Uint64() % (1 << 16)
				end := start + r.Uint64()%(1<<14)
				gs, gc := sn.RangeSum(start, end)
				ws, wc := s.RangeSum(start, end)
				if gs != ws || gc != wc {
					t.Fatalf("RangeSum[%d,%d) diverges", start, end)
				}
			}
			if sn.Has(0) {
				t.Fatal("Has(0) must be false")
			}
			visited := 0
			if sn.MapRange(1, ^uint64(0), func(uint64) bool { visited++; return visited < 10 }) {
				t.Fatal("MapRange reported complete despite early stop")
			}
			if visited != 10 {
				t.Fatalf("early stop visited %d", visited)
			}
			if err := sn.Validate(); err != nil {
				t.Fatal(err)
			}

			// Isolation: mutations after the capture stay invisible.
			s.InsertBatch(workload.Uniform(r, 10000, 16), false)
			s.Remove(keys[0])
			s.Flush()
			if !slices.Equal(sn.Keys(), keys) {
				t.Fatal("snapshot observed mutations applied after its capture")
			}
			if !sn.Has(keys[0]) {
				t.Fatal("snapshot lost a key removed from the live set after capture")
			}
		})
	}
}

// TestSnapshotReadYourFlushes: a Snapshot captured after Flush returns
// covers every fire-and-forget batch enqueued before the Flush.
func TestSnapshotReadYourFlushes(t *testing.T) {
	s := New(3, &Options{MailboxDepth: 4})
	t.Cleanup(s.Close)
	ref := cpma.New(nil)
	r := workload.NewRNG(29)
	for round := 0; round < 15; round++ {
		for b := 0; b < 4; b++ {
			keys := workload.Uniform(r, 500, 18)
			s.InsertBatchAsync(keys, false)
			ref.InsertBatch(keys, false)
		}
		s.Flush()
		sn := s.Snapshot()
		if sn.Len() != ref.Len() || sn.Sum() != ref.Sum() {
			t.Fatalf("round %d: snapshot after Flush = %d/%d, want %d/%d",
				round, sn.Len(), sn.Sum(), ref.Len(), ref.Sum())
		}
	}
	st := s.SnapshotStats()
	if st.Publishes == 0 || st.Publishes > st.Epochs+uint64(s.Shards()) {
		t.Fatalf("publication accounting off: %+v", st)
	}
}

// TestReadYourWrites: a blocking mutation is visible to every read the
// moment it returns — live reads and a Snapshot captured at once — while
// fire-and-forget traffic keeps the writers busy, so the drain that applied
// a ticketed op goes on applying other batches before it publishes. The
// ticketed ops use odd keys and the background traffic even ones, so the
// expected membership is exact, and so are the ticketed batch counts. The
// hot-key case repeats one key 64 times in every ticketed batch, on small
// leaves, so the counts come through the enqueue-side repeat filter; the
// follower case drives a replica the way the replication applier does and
// checks a bounds update cannot strand a capture.
func TestReadYourWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  *Options
		hot  bool
	}{
		{"hash", &Options{Partition: HashPartition, MailboxDepth: 4}, false},
		{"range", &Options{Partition: RangePartition, KeyBits: 18, MailboxDepth: 4}, false},
		{"hotkey", &Options{Partition: HashPartition, Set: smallSet, MailboxDepth: 4}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(3, tc.opt)
			t.Cleanup(s.Close)
			const hotKey = 7
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := workload.NewRNG(3)
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					keys := workload.Uniform(r, 256, 17)
					for j := range keys {
						keys[j] *= 2
					}
					if i%3 == 2 {
						s.RemoveBatchAsync(keys, false)
					} else {
						s.InsertBatchAsync(keys, false)
					}
				}
			}()
			defer func() {
				close(done)
				wg.Wait()
			}()

			visible := func(step string, keys []uint64, want bool) {
				t.Helper()
				sn := s.Snapshot()
				for _, k := range keys {
					if sn.Has(k) != want || s.Has(k) != want {
						t.Fatalf("%s: key %d: snapshot Has %v, live Has %v, want %v",
							step, k, sn.Has(k), s.Has(k), want)
					}
				}
				var n int
				s.MapRange(keys[0], keys[0]+1, func(uint64) bool { n++; return true })
				if (n == 1) != want {
					t.Fatalf("%s: MapRange sees key %d %d times, want present=%v", step, keys[0], n, want)
				}
			}
			r := workload.NewRNG(11)
			for i := 0; i < 150; i++ {
				k := 2*(1+r.Uint64()%(1<<17)) + 1
				if !s.Insert(k) {
					t.Fatalf("round %d: Insert(%d) reported duplicate", i, k)
				}
				visible("Insert", []uint64{k}, true)
				if !s.Remove(k) {
					t.Fatalf("round %d: Remove(%d) reported absent", i, k)
				}
				visible("Remove", []uint64{k}, false)

				batch := make([]uint64, 0, 80)
				for j := 0; j < 16; j++ {
					batch = append(batch, 2*(1+r.Uint64()%(1<<17))+1)
				}
				if tc.hot {
					for j := 0; j < 64; j++ {
						batch = append(batch, hotKey)
					}
				}
				// Every batch key is absent (odd keys are only ever inserted
				// and removed again by this loop), so both counts are exact.
				want := len(slices.Compact(slices.Sorted(slices.Values(batch))))
				if n := s.InsertBatch(batch, false); n != want {
					t.Fatalf("round %d: InsertBatch added %d, want %d", i, n, want)
				}
				visible("InsertBatch", batch, true)
				if n := s.RemoveBatch(batch, false); n != want {
					t.Fatalf("round %d: RemoveBatch removed %d, want %d", i, n, want)
				}
				visible("RemoveBatch", batch, false)
			}
		})
	}

	t.Run("follower", func(t *testing.T) {
		f := NewReplica(3, &Options{Partition: RangePartition, KeyBits: 16})
		for p := 0; p < 3; p++ {
			lo := uint64(p)<<14 + 1
			// A run merging two insert records, then a one-record removal.
			f.ReplicaApply(p, false, []uint64{lo, lo + 1, lo + 2}, 2)
			f.ReplicaApply(p, true, []uint64{lo + 1}, 1)
			f.ReplicaPublish(p)
		}
		// The ingest counters mean on a follower what they mean on the
		// primary: records enqueued, merged runs applied.
		if st := f.IngestStats(); st != (IngestStats{EnqueuedBatches: 9, EnqueuedKeys: 12, AppliedBatches: 6, AppliedKeys: 12}) {
			t.Fatalf("follower ingest stats %+v", st)
		}
		if err := f.ReplicaSetBounds(1, []uint64{1 << 14, 2 << 14}); err != nil {
			t.Fatal(err)
		}
		got := make(chan *Snapshot, 1)
		go func() { got <- f.Snapshot() }()
		var sn *Snapshot
		select {
		case sn = <-got:
		case <-time.After(10 * time.Second):
			t.Fatal("Snapshot never returned after a bounds update")
		}
		for p := 0; p < 3; p++ {
			want := f.ShardKeys(p)
			if len(want) != 2 || !slices.Equal(sn.at(p).Keys(), want) {
				t.Fatalf("shard %d: snapshot %v, ShardKeys %v", p, sn.at(p).Keys(), want)
			}
		}
		if !slices.Equal(sn.Bounds(), []uint64{1 << 14, 2 << 14}) || !f.Has(1) || f.Has(2) {
			t.Fatalf("follower reads off: bounds %v", sn.Bounds())
		}
	})
}

// TestMapCallbacksReenter: Map and MapRange callbacks run on frozen
// handles, so they may read and even mutate the set they iterate.
func TestMapCallbacksReenter(t *testing.T) {
	for _, part := range []Partition{HashPartition, RangePartition} {
		s := New(3, &Options{Partition: part, KeyBits: 16})
		s.InsertBatch([]uint64{10, 20, 30}, true)
		var seen []uint64
		s.Map(func(k uint64) bool {
			if !s.Has(k) {
				t.Fatalf("partition %v: Has(%d) false inside Map", part, k)
			}
			s.Insert(k + 1)
			seen = append(seen, k)
			return true
		})
		if !slices.Equal(seen, []uint64{10, 20, 30}) || s.Len() != 6 {
			t.Fatalf("partition %v: Map saw %v, then Len %d", part, seen, s.Len())
		}
		s.MapRange(1, 100, func(k uint64) bool { return s.Remove(k) })
		if s.Len() != 0 {
			t.Fatalf("partition %v: Len %d after MapRange removed every key it saw", part, s.Len())
		}
		s.Close()
	}
}

// TestHasDoesNotAllocate pins the live point reads, Len and Snapshot to
// zero allocations on range and hash sets: each is one load of the
// published Snapshot.
func TestHasDoesNotAllocate(t *testing.T) {
	for _, part := range []Partition{RangePartition, HashPartition} {
		s := New(4, &Options{Partition: part, KeyBits: 20})
		defer s.Close()
		s.InsertBatch(workload.Uniform(workload.NewRNG(2), 5000, 20), false)
		for _, read := range []struct {
			name string
			f    func()
		}{
			{"Has", func() { s.Has(12345) }},
			{"Len", func() { s.Len() }},
			{"Next", func() { s.Next(12345) }},
			{"Min", func() { s.Min() }},
			{"Max", func() { s.Max() }},
			{"Snapshot", func() { s.Snapshot() }},
		} {
			if n := testing.AllocsPerRun(100, read.f); n != 0 {
				t.Fatalf("partition %d: %s allocates %.1f times per call", part, read.name, n)
			}
		}
	}
}
