package shard

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// skewedKeys draws n power-law keys (hot keys clustered at the bottom of
// the key space — the range-partition-adversarial shape).
func skewedKeys(r *workload.RNG, n, bits int) []uint64 {
	z := workload.NewPowerLaw(r, bits, 1.1, false)
	return workload.PowerLawBatch(z, n)
}

// TestRebalanceOnceBalancesSkew: a skewed insert stream concentrates the
// keys in shard 0; one rebalance sweep must bring the max/mean key-count
// ratio under MaxSkew, keep the boundary table sorted, and change
// nothing about the set's contents.
func TestRebalanceOnceBalancesSkew(t *testing.T) {
	const P, bits = 6, 24
	s := New(P, &Options{Partition: RangePartition, KeyBits: bits, Set: smallSet})
	t.Cleanup(s.Close)
	r := workload.NewRNG(5)
	keys := skewedKeys(r, 40000, bits)
	s.InsertBatch(keys, false)
	want := append([]uint64(nil), keys...)
	slices.Sort(want)
	want = slices.Compact(want)

	before, _ := s.LoadRatio()
	if before <= s.opt.MaxSkew {
		t.Fatalf("workload not skewed enough to test: ratio %.2f", before)
	}
	moves := s.RebalanceOnce()
	if moves == 0 {
		t.Fatal("RebalanceOnce made no moves on a skewed set")
	}
	after, lens := s.LoadRatio()
	if after > s.opt.MaxSkew {
		t.Fatalf("ratio %.2f still above MaxSkew %.2f after %d moves (lens %v)", after, s.opt.MaxSkew, moves, lens)
	}
	bounds := s.Bounds()
	if len(bounds) != P-1 || !slices.IsSorted(bounds) {
		t.Fatalf("boundary table invalid after rebalance: %v", bounds)
	}
	if !slices.Equal(s.Keys(), want) {
		t.Fatal("rebalance changed the set's contents")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := s.RebalanceStats()
	if st.Moves != uint64(moves) || st.MovedKeys == 0 || st.Gen != uint64(moves) {
		t.Fatalf("rebalance stats off: %+v (moves %d)", st, moves)
	}
	// Every key must still route to the shard that holds it: point reads
	// agree with membership after the handoff.
	for _, k := range want[:500] {
		if !s.Has(k) {
			t.Fatalf("Has(%d) = false after rebalance", k)
		}
	}
	// A balanced set re-sweeps to nothing.
	if again := s.RebalanceOnce(); again != 0 {
		t.Fatalf("second sweep moved %d boundaries on a balanced set", again)
	}
}

// TestRebalanceDifferential is the rebalance differential walk: scripted
// skewed insert/remove batches stream through the mailbox pipeline with
// live boundary moves interleaved (manual sweeps at varying points), and
// after every flush the set — contents, order, Len, Sum, RangeSum,
// snapshots — must equal the sorted-slice model exactly.
func TestRebalanceDifferential(t *testing.T) {
	const P, bits, rounds = 5, 20, 40
	s := New(P, &Options{Partition: RangePartition, KeyBits: bits, MailboxDepth: 4, Set: smallSet})
	t.Cleanup(s.Close)
	r := workload.NewRNG(11)
	model := map[uint64]bool{}
	sortedModel := func() []uint64 {
		out := make([]uint64, 0, len(model))
		for k := range model {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	for round := 0; round < rounds; round++ {
		// Skewed inserts, plus periodic removals of a slice of the hot
		// region so boundaries have to move back down.
		ins := skewedKeys(r, 500+r.Intn(1500), bits)
		s.InsertBatchAsync(ins, false)
		for _, k := range ins {
			model[k] = true
		}
		if round%3 == 2 {
			del := skewedKeys(r, 400, bits)
			s.RemoveBatchAsync(del, false)
			for _, k := range del {
				delete(model, k)
			}
		}
		s.Flush()
		switch round % 4 {
		case 1:
			s.RebalanceOnce()
		case 3:
			// Interleave a sweep with in-flight ingest: the next round's
			// batches race it (the monitor's behavior, deterministically).
			s.InsertBatchAsync(nil, true)
			s.RebalanceOnce()
		}
		want := sortedModel()
		if got := s.Keys(); !slices.Equal(got, want) {
			t.Fatalf("round %d: contents diverge from model (%d vs %d keys)", round, len(got), len(want))
		}
		if s.Len() != len(want) {
			t.Fatalf("round %d: Len %d, model %d", round, s.Len(), len(want))
		}
		sn := s.Snapshot()
		if !slices.Equal(sn.Keys(), want) {
			t.Fatalf("round %d: snapshot diverges from model", round)
		}
		for trial := 0; trial < 10; trial++ {
			start := r.Uint64() % (1 << bits)
			end := start + r.Uint64()%(1<<14)
			var wantSum uint64
			wantCount := 0
			for _, k := range want {
				if k >= start && k < end {
					wantSum += k
					wantCount++
				}
			}
			if gs, gc := s.RangeSum(start, end); gs != wantSum || gc != wantCount {
				t.Fatalf("round %d: RangeSum[%d,%d) = %d,%d want %d,%d", round, start, end, gs, gc, wantSum, wantCount)
			}
			if gs, gc := sn.RangeSum(start, end); gs != wantSum || gc != wantCount {
				t.Fatalf("round %d: snapshot RangeSum diverges", round)
			}
		}
		if bounds := s.Bounds(); !slices.IsSorted(bounds) {
			t.Fatalf("round %d: boundary table unsorted: %v", round, bounds)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if st := s.RebalanceStats(); st.Moves == 0 {
		t.Fatal("differential walk never rebalanced; workload not skewed enough")
	}
}

// TestRebalanceReadOracle checks reads during boundary moves. A static key
// set B — 256-key blocks spread over the key space — is never modified,
// while a writer churns keys between the blocks in a hot quarter that
// shifts every round and a goroutine keeps running RebalanceOnce, so the
// boundaries keep sweeping across B. Readers must find every key of B
// through live Has, and every Snapshot must return exact range sums over
// small sub-ranges of a block: a read that paired a router with handles
// laid out under a different boundary table would miss the keys a move
// carried across. Readers draw their keys from the blocks next to a
// current boundary, where a move carries keys.
func TestRebalanceReadOracle(t *testing.T) {
	const P, bits, block, stride, churn = 4, 20, 256, 1 << 14, 6000
	const quarter = 1 << (bits - 2)
	s := New(P, &Options{Partition: RangePartition, KeyBits: bits, MailboxDepth: 4, MaxSkew: 1.3, Set: smallSet})
	t.Cleanup(s.Close)
	var static []uint64 // B: keys k with k % stride in [1, block]
	for base := uint64(1); base < 1<<bits; base += stride {
		for i := uint64(0); i < block; i++ {
			static = append(static, base+i)
		}
	}
	s.InsertBatch(static, true)

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			s.RebalanceOnce()
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(900 + g))
			nearBound := func() uint64 { // a key of B within 4 blocks of a boundary
				bounds := s.Bounds()
				blk := int(bounds[r.Intn(len(bounds))]/stride) - 4 + r.Intn(8)
				blk = min(max(blk, 0), 1<<bits/stride-1)
				return uint64(blk)*stride + 1 + r.Uint64()%block
			}
			for !done.Load() {
				if k := nearBound(); !s.Has(k) {
					t.Errorf("live Has(%d) = false during rebalancing", k)
					return
				}
				lo := nearBound()
				n := min(1+r.Uint64()%16, block+1-lo%stride)
				want := n*lo + n*(n-1)/2
				if sum, cnt := s.Snapshot().RangeSum(lo, lo+n); sum != want || cnt != int(n) {
					t.Errorf("snapshot RangeSum[%d,%d) = %d,%d, want %d,%d", lo, lo+n, sum, cnt, want, n)
					return
				}
			}
		}(g)
	}

	// At least 40 rounds and 20 moves: at GOMAXPROCS 1 the sweeping
	// goroutine gets few time slices per round.
	r := workload.NewRNG(17)
	var prev []uint64
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; round < 40 || s.RebalanceStats().Moves < 20; round++ {
		if t.Failed() || time.Now().After(deadline) {
			break
		}
		base := uint64(round%P) * quarter
		hot := make([]uint64, churn)
		for i := range hot {
			blk := r.Uint64() % (quarter / stride)
			hot[i] = base + blk*stride + 2*block + r.Uint64()%(stride-2*block)
		}
		s.InsertBatch(hot, false)
		if prev != nil {
			s.RemoveBatch(prev, false)
		}
		prev = hot
	}
	done.Store(true)
	wg.Wait()
	if moves := s.RebalanceStats().Moves; moves < 20 {
		t.Fatalf("only %d boundary moves; the churn is not skewed enough to test", moves)
	}
	for _, k := range static {
		if !s.Has(k) {
			t.Fatalf("Has(%d) = false after rebalancing", k)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundRebalancer: with Options.Rebalance set, the monitor alone
// (no manual sweeps) must pull a continuously skewed ingest stream back
// under MaxSkew.
func TestBackgroundRebalancer(t *testing.T) {
	const P, bits = 4, 22
	s := New(P, &Options{
		Partition: RangePartition, KeyBits: bits,
		Rebalance: true, RebalanceEvery: time.Millisecond, MaxSkew: 1.5,
		Set: smallSet,
	})
	t.Cleanup(s.Close)
	r := workload.NewRNG(7)
	for i := 0; i < 40; i++ {
		s.InsertBatchAsync(skewedKeys(r, 2000, bits), false)
	}
	s.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ratio, _ := s.LoadRatio()
		if ratio <= 1.5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitor did not rebalance: ratio %.2f after deadline", ratio)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.RebalanceStats(); st.Moves == 0 || st.Checks == 0 {
		t.Fatalf("monitor stats off: %+v", st)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceRequiresAsyncRange: the misuse panics promised by the API
// (rebalancing needs RangePartition on a primary set).
func TestRebalanceRequiresAsyncRange(t *testing.T) {
	if !panics(func() { New(4, &Options{Rebalance: true}) }) {
		t.Fatal("Rebalance under HashPartition must panic")
	}
	s := New(2, &Options{Partition: HashPartition})
	defer s.Close()
	if !panics(func() { s.RebalanceOnce() }) {
		t.Fatal("RebalanceOnce on a hash partition must panic")
	}
	replica := NewReplica(2, &Options{Partition: RangePartition})
	if !panics(func() { replica.RebalanceOnce() }) {
		t.Fatal("RebalanceOnce on a replica must panic")
	}
	// Closed set: a sweep is a quiet no-op (the monitor may race Close).
	c := New(2, &Options{Partition: RangePartition})
	c.Close()
	if c.RebalanceOnce() != 0 {
		t.Fatal("RebalanceOnce on a closed set must be a no-op")
	}
	// Invalid seed tables are rejected at construction.
	if !panics(func() {
		New(3, &Options{Partition: RangePartition, Bounds: []uint64{5}})
	}) {
		t.Fatal("short Bounds must panic")
	}
	if !panics(func() {
		New(3, &Options{Partition: RangePartition, Bounds: []uint64{9, 5}})
	}) {
		t.Fatal("unsorted Bounds must panic")
	}
}

// TestSeededBoundsRouting: a set seeded with an explicit boundary table
// routes by it (the persist layer restarts recovered sets this way).
func TestSeededBoundsRouting(t *testing.T) {
	s := New(3, &Options{Partition: RangePartition, KeyBits: 16, Bounds: []uint64{100, 200}})
	defer s.Close()
	for k, want := range map[uint64]int{1: 0, 99: 0, 100: 1, 199: 1, 200: 2, 1 << 15: 2, ^uint64(0): 2} {
		if got := s.shardOf(k); got != want {
			t.Fatalf("shardOf(%d) = %d, want %d", k, got, want)
		}
	}
	if !slices.Equal(s.Bounds(), []uint64{100, 200}) {
		t.Fatalf("Bounds = %v", s.Bounds())
	}
}
