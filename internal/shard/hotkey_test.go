package shard

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// hotOpts builds a hot-key-enabled Options with a tiny detector window so
// tests promote within a few batches.
func hotOpts(part Partition) *Options {
	o := &Options{
		Partition:    part,
		Set:          smallSet,
		MailboxDepth: 4,
		HotKeys:      true,
		HotKeyEvery:  64,
		HotKeyFrac:   0.05,
		HotKeyMax:    8,
	}
	if part == RangePartition {
		o.KeyBits = 16
	}
	return o
}

// TestHotKeyAbsorptionDifferential streams hot-spot traffic (rotating hot
// sets, mixed inserts and removes) through the absorber and checks every
// read against a model after each Flush — the exact-result differential
// the absorber must preserve end to end. The rotation forces promotion
// AND demotion churn mid-stream.
func TestHotKeyAbsorptionDifferential(t *testing.T) {
	for _, part := range []Partition{HashPartition, RangePartition} {
		name := "hash"
		if part == RangePartition {
			name = "range"
		}
		t.Run(name, func(t *testing.T) {
			s := New(4, hotOpts(part))
			t.Cleanup(s.Close)
			r := workload.NewRNG(41)
			model := map[uint64]bool{}

			apply := func(keys []uint64, remove bool) {
				for _, k := range keys {
					if remove {
						delete(model, k)
					} else {
						model[k] = true
					}
				}
				if remove {
					s.RemoveBatchAsync(keys, false)
				} else {
					s.InsertBatchAsync(keys, false)
				}
			}
			check := func(round int) {
				t.Helper()
				want := make([]uint64, 0, len(model))
				var wantSum uint64
				for k := range model {
					want = append(want, k)
					wantSum += k
				}
				slices.Sort(want)
				if got := s.Len(); got != len(want) {
					t.Fatalf("round %d: Len = %d, want %d", round, got, len(want))
				}
				if got := s.Sum(); got != wantSum {
					t.Fatalf("round %d: Sum = %d, want %d", round, got, wantSum)
				}
				if got := s.Keys(); !slices.Equal(got, want) {
					t.Fatalf("round %d: Keys diverge (%d vs %d keys)", round, len(got), len(want))
				}
				for trial := 0; trial < 20; trial++ {
					k := 1 + r.Uint64()%(1<<16)
					if s.Has(k) != model[k] {
						t.Fatalf("round %d: Has(%d) = %v, want %v", round, k, s.Has(k), model[k])
					}
					start := r.Uint64() % (1 << 16)
					end := start + r.Uint64()%(1<<13)
					var ws uint64
					wc := 0
					for _, k := range want {
						if k >= start && k < end {
							ws += k
							wc++
						}
					}
					if gs, gc := s.RangeSum(start, end); gs != ws || gc != wc {
						t.Fatalf("round %d: RangeSum[%d,%d) = %d,%d want %d,%d", round, start, end, gs, gc, ws, wc)
					}
				}
				if len(want) > 0 {
					if v, ok := s.Max(); !ok || v != want[len(want)-1] {
						t.Fatalf("round %d: Max = %d,%v want %d", round, v, ok, want[len(want)-1])
					}
					if v, ok := s.Min(); !ok || v != want[0] {
						t.Fatalf("round %d: Min = %d,%v want %d", round, v, ok, want[0])
					}
				}
			}

			const rounds = 150
			for round := 0; round < rounds; round++ {
				// The hot set rotates every 40 rounds so earlier hot keys
				// cool down and demote while new ones promote.
				hotBase := uint64(round/40) * 4
				n := 1 + r.Intn(100)
				keys := workload.Uniform(r, n, 16)
				for i := 0; i < 2*n; i++ {
					keys = append(keys, hotBase+1+uint64(r.Intn(4)))
				}
				apply(keys, round%4 == 3)
				if round%10 == 9 {
					s.Flush()
					check(round)
				}
			}
			s.Flush()
			check(rounds)
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			st := s.IngestStats()
			if st.AbsorbedKeys == 0 {
				t.Fatalf("nothing absorbed: %+v", st)
			}
			if st.HotKeys == 0 {
				t.Fatalf("nothing promoted: %+v", st)
			}
			if st.Demotions == 0 {
				t.Fatalf("rotation produced no demotions: %+v", st)
			}
			if st.ReconcileBatches == 0 {
				t.Fatalf("no reconcile batches: %+v", st)
			}
			if st.AppliedKeys+st.AbsorbedKeys != st.EnqueuedKeys {
				t.Fatalf("key conservation broken: applied %d + absorbed %d != enqueued %d",
					st.AppliedKeys, st.AbsorbedKeys, st.EnqueuedKeys)
			}
		})
	}
}

// TestHotKeyExactTicketedCounts: once a key is promoted, blocking point
// ops route through the absorbed path and must still report exact
// fresh/present answers (from the slot's effective-membership flip), and
// reads between them must see each op immediately (read-your-writes: the
// ticket completes after the reconciled handle is published).
func TestHotKeyExactTicketedCounts(t *testing.T) {
	opt := hotOpts(HashPartition)
	opt.HotKeyEvery = 256
	s := New(2, opt)
	t.Cleanup(s.Close)
	const k = uint64(7777)

	blast := make([]uint64, 400)
	for i := range blast {
		blast[i] = k
	}
	promoted := func() bool { return slices.Contains(s.HotKeys(), k) }
	for try := 0; try < 50 && !promoted(); try++ {
		s.InsertBatchAsync(blast, true)
		s.Flush()
	}
	if !promoted() {
		t.Fatalf("key %d never promoted: %+v", k, s.IngestStats())
	}

	if !s.Has(k) {
		t.Fatal("promoted key lost")
	}
	if s.Insert(k) {
		t.Fatal("Insert of present promoted key reported fresh")
	}
	if !s.Remove(k) {
		t.Fatal("Remove of present promoted key reported absent")
	}
	if s.Has(k) {
		t.Fatal("read-your-writes: removed key still visible")
	}
	if s.Remove(k) {
		t.Fatal("second Remove reported present")
	}
	if !s.Insert(k) {
		t.Fatal("Insert of absent promoted key reported duplicate")
	}
	if !s.Has(k) {
		t.Fatal("read-your-writes: inserted key invisible")
	}
	if s.Insert(k) {
		t.Fatal("second Insert reported fresh")
	}
	s.Flush()
	if !s.Has(k) {
		t.Fatal("key lost across reconcile")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHotKeyRace is the promote/demote hammer: concurrent clients blast
// shared hot keys (phase-shifted so promotions and demotions happen while
// traffic is live) and insert/remove disjoint private streams, racing
// readers, snapshot captures, Flush, Checkpoint, and the live rebalancer
// (whose boundary moves demote wholesale). The disjoint streams plus
// insert-only hot keys make the final state exact, so any key lost or
// duplicated by an absorb/reconcile/demote handoff fails the run. The CI
// race job runs this under -race.
func TestHotKeyRace(t *testing.T) {
	opt := &Options{
		Partition:    RangePartition,
		KeyBits:      20,
		Set:          smallSet,
		MailboxDepth: 4,
		HotKeys:      true,
		HotKeyEvery:  64,
		HotKeyFrac:   0.05,
		HotKeyMax:    8,
		Rebalance:    true,
		MaxSkew:      1.2,
		// 1ms: boundary moves race ingest/reconcile/demote constantly.
		RebalanceEvery: time.Millisecond,
	}
	s := New(4, opt)
	const (
		clients = 4
		perCli  = 4000
		stride  = 1 << 16
	)
	hotA := []uint64{11, 12, 13}
	hotB := []uint64{21, 22, 23}

	var wg sync.WaitGroup
	done := make(chan struct{})
	// Readers and barrier callers race the whole run.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(100 + g))
			for {
				select {
				case <-done:
					return
				default:
				}
				switch r.Intn(6) {
				case 0:
					s.Len()
				case 1:
					s.Has(hotA[r.Intn(len(hotA))])
				case 2:
					s.Snapshot().Sum()
				case 3:
					s.Flush()
				case 4:
					s.Max()
				case 5:
					if err := s.Checkpoint(); err != nil {
						panic(err)
					}
				}
			}
		}(g)
	}

	var cwg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		cwg.Add(1)
		go func(cl int) {
			defer cwg.Done()
			r := workload.NewRNG(uint64(cl + 1))
			base := uint64(1<<18 + cl*stride)
			buf := make([]uint64, 0, 128)
			for i := 0; i < perCli; i++ {
				buf = append(buf[:0], base+uint64(i))
				// Blast the phase's hot keys so they promote, then cool As
				// demote while Bs heat up mid-run.
				hot := hotA
				if i > perCli/2 {
					hot = hotB
				}
				for j := 0; j < 100; j++ {
					buf = append(buf, hot[r.Intn(len(hot))])
				}
				s.InsertBatchAsync(buf, false)
				if i%64 == 63 {
					// Remove a settled slice of this client's private
					// stream (disjoint from all other writers).
					lo := base + uint64(i-63)
					rm := make([]uint64, 0, 32)
					for k := lo; k < lo+32; k++ {
						rm = append(rm, k)
					}
					s.RemoveBatchAsync(rm, true)
				}
			}
		}(cl)
	}
	cwg.Wait()
	close(done)
	wg.Wait()
	s.Flush()

	// Exact final state: every client's stream minus its removed slices,
	// plus both hot sets (insert-only).
	want := map[uint64]bool{}
	for _, k := range append(append([]uint64{}, hotA...), hotB...) {
		want[k] = true
	}
	for cl := 0; cl < clients; cl++ {
		base := uint64(1<<18 + cl*stride)
		for i := 0; i < perCli; i++ {
			want[base+uint64(i)] = true
		}
		for i := 63; i < perCli; i += 64 {
			lo := base + uint64(i-63)
			for k := lo; k < lo+32; k++ {
				delete(want, k)
			}
		}
	}
	if got := s.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	var wantSum uint64
	for k := range want {
		wantSum += k
	}
	if got := s.Sum(); got != wantSum {
		t.Fatalf("Sum = %d, want %d", got, wantSum)
	}
	for _, k := range s.Keys() {
		if !want[k] {
			t.Fatalf("unexpected key %d in final state", k)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := s.IngestStats()
	if st.AbsorbedKeys == 0 || st.HotKeys == 0 {
		t.Fatalf("absorber never engaged: %+v", st)
	}
	if st.AppliedKeys+st.AbsorbedKeys != st.EnqueuedKeys {
		t.Fatalf("key conservation broken: %+v", st)
	}
	s.Close()
	if got := s.Len(); got != len(want) {
		t.Fatalf("Len after Close = %d, want %d", got, len(want))
	}
}
