package shard

import (
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestRepeatedKeysDifferential streams hot-spot traffic — rotating hot
// sets, two hot occurrences per cold key in every batch, mixed inserts and
// removes — through the enqueue-side repeat filter and checks every read
// against a model after each Flush: dropping repeats must not change any
// answer. The ingest counters must show the filter at work (fewer keys
// enqueued than sent) and every enqueued key applied.
func TestRepeatedKeysDifferential(t *testing.T) {
	for _, part := range []Partition{HashPartition, RangePartition} {
		name := "hash"
		if part == RangePartition {
			name = "range"
		}
		t.Run(name, func(t *testing.T) {
			s := New(4, &Options{Partition: part, KeyBits: 16, Set: smallSet, MailboxDepth: 4})
			t.Cleanup(s.Close)
			r := workload.NewRNG(41)
			model := map[uint64]bool{}
			sent := 0

			apply := func(keys []uint64, remove bool) {
				sent += len(keys)
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
				// The hot set rotates every 40 rounds, so earlier hot keys go
				// cold (and, through the removes, absent) mid-stream.
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
			if st.AppliedKeys != st.EnqueuedKeys {
				t.Fatalf("flushed pipeline left keys behind: applied %d of %d enqueued", st.AppliedKeys, st.EnqueuedKeys)
			}
			if st.EnqueuedKeys >= uint64(sent) {
				t.Fatalf("repeats reached the mailboxes: %d keys enqueued of %d sent", st.EnqueuedKeys, sent)
			}
		})
	}
}

// TestHotKeyExactTicketedCounts: a key blasted in repeated unsorted
// batches is enqueued once per batch, and blocking point and batch ops on
// it still report exact fresh/present answers, each visible to the very
// next read (read-your-writes).
func TestHotKeyExactTicketedCounts(t *testing.T) {
	s := New(2, &Options{Partition: HashPartition, Set: smallSet, MailboxDepth: 4})
	t.Cleanup(s.Close)
	const k = uint64(7777)

	blast := make([]uint64, 400)
	for i := range blast {
		blast[i] = k
	}
	const blasts = 8
	for i := 0; i < blasts; i++ {
		s.InsertBatchAsync(blast, false)
	}
	s.Flush()
	if st := s.IngestStats(); st.EnqueuedKeys != blasts || st.AppliedKeys != blasts {
		t.Fatalf("want one key per blasted batch enqueued and applied: %+v", st)
	}

	if !s.Has(k) {
		t.Fatal("blasted key lost")
	}
	if s.Insert(k) {
		t.Fatal("Insert of present hot key reported fresh")
	}
	if !s.Remove(k) {
		t.Fatal("Remove of present hot key reported absent")
	}
	if s.Has(k) {
		t.Fatal("read-your-writes: removed key still visible")
	}
	if s.Remove(k) {
		t.Fatal("second Remove reported present")
	}
	if !s.Insert(k) {
		t.Fatal("Insert of absent hot key reported duplicate")
	}
	if !s.Has(k) {
		t.Fatal("read-your-writes: inserted key invisible")
	}
	if s.Insert(k) {
		t.Fatal("second Insert reported fresh")
	}
	if n := s.InsertBatch(blast, false); n != 0 {
		t.Fatalf("blast of a present key reported %d fresh", n)
	}
	if n := s.RemoveBatch(blast, false); n != 1 {
		t.Fatalf("blast removal reported %d removed, want 1", n)
	}
	if s.Has(k) {
		t.Fatal("read-your-writes: blast-removed key still visible")
	}
	if n := s.InsertBatch(blast, false); n != 1 {
		t.Fatalf("blast of an absent key reported %d fresh, want 1", n)
	}
	s.Flush()
	if !s.Has(k) {
		t.Fatal("key lost across Flush")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
