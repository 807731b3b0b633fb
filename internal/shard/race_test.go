package shard

// Race coverage: these tests exercise concurrent readers against in-flight
// batch writes and concurrent writing clients. They are meaningful mostly
// under `go test -race` (the CI race job runs exactly that); without the
// detector they still verify convergence.

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestConcurrentReadersDuringBatchWrites(t *testing.T) {
	for _, opt := range []*Options{
		{Partition: HashPartition},
		{Partition: RangePartition, KeyBits: 20},
	} {
		s := New(4, opt)
		defer s.Close()
		s.InsertBatch(workload.Uniform(workload.NewRNG(1), 20000, 20), false)

		const writers, readers, rounds = 2, 4, 30
		var done atomic.Bool
		var writersWG, readersWG sync.WaitGroup
		for w := 0; w < writers; w++ {
			writersWG.Add(1)
			go func(w int) {
				defer writersWG.Done()
				r := workload.NewRNG(uint64(100 + w))
				for i := 0; i < rounds; i++ {
					s.InsertBatch(workload.Uniform(r, 2000, 20), false)
					s.RemoveBatch(workload.Uniform(r, 1000, 20), false)
				}
			}(w)
		}
		var reads atomic.Int64
		for g := 0; g < readers; g++ {
			readersWG.Add(1)
			go func(g int) {
				defer readersWG.Done()
				r := workload.NewRNG(uint64(200 + g))
				for !done.Load() {
					switch r.Intn(4) {
					case 0:
						s.Has(1 + r.Uint64()%(1<<20))
					case 1:
						start := r.Uint64() % (1 << 20)
						s.RangeSum(start, start+1024)
					case 2:
						s.Len()
					default:
						s.MapRange(1, 4096, func(uint64) bool { return true })
					}
					reads.Add(1)
				}
			}(g)
		}
		writersWG.Wait()
		done.Store(true)
		readersWG.Wait()
		if reads.Load() == 0 {
			t.Fatal("readers never ran")
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	const clients = 8
	const perClient = 10000
	for _, opt := range []*Options{
		{Partition: HashPartition},
		{Partition: RangePartition, KeyBits: 32},
	} {
		s := New(5, opt)
		defer s.Close()
		var wg sync.WaitGroup
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				base := uint64(cl*perClient) + 1
				batch := make([]uint64, perClient)
				for i := range batch {
					batch[i] = base + uint64(i)
				}
				for lo := 0; lo < perClient; lo += 1000 {
					s.InsertBatch(batch[lo:lo+1000], true)
				}
			}(cl)
		}
		wg.Wait()
		if got := s.Len(); got != clients*perClient {
			t.Fatalf("Len = %d, want %d", got, clients*perClient)
		}
		keys := s.Keys()
		for i, v := range keys {
			if v != uint64(i)+1 {
				t.Fatalf("Keys[%d] = %d, want %d", i, v, i+1)
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAsyncIngestRace hammers the mailbox pipeline: concurrent
// fire-and-forget enqueuers (with occasional ticketed batches and point
// ops), readers, and a flusher, finishing with a Close that races the
// readers and flusher. Meaningful mostly under -race; without the detector it
// still verifies that Close drains every enqueued key.
func TestAsyncIngestRace(t *testing.T) {
	for _, opt := range []*Options{
		{MailboxDepth: 4, Partition: HashPartition},
		{MailboxDepth: 2, Partition: RangePartition, KeyBits: 18},
	} {
		s := New(4, opt)
		const writers = 4
		var wwg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wwg.Add(1)
			go func(w int) {
				defer wwg.Done()
				r := workload.NewRNG(uint64(300 + w))
				for i := 0; i < 25; i++ {
					s.InsertBatchAsync(workload.Uniform(r, 1500, 18), false)
					switch i % 5 {
					case 2:
						s.RemoveBatchAsync(workload.Uniform(r, 700, 18), false)
					case 4:
						s.InsertBatch(workload.Uniform(r, 100, 18), false) // ticketed path
						s.Insert(1 + r.Uint64()%(1<<18))
					}
				}
			}(w)
		}
		var done atomic.Bool
		var rwg sync.WaitGroup
		for g := 0; g < 3; g++ {
			rwg.Add(1)
			go func(g int) {
				defer rwg.Done()
				r := workload.NewRNG(uint64(400 + g))
				for !done.Load() {
					switch r.Intn(4) {
					case 0:
						s.Has(1 + r.Uint64()%(1<<18))
					case 1:
						start := r.Uint64() % (1 << 18)
						s.RangeSum(start, start+2048)
					case 2:
						s.Len()
					default:
						s.MapRange(1, 4096, func(uint64) bool { return true })
					}
				}
			}(g)
		}
		rwg.Add(1)
		go func() { // flusher: Flush must be safe against a concurrent Close
			defer rwg.Done()
			for !done.Load() {
				s.Flush()
			}
		}()
		wwg.Wait()
		s.Close()
		done.Store(true)
		rwg.Wait()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		st := s.IngestStats()
		if st.AppliedKeys != st.EnqueuedKeys {
			t.Fatalf("Close left keys behind: applied %d of %d", st.AppliedKeys, st.EnqueuedKeys)
		}
		if st.AppliedBatches > st.EnqueuedBatches {
			t.Fatalf("more applies than sub-batches: %+v", st)
		}
	}
}

func TestConcurrentInsertRemoveConverge(t *testing.T) {
	// Writers insert and remove overlapping uniform batches; afterwards the
	// set must equal the result of replaying the same per-client streams
	// serially per shard (which the per-shard mailboxes guarantee), so we
	// only assert structural health and that point ops agree with
	// membership.
	s := New(4, &Options{Partition: HashPartition})
	defer s.Close()
	var wg sync.WaitGroup
	for cl := 0; cl < 4; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(42 + cl))
			for i := 0; i < 20; i++ {
				s.InsertBatch(workload.Uniform(r, 3000, 14), false)
				s.RemoveBatch(workload.Uniform(r, 1500, 14), false)
				s.Insert(1 + r.Uint64()%(1<<14))
				s.Remove(1 + r.Uint64()%(1<<14))
			}
		}(cl)
	}
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	keys := s.Keys()
	if len(keys) != s.Len() {
		t.Fatalf("Keys returned %d, Len says %d", len(keys), s.Len())
	}
	for _, k := range keys[:min(len(keys), 500)] {
		if !s.Has(k) {
			t.Fatalf("key %d in Keys but Has is false", k)
		}
	}
}

// TestRebalanceRace hammers live boundary moves against everything at
// once: concurrent async writers streaming maximally skewed disjoint
// insert streams (sequential keys — the worst case for RangePartition),
// readers, snapshotters, a flusher, the background monitor, and a
// goroutine spamming manual sweeps. Because the writers' streams are
// disjoint inserts, the final state is exact: every key must survive
// every boundary handoff. Meaningful mostly under -race; without the
// detector it still verifies that no key is lost or duplicated across
// concurrent rebalances.
func TestRebalanceRace(t *testing.T) {
	const writers, perWriter, bits = 4, 20000, 28
	s := New(5, &Options{
		Partition: RangePartition, KeyBits: bits, MailboxDepth: 4,
		Rebalance: true, RebalanceEvery: time.Millisecond, MaxSkew: 1.3,
	})
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			base := uint64(w*perWriter) + 1
			batch := make([]uint64, perWriter)
			for i := range batch {
				batch[i] = base + uint64(i)
			}
			for lo := 0; lo < perWriter; lo += 500 {
				s.InsertBatch(batch[lo:lo+500], true)
			}
		}(w)
	}
	var done atomic.Bool
	var rwg sync.WaitGroup
	for g := 0; g < 3; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			r := workload.NewRNG(uint64(800 + g))
			for !done.Load() {
				switch r.Intn(5) {
				case 0:
					s.Has(1 + r.Uint64()%(writers*perWriter))
				case 1:
					start := r.Uint64() % (writers * perWriter)
					s.RangeSum(start, start+2048)
				case 2:
					s.Len()
				case 3:
					sn := s.Snapshot()
					if n := len(sn.Keys()); n != sn.Len() {
						t.Errorf("snapshot inconsistent during rebalance: %d keys, Len %d", n, sn.Len())
						return
					}
				default:
					s.MapRange(1, 4096, func(uint64) bool { return true })
				}
			}
		}(g)
	}
	rwg.Add(2)
	go func() { // flusher
		defer rwg.Done()
		for !done.Load() {
			s.Flush()
		}
	}()
	go func() { // manual sweeps racing the background monitor
		defer rwg.Done()
		for !done.Load() {
			s.RebalanceOnce()
		}
	}()
	wwg.Wait()
	s.Flush()
	s.RebalanceOnce()
	done.Store(true)
	rwg.Wait()
	if got := s.Len(); got != writers*perWriter {
		t.Fatalf("lost or duplicated keys across rebalances: Len = %d, want %d", got, writers*perWriter)
	}
	keys := s.Keys()
	for i, v := range keys {
		if v != uint64(i)+1 {
			t.Fatalf("Keys[%d] = %d, want %d", i, v, i+1)
		}
	}
	if ratio, lens := s.LoadRatio(); ratio > 1.5 {
		t.Fatalf("rebalancer left ratio %.2f (lens %v)", ratio, lens)
	}
	if bounds := s.Bounds(); !slices.IsSorted(bounds) {
		t.Fatalf("boundary table unsorted: %v", bounds)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Post-Close: snapshots and reads still serve the final state.
	if sn := s.Snapshot(); sn.Len() != writers*perWriter {
		t.Fatalf("post-Close snapshot Len = %d", sn.Len())
	}
}

// TestSnapshotRace hammers Snapshot capture and scans against concurrent
// async ingest (fire-and-forget, ticketed, and point ops), Flush, and a
// Close racing the snapshotters. Every snapshot's reads must stay mutually
// consistent while the set churns, a snapshot captured mid-run must keep
// serving reads after the set is closed (snapshot outlives Close), and a
// capture after Close must equal the fully drained state.
func TestSnapshotRace(t *testing.T) {
	for _, opt := range []*Options{
		{MailboxDepth: 4, Partition: HashPartition},
		{MailboxDepth: 2, Partition: RangePartition, KeyBits: 18},
	} {
		s := New(4, opt)
		const writers = 3
		var wwg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wwg.Add(1)
			go func(w int) {
				defer wwg.Done()
				r := workload.NewRNG(uint64(500 + w))
				for i := 0; i < 20; i++ {
					s.InsertBatchAsync(workload.Uniform(r, 1000, 18), false)
					switch i % 5 {
					case 2:
						s.RemoveBatchAsync(workload.Uniform(r, 500, 18), false)
					case 4:
						s.InsertBatch(workload.Uniform(r, 100, 18), false)
						s.Insert(1 + r.Uint64()%(1<<18))
					}
				}
			}(w)
		}
		var done atomic.Bool
		var rwg sync.WaitGroup
		var kept atomic.Pointer[Snapshot]
		for g := 0; g < 3; g++ {
			rwg.Add(1)
			go func(g int) {
				defer rwg.Done()
				r := workload.NewRNG(uint64(600 + g))
				for !done.Load() {
					sn := s.Snapshot()
					n := 0
					sn.Map(func(uint64) bool { n++; return true })
					if n != sn.Len() {
						t.Errorf("snapshot scan visits %d keys, Len says %d", n, sn.Len())
						return
					}
					start := r.Uint64() % (1 << 18)
					sn.RangeSum(start, start+4096)
					sn.Next(1 + r.Uint64()%(1<<18))
					sn.Has(1 + r.Uint64()%(1<<18))
					kept.Store(sn)
				}
			}(g)
		}
		rwg.Add(1)
		go func() { // flusher: Flush must be safe against capture and Close
			defer rwg.Done()
			for !done.Load() {
				s.Flush()
			}
		}()
		wwg.Wait()
		s.Close()
		fin := s.Snapshot() // capture racing the snapshotters, after Close
		done.Store(true)
		rwg.Wait()

		if sn := kept.Load(); sn != nil {
			if err := sn.Validate(); err != nil {
				t.Fatalf("kept snapshot invalid after Close: %v", err)
			}
			if got := len(sn.Keys()); got != sn.Len() {
				t.Fatalf("kept snapshot inconsistent after Close: %d keys, Len %d", got, sn.Len())
			}
		}
		if fin.Len() != s.Len() || fin.Sum() != s.Sum() {
			t.Fatalf("post-Close snapshot = %d/%d, live %d/%d", fin.Len(), fin.Sum(), s.Len(), s.Sum())
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
