package persist

// Race coverage for the durability path: concurrent async ingest through
// the journaling writers, explicit Checkpoint calls racing the background
// checkpointer, snapshot captures, flushes, and a Close racing all of it —
// then a recovery pass that must reproduce the final state exactly.

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/shard"
	"repro/internal/workload"
)

func TestDurableIngestRace(t *testing.T) {
	const (
		shards  = 4
		writers = 4
		batches = 30
		size    = 400
	)
	dir := t.TempDir()
	opt := shard.Options{
		SyncEvery:              8,
		CheckpointEveryBatches: 16, // keep the background checkpointer busy
		MailboxDepth:           4,
	}
	s, _ := openSet(t, dir, shards, opt)

	// Each writer owns a disjoint key range, so the final state is exactly
	// the union regardless of interleaving.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(w) + 1)
			lo := uint64(w) << 40
			for i := 0; i < batches; i++ {
				keys := workload.Uniform(r, size, 39)
				for j := range keys {
					keys[j] |= lo + 1<<39
				}
				// Resend half the batch: the repeat filter must hand the
				// journal distinct sorted records all the same.
				keys = append(keys, keys[:size/2]...)
				if i%4 == 3 {
					s.InsertBatch(keys, false) // ticketed path
				} else {
					s.InsertBatchAsync(keys, false)
				}
				if i%5 == 4 {
					s.RemoveBatchAsync(keys[:size/4], false)
				}
			}
		}(w)
	}
	var aux sync.WaitGroup
	stop := make(chan struct{})
	aux.Add(2)
	go func() { // checkpoint hammer racing the background checkpointer
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // snapshot + stats readers
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sn := s.Snapshot()
				_ = sn.Len()
				_ = s.PersistStats()
				s.Flush()
			}
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	s.Flush()
	want := s.Keys()
	s.Close()

	s2, _ := openSet(t, dir, shards, opt)
	defer s2.Close()
	if err := s2.Validate(); err != nil {
		t.Fatalf("recovered set invalid: %v", err)
	}
	if !slices.Equal(want, s2.Keys()) {
		t.Fatalf("recovery diverged: %d keys before, %d after", len(want), s2.Len())
	}
}
