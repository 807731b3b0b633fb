package repl

import (
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestStatsScrapeRace is the observability race hammer: a durable,
// rebalancing, hot-key set with a live replication link, scraped
// continuously — Prometheus text, JSON statz, trace dumps, pipeline
// latency snapshots, and every raw *Stats accessor — while clients
// ingest, the rebalancer moves boundaries, and checkpoints run. Any
// non-atomic multi-field read in a stats path surfaces here under -race
// (the CI race job runs it). It lives in repl rather than shard because
// only this package can see every layer's registry at once.
func TestStatsScrapeRace(t *testing.T) {
	opt := shard.Options{
		Partition: shard.RangePartition,
		KeyBits:   20,
		HotKeys:   true,
		SyncEvery: 8,
		// Manual checkpoints only: the hammer drives its own cadence.
		CheckpointEveryBatches: -1,
		CompactEveryDeltas:     -1,
		Dir:                    t.TempDir(),
	}
	const shards = 4
	s, st, err := persist.OpenSharded(shards, &opt)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer s.Close()
	pr, err := NewPrimary(s, st)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	f := NewFollower(shards, &shard.Options{Partition: opt.Partition, KeyBits: opt.KeyBits})
	l, err := Pair(pr, f, nil)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	defer l.Close()

	reg := obs.NewRegistry("hammer")
	s.RegisterMetrics(reg, "cpma")
	pr.RegisterMetrics(reg, "cpma_repl")
	f.RegisterMetrics(reg, "cpma_follower")
	srv := obs.NewServer(reg)
	srv.AddTrace("primary", s.Trace())

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Ingest: skewed clients (half the traffic on a handful of keys, so
	// the absorber promotes) plus disjoint uniform churn.
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := workload.NewRNG(seed)
			hot := []uint64{77, 177, 1 << 18, 3 << 17}
			for {
				select {
				case <-stop:
					return
				default:
				}
				keys := workload.Uniform(r, 400, 20)
				for i := 0; i < 200; i++ {
					keys = append(keys, hot[i%len(hot)])
				}
				s.InsertBatchAsync(keys, false)
			}
		}(uint64(c + 1))
	}

	// Structural churn: boundary moves and checkpoints.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.RebalanceOnce()
			if i%3 == 0 {
				if err := s.Checkpoint(); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Scrapers: every exported read path, concurrently and repeatedly.
	scrape := []func(){
		func() { reg.WriteProm(io.Discard) },
		func() { reg.WriteStatz(io.Discard) },
		func() { s.Trace().Events() },
		func() { s.PipelineLatencies() },
		func() { st.Latencies() },
		func() { _ = s.IngestStats() },
		func() { _ = s.SnapshotStats() },
		func() { _ = s.RebalanceStats() },
		func() { _ = s.PersistStats() },
		func() { _ = pr.ReplStats() },
		func() { _ = f.Stats() },
		func() { _ = pr.ShipLatency() },
		func() { _ = f.ApplyLatency() },
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				scrape[(i+w)%len(scrape)]()
			}
		}(w)
	}

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Flush()

	// The scrape surface must also be coherent after the dust settles:
	// drains happened, so the drain histogram is populated and statz
	// renders it.
	lat := s.PipelineLatencies()
	if lat.Drain.Count == 0 {
		t.Fatalf("drain histogram empty after ingest")
	}
	if lat.Coalesce.Count == 0 {
		t.Fatalf("coalesce histogram empty after ingest")
	}
	if st.Latencies().Fsync.Count == 0 {
		t.Fatalf("fsync histogram empty on a durable set")
	}
}
