// Acceptance gates: ratios the sharded, durable and replicated pipeline
// must keep, each measured at a small fixed shape and held to the threshold
// it was accepted at. Every run of the suite holds them, at each -cpu
// value and under the race detector, where the two timing ratios keep a
// wide margin (on 2 vCPUs: skewed ingest 14-27x at -cpu 1,2,4 and 31-35x
// under -race against 5x, follower fleet 3.0-4.5x against 2x). To run only
// the gates:
//
//	go test -count=1 -run '^TestGate' .
package repro_test

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestGateSkewedIngest holds skewed ingest to >= 5x a uniform stream of the
// same shape. Neither hashing nor rebalancing spreads a single hot key: all
// of its traffic routes to one shard's writer. What keeps such a stream fast
// is that a batch insert is a set union, so the enqueue-side repeat filter
// drops each batch's repeated keys before the sort. The power law is
// unscrambled (s=2.5), whose hottest keys dominate the stream. Both streams
// must land exactly the distinct keys sent.
func TestGateSkewedIngest(t *testing.T) {
	const (
		bits    = 30
		seed    = 42
		minGain = 5.0
	)
	powerLaw := ingestRate(t, func(c int) func(n int) []uint64 {
		z := workload.NewPowerLaw(workload.NewRNG(seed+uint64(c)+1), bits, 2.5, false)
		return func(n int) []uint64 { return workload.PowerLawBatch(z, n) }
	})
	uniform := ingestRate(t, func(c int) func(n int) []uint64 {
		r := workload.NewRNG(seed + uint64(c) + 201)
		return func(n int) []uint64 { return workload.Uniform(r, n, bits) }
	})
	gain := powerLaw / uniform
	t.Logf("power-law %.3g keys/s, uniform %.3g keys/s: %.1fx (gate %.0fx)", powerLaw, uniform, gain, minGain)
	if gain < minGain {
		t.Fatalf("power-law ingest is %.1fx the uniform stream, below %.0fx", gain, minGain)
	}
}

// ingestRate streams 60k keys in 2000-key batches from 4 client
// goroutines, client c drawing from stream(c), into a 4-shard
// hash-partitioned set through the async pipeline, and returns the best of
// three timed trials in keys/s. The first half of every client's batches
// is untimed warmup. Each trial re-streams the second half 16 times:
// re-inserting keys is idempotent, and a skewed half alone drains in
// milliseconds, too short to dwarf the fixed cost of the final Flush and
// the goroutine spin-up.
func ingestRate(t *testing.T, stream func(c int) func(n int) []uint64) float64 {
	t.Helper()
	const (
		shards, clients = 4, 4
		totalKeys       = 60_000
		batch           = 2000
		trials, reps    = 3, 16
	)
	perClient := totalKeys / clients
	batches := make([][][]uint64, clients)
	model := map[uint64]bool{}
	for c := range batches {
		next := stream(c)
		for sent := 0; sent < perClient; sent += batch {
			b := next(min(batch, perClient-sent))
			batches[c] = append(batches[c], b)
			for _, k := range b {
				model[k] = true
			}
		}
	}

	s := shard.New(shards, nil)
	defer s.Close()
	run := func(half func([][]uint64) [][]uint64) {
		var wg sync.WaitGroup
		for c := range batches {
			wg.Add(1)
			go func(bs [][]uint64) {
				defer wg.Done()
				for _, b := range bs {
					s.InsertBatchAsync(b, false)
				}
			}(half(batches[c]))
		}
		wg.Wait()
		s.Flush()
	}
	first := func(bs [][]uint64) [][]uint64 { return bs[:len(bs)/2] }
	second := func(bs [][]uint64) [][]uint64 { return bs[len(bs)/2:] }
	run(first)
	timed := 0
	for c := range batches {
		for _, b := range second(batches[c]) {
			timed += len(b)
		}
	}
	var best float64
	for range trials {
		start := time.Now()
		for range reps {
			run(second)
		}
		best = max(best, float64(timed*reps)/time.Since(start).Seconds())
	}

	want := make([]uint64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	slices.Sort(want)
	if !slices.Equal(s.Keys(), want) {
		t.Fatalf("set holds %d keys, the stream has %d distinct", s.Len(), len(want))
	}
	if st := s.IngestStats(); st.AppliedKeys != st.EnqueuedKeys {
		t.Fatalf("applied %d of %d enqueued keys", st.AppliedKeys, st.EnqueuedKeys)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return best
}

// TestGateFollowerFleet holds the snapshot-read capacity of a primary plus
// three WAL-shipping followers to >= 2x the primary alone. Capacity is the
// sum of per-node rates, each measured while every other node idles: the
// capacity model for replicas on their own machines. All nodes here share
// one process, so loading them at once would only split its cores.
func TestGateFollowerFleet(t *testing.T) {
	const (
		shards    = 4
		preload   = 5_000
		followers = 3
		readers   = 2
		bits      = 30
		seed      = 42
		minGain   = 2.0
	)
	s, st, err := persist.OpenSharded(t.TempDir(), shards, &shard.Options{
		SyncEvery:              64,
		CheckpointEveryBatches: -1,
		CompactEveryDeltas:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.InsertBatchAsync(workload.Uniform(workload.NewRNG(seed), preload, bits), false)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Keys()
	pr, err := repl.NewPrimary(s, st)
	if err != nil {
		t.Fatal(err)
	}
	primaryOnly := snapshotReadRate(s, readers, bits, seed)

	nodes := []*shard.Sharded{s}
	var fs []*repl.Follower
	for range followers {
		f := repl.NewFollower(shards, nil)
		l, err := repl.Pair(pr, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		fs = append(fs, f)
		nodes = append(nodes, f.Set())
	}
	target := st.Positions()
	deadline := time.Now().Add(60 * time.Second)
	for _, f := range fs {
		for p := 0; p < shards; p++ {
			for f.Positions()[p].Seq < target[p].Seq {
				if time.Now().After(deadline) {
					t.Fatalf("follower stuck at %v, primary at %v", f.Positions(), target)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if got := f.Set().Keys(); !slices.Equal(got, want) {
			t.Fatalf("caught-up follower holds %d keys, primary %d", len(got), len(want))
		}
	}

	var fleet float64
	for i, node := range nodes {
		fleet += snapshotReadRate(node, readers, bits, seed+uint64(i))
	}
	gain := fleet / primaryOnly
	t.Logf("primary alone %.3g reads/s, primary + %d followers %.3g reads/s: %.2fx (gate %.0fx)",
		primaryOnly, followers, fleet, gain, minGain)
	if gain < minGain {
		t.Fatalf("fleet read capacity is %.2fx the primary alone, below %.0fx", gain, minGain)
	}
}

// snapshotReadRate runs `readers` goroutines of snapshot point lookups of
// uniform bits-bit keys against one node for 150 ms and returns lookups
// per second.
func snapshotReadRate(node *shard.Sharded, readers, bits int, seed uint64) float64 {
	const window = 150 * time.Millisecond
	var ops atomic.Int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func(r *workload.RNG) {
			defer wg.Done()
			mask := uint64(1)<<bits - 1
			var n int64
			for time.Now().Before(deadline) {
				sn := node.Snapshot()
				for range 512 {
					sn.Has(r.Uint64() & mask)
				}
				n += 512
			}
			ops.Add(n)
		}(workload.NewRNG(seed + uint64(i)*7919))
	}
	wg.Wait()
	return float64(ops.Load()) / window.Seconds()
}

// TestGateCloneCost holds clustered drains (contiguous key runs, the
// monotone-ID shape) to >= 2x cheaper than full copies, both for the bytes
// a snapshot publication clones and for the bytes a checkpoint writes. A
// durable shard of 100k keys takes 16 drains of 256 keys, each published
// and checkpointed. The baselines are a deep copy of the set per
// publication and one base checkpoint (every non-empty leaf) per
// checkpoint.
func TestGateCloneCost(t *testing.T) {
	const (
		keys     = 100_000
		rounds   = 16
		batch    = 256
		seed     = 42
		minRatio = 2.0
	)
	s, _, err := persist.OpenSharded(t.TempDir(), 1, &shard.Options{
		CheckpointEveryBatches: -1, // one explicit checkpoint per drain
		CompactEveryDeltas:     64, // no compaction inside the window
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := workload.NewRNG(seed)
	s.InsertBatch(workload.Uniform(r, keys, workload.UniformBits), false)
	if err := s.Checkpoint(); err != nil { // the base the deltas chain to
		t.Fatal(err)
	}
	ss0, ps0 := s.SnapshotStats(), s.PersistStats()
	fullBase := ps0.CheckpointBytes

	for range rounds {
		base := 1 + r.Uint64()%(uint64(1)<<workload.UniformBits-batch-1)
		run := make([]uint64, batch)
		for i := range run {
			run[i] = base + uint64(i)
		}
		s.InsertBatch(run, true)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	ss, ps := s.SnapshotStats(), s.PersistStats()
	cloned, fullCopies := ss.CloneBytes-ss0.CloneBytes, ss.FullCopyBytes-ss0.FullCopyBytes
	events := (ps.Checkpoints - ps0.Checkpoints) + (ps.DeltaCheckpoints - ps0.DeltaCheckpoints)
	written := (ps.CheckpointBytes + ps.DeltaBytes) - (ps0.CheckpointBytes + ps0.DeltaBytes)
	if ss.Publishes == ss0.Publishes || cloned == 0 || events == 0 || written == 0 {
		t.Fatalf("nothing measured: %d publishes cloning %d B, %d checkpoints writing %d B",
			ss.Publishes-ss0.Publishes, cloned, events, written)
	}
	cloneRatio := float64(fullCopies) / float64(cloned)
	ckptRatio := float64(events*fullBase) / float64(written)
	t.Logf("clone %.1fx cheaper (%d of %d B), checkpoint %.1fx cheaper (%d of %d B); gate %.0fx",
		cloneRatio, cloned, fullCopies, ckptRatio, written, events*fullBase, minRatio)
	if cloneRatio < minRatio || ckptRatio < minRatio {
		t.Fatalf("clustered drains: clone %.1fx, checkpoint %.1fx cheaper than full copies, below %.0fx",
			cloneRatio, ckptRatio, minRatio)
	}
}
