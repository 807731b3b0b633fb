package repl

// The differential replication harness: scripted ingest, checkpoints, and
// rebalancing on a durable primary, with links killed and revived at
// every step. The harness drains the primary's shippable stream into its
// own per-shard record history (before retention can delete it) and
// checks, after every kill, that each follower shard equals the replay of
// an exact prefix of that history at the follower's reported position —
// the replication contract, checked from first principles rather than by
// comparing against the follower's own machinery.

import (
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/workload"
)

// drainHist appends all newly sealed records for shard p to hist,
// asserting gap-free continuity from seq 1. Call after Flush and before
// Checkpoint, so retention never outruns the harness's cursor.
func drainHist(t *testing.T, st *persist.Store, p int, hist []persist.Rec) []persist.Rec {
	t.Helper()
	var last uint64
	if len(hist) > 0 {
		last = hist[len(hist)-1].Seq
	}
	frames, _, _, err := st.ReadShippable(nil, p, last, 0)
	if err != nil {
		t.Fatalf("harness drain shard %d after %d: %v", p, last, err)
	}
	recs, err := persist.DecodeRecs(frames)
	if err != nil {
		t.Fatalf("harness drain shard %d: %v", p, err)
	}
	for _, r := range recs {
		if r.Seq != last+1 {
			t.Fatalf("harness drain shard %d: gap after %d, got %d", p, last, r.Seq)
		}
		last = r.Seq
	}
	return append(hist, recs...)
}

// replayPrefix applies hist's records with Seq <= upto to an empty set
// and returns the resulting keys in ascending order.
func replayPrefix(hist []persist.Rec, upto uint64) []uint64 {
	m := make(map[uint64]struct{})
	for _, r := range hist {
		if r.Seq > upto {
			break
		}
		for _, k := range r.Keys {
			if r.Remove {
				delete(m, k)
			} else {
				m[k] = struct{}{}
			}
		}
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// verifyPrefix checks every follower shard's stored values against the
// replay of the harness history (records carry stored values) at the
// follower's own position. Call with the follower's link closed
// (positions frozen).
func verifyPrefix(t *testing.T, f *Follower, hist [][]persist.Rec, when string) {
	t.Helper()
	sets := f.Snapshot().ShardSets()
	for p, pos := range f.Positions() {
		if pos.Seq > uint64(len(hist[p])) {
			t.Fatalf("%s: follower shard %d at seq %d, history only holds %d", when, p, pos.Seq, len(hist[p]))
		}
		want := replayPrefix(hist[p], pos.Seq)
		got := sets[p].Keys()
		if !slices.Equal(want, got) {
			t.Fatalf("%s: follower shard %d at seq %d: %d keys, prefix replay has %d", when, p, pos.Seq, len(got), len(want))
		}
	}
}

// waitCaughtUp polls until every follower shard reaches the target
// sequence (the primary must be quiescent above it).
func waitCaughtUp(t *testing.T, f *Follower, target []uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for p, pos := range f.Positions() {
			if pos.Seq < target[p] {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %v, want %v", f.Positions(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

func seqTargets(st *persist.Store) []uint64 {
	positions := st.Positions()
	out := make([]uint64, len(positions))
	for p, q := range positions {
		out[p] = q.Seq
	}
	return out
}

func TestReplDifferential(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opt  shard.Options
	}{
		{"hash", shard.Options{SyncEvery: 1, CheckpointEveryBatches: -1, CompactEveryDeltas: -1}},
		{"range", shard.Options{
			Partition: shard.RangePartition, KeyBits: 24,
			SyncEvery: 1, CheckpointEveryBatches: -1, CompactEveryDeltas: -1,
		}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			const shards = 4
			opt := cfg.opt
			s, st, err := persist.OpenSharded(t.TempDir(), shards, &opt)
			if err != nil {
				t.Fatalf("OpenSharded: %v", err)
			}
			defer s.Close()
			pr, err := NewPrimary(s, st)
			if err != nil {
				t.Fatalf("NewPrimary: %v", err)
			}

			fopt := shard.Options{Partition: opt.Partition, KeyBits: opt.KeyBits}
			f1 := NewFollower(shards, &fopt)
			l1, err := Pair(pr, f1, nil)
			if err != nil {
				t.Fatalf("Pair: %v", err)
			}
			var f2 *Follower
			var l2 *Link

			r := workload.NewRNG(42)
			hist := make([][]persist.Rec, shards)
			var inserted []uint64
			f1Detached := false

			for round := 0; round < 10; round++ {
				// Ingest: uniform keys, plus (range config) skewed low-range
				// batches so RebalanceOnce has boundary moves to make.
				bits := 24
				if cfg.opt.Partition == shard.RangePartition && round%2 == 1 {
					bits = 20
				}
				keys := workload.Uniform(r, 1500, bits)
				s.InsertBatchAsync(keys, false)
				inserted = append(inserted, keys...)
				if len(inserted) > 3000 {
					dead := inserted[:1000]
					inserted = inserted[1000:]
					s.RemoveBatchAsync(dead, false)
				}
				s.Flush()
				for p := 0; p < shards; p++ {
					hist[p] = drainHist(t, st, p, hist[p])
				}

				if round%2 == 1 {
					if err := s.Checkpoint(); err != nil {
						t.Fatalf("Checkpoint: %v", err)
					}
				}
				if cfg.opt.Partition == shard.RangePartition && round%3 == 2 {
					s.RebalanceOnce()
					s.Flush()
					for p := 0; p < shards; p++ {
						hist[p] = drainHist(t, st, p, hist[p])
					}
				}

				// Mid-test follower churn: f2 joins late (bootstraps from the
				// checkpoint chain), f1 goes dark across base checkpoints and
				// must re-bootstrap on return (retention deleted its position).
				switch round {
				case 3:
					f2 = NewFollower(shards, &fopt)
					if l2, err = Pair(pr, f2, nil); err != nil {
						t.Fatalf("Pair f2: %v", err)
					}
				case 4:
					if err := l1.Close(); err != nil {
						t.Fatalf("l1.Close: %v", err)
					}
					verifyPrefix(t, f1, hist, "f1 going dark")
					f1Detached = true
				case 7:
					if l1, err = Pair(pr, f1, nil); err != nil {
						t.Fatalf("re-Pair f1: %v", err)
					}
					f1Detached = false
				}

				// The kill/reconnect loop proper: every round, stop the live
				// links, check the prefix invariant cold, revive.
				if !f1Detached {
					if err := l1.Close(); err != nil {
						t.Fatalf("round %d l1.Close: %v", round, err)
					}
					verifyPrefix(t, f1, hist, "f1 kill")
					if l1, err = Pair(pr, f1, nil); err != nil {
						t.Fatalf("round %d re-Pair f1: %v", round, err)
					}
				}
				if l2 != nil {
					if err := l2.Close(); err != nil {
						t.Fatalf("round %d l2.Close: %v", round, err)
					}
					verifyPrefix(t, f2, hist, "f2 kill")
					if l2, err = Pair(pr, f2, nil); err != nil {
						t.Fatalf("round %d re-Pair f2: %v", round, err)
					}
				}
			}

			// Final catch-up: quiescent primary, both followers converge to
			// the full history and to the primary's own per-shard state.
			s.Flush()
			for p := 0; p < shards; p++ {
				hist[p] = drainHist(t, st, p, hist[p])
			}
			target := seqTargets(st)
			for _, fl := range []*Follower{f1, f2} {
				waitCaughtUp(t, fl, target)
			}
			if err := l1.Close(); err != nil {
				t.Fatalf("final l1.Close: %v", err)
			}
			if err := l2.Close(); err != nil {
				t.Fatalf("final l2.Close: %v", err)
			}
			for _, fl := range []*Follower{f1, f2} {
				verifyPrefix(t, fl, hist, "final")
				for p := 0; p < shards; p++ {
					if !slices.Equal(s.ShardKeys(p), fl.Set().ShardKeys(p)) {
						t.Fatalf("final: follower shard %d differs from primary", p)
					}
				}
				if !slices.Equal(s.Keys(), fl.Set().Keys()) {
					t.Fatal("final: aggregate keys differ")
				}
			}
			if cfg.opt.Partition == shard.RangePartition {
				pg, pb := s.RouterBounds()
				for _, fl := range []*Follower{f1, f2} {
					fg, fb := fl.Set().RouterBounds()
					if fg != pg || !slices.Equal(fb, pb) {
						t.Fatalf("final bounds differ: follower gen %d %v, primary gen %d %v", fg, fb, pg, pb)
					}
				}
			}
			if f1.Stats().Bootstraps == 0 {
				t.Fatal("f1 never re-bootstrapped after its position was retired")
			}
			if f2.Stats().Bootstraps == 0 {
				t.Fatal("f2 joined after checkpoints but never bootstrapped")
			}
			if pr.ReplStats().Links != 0 {
				t.Fatalf("links leaked: %d", pr.ReplStats().Links)
			}
		})
	}
}

// TestReplRaceHammer runs ingest, checkpoints, link kill/revive, and
// follower snapshot readers concurrently — the -race target. Correctness
// gate: after quiescing and catching up, follower state equals primary
// state exactly.
func TestReplRaceHammer(t *testing.T) {
	const shards = 2
	opt := shard.Options{SyncEvery: 1, CheckpointEveryBatches: -1}
	s, st, err := persist.OpenSharded(t.TempDir(), shards, &opt)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer s.Close()
	pr, err := NewPrimary(s, st)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	f := NewFollower(shards, nil)
	l, err := Pair(pr, f, nil)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}

	stop := make(chan struct{})
	done := make(chan struct{}, 4)

	go func() { // ingest
		defer func() { done <- struct{}{} }()
		r := workload.NewRNG(7)
		for i := 0; i < 150; i++ {
			keys := workload.Uniform(r, 300, 22)
			s.InsertBatchAsync(keys, false)
			if i%3 == 2 {
				s.RemoveBatchAsync(keys[:100], false)
			}
			if i%10 == 9 {
				s.Flush()
			}
		}
	}()
	go func() { // checkpoints
		defer func() { done <- struct{}{} }()
		for i := 0; i < 10; i++ {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() { // follower snapshot + live readers
		defer func() { done <- struct{}{} }()
		r := workload.NewRNG(9)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := f.Snapshot()
			n := sn.Len()
			if keys := sn.Keys(); len(keys) != n {
				t.Errorf("snapshot Len %d vs %d keys", n, len(keys))
				return
			}
			f.Set().Has(r.Uint64() & ((1 << 22) - 1))
		}
	}()
	go func() { // link killer
		defer func() { done <- struct{}{} }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(5 * time.Millisecond)
			if err := l.Close(); err != nil {
				t.Errorf("Close: %v", err)
				return
			}
			var err error
			if l, err = Pair(pr, f, nil); err != nil {
				t.Errorf("re-Pair: %v", err)
				return
			}
		}
	}()

	<-done // ingest
	<-done // checkpoints
	close(stop)
	<-done
	<-done

	s.Flush()
	waitCaughtUp(t, f, seqTargets(st))
	if err := l.Close(); err != nil {
		t.Fatalf("final Close: %v", err)
	}
	for p := 0; p < shards; p++ {
		if !slices.Equal(s.ShardKeys(p), f.Set().ShardKeys(p)) {
			t.Fatalf("follower shard %d differs from primary after quiesce", p)
		}
	}
}

// TestSocketReplication drives the wire transport end to end on a range
// partition: bootstrap over the socket from a checkpoint chain, bounds
// frames from a live rebalance, a kill mid-stream, and a reconnect that
// resumes from the follower's positions.
func TestSocketReplication(t *testing.T) {
	const shards = 4
	opt := shard.Options{
		Partition: shard.RangePartition, KeyBits: 24,
		SyncEvery: 1, CheckpointEveryBatches: -1, CompactEveryDeltas: -1,
	}
	s, st, err := persist.OpenSharded(t.TempDir(), shards, &opt)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer s.Close()
	pr, err := NewPrimary(s, st)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go Serve(ln, pr, nil)
	addr := ln.Addr().String()

	// History before the follower exists, sealed into a base checkpoint:
	// the first connection must bootstrap, not replay from scratch.
	r := workload.NewRNG(11)
	s.InsertBatchAsync(workload.Uniform(r, 4000, 20), false) // skewed low
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	fopt := shard.Options{Partition: shard.RangePartition, KeyBits: 24}
	f := NewFollower(shards, &fopt)
	c, err := Dial(addr, f)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	waitCaughtUp(t, f, seqTargets(st))
	if f.Stats().Bootstraps == 0 {
		t.Fatal("fresh follower with a checkpoint chain available did not bootstrap")
	}

	// Kill mid-stream, mutate (including a boundary move), reconnect:
	// resume-from-position, no second bootstrap.
	if err := c.Close(); err != nil {
		t.Fatalf("Conn.Close: %v", err)
	}
	s.InsertBatchAsync(workload.Uniform(r, 4000, 24), false)
	s.RemoveBatchAsync(workload.Uniform(r, 500, 20), false)
	s.Flush()
	s.RebalanceOnce()
	s.Flush()
	bootsBefore := f.Stats().Bootstraps

	c, err = Dial(addr, f)
	if err != nil {
		t.Fatalf("re-Dial: %v", err)
	}
	defer c.Close()
	waitCaughtUp(t, f, seqTargets(st))
	deadline := time.Now().Add(5 * time.Second)
	for {
		fg, _ := f.Set().RouterBounds()
		pg, _ := s.RouterBounds()
		if fg == pg {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bounds gen stuck: follower %d, primary %d", fg, pg)
		}
		time.Sleep(time.Millisecond)
	}
	if f.Stats().Bootstraps != bootsBefore {
		t.Fatal("reconnect re-bootstrapped instead of resuming from position")
	}
	for p := 0; p < shards; p++ {
		if !slices.Equal(s.ShardKeys(p), f.Set().ShardKeys(p)) {
			t.Fatalf("follower shard %d differs from primary over the socket", p)
		}
	}
	pg, pb := s.RouterBounds()
	fg, fb := f.Set().RouterBounds()
	if fg != pg || !slices.Equal(fb, pb) {
		t.Fatalf("bounds differ over socket: follower gen %d, primary gen %d", fg, pg)
	}
}

// TestLinkExclusivityAndGeometry: one link per follower, and geometry
// mismatches are rejected at attach time (Pair) or by the primary's hello
// check (Dial).
func TestLinkExclusivityAndGeometry(t *testing.T) {
	opt := shard.Options{SyncEvery: 1}
	s, st, err := persist.OpenSharded(t.TempDir(), 2, &opt)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer s.Close()
	pr, err := NewPrimary(s, st)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}

	f := NewFollower(2, nil)
	l, err := Pair(pr, f, nil)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	if _, err := Pair(pr, f, nil); err == nil {
		t.Fatal("second Pair on an attached follower succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := Pair(pr, NewFollower(3, nil), nil); err == nil {
		t.Fatal("Pair accepted a shard-count mismatch")
	}
	if _, err := Pair(pr, NewFollower(2, &shard.Options{Partition: shard.RangePartition, KeyBits: 24}), nil); err == nil {
		t.Fatal("Pair accepted a partition-policy mismatch")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go Serve(ln, pr, nil)
	bad := NewFollower(3, nil)
	c, err := Dial(ln.Addr().String(), bad)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("primary kept a geometry-mismatched connection open")
	}
	if c.Err() == nil {
		t.Fatal("mismatched connection ended without an error")
	}
	c.Close()
	if bad.Set().Len() != 0 {
		t.Fatal("rejected follower received state")
	}
}

// TestFollowerMergesRuns: a shipment applies each run of adjacent records
// that move keys the same way — barriers included — as one merged batch.
// The replica's ingest counters then read as on the primary
// (EnqueuedBatches counts records, AppliedBatches merged applies), while
// FollowerStats counts records and keys.
func TestFollowerMergesRuns(t *testing.T) {
	f := NewFollower(1, nil)
	if err := f.applyRecs(0, []persist.Rec{
		{Seq: 1, Keys: []uint64{5, 9}},
		{Seq: 2, Keys: []uint64{3, 9}},
		{Seq: 3, Gen: 1, Keys: []uint64{12}},
		{Seq: 4, Remove: true, Keys: []uint64{9}},
		{Seq: 5, Remove: true, Gen: 2, Keys: []uint64{3}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := f.Snapshot().ShardSets()[0].Keys(); !slices.Equal(got, []uint64{5, 12}) {
		t.Fatalf("follower holds %v", got)
	}
	if pos := f.Positions()[0].Seq; pos != 5 {
		t.Fatalf("position %d, want 5", pos)
	}
	if st := f.Set().IngestStats(); st != (shard.IngestStats{EnqueuedBatches: 5, EnqueuedKeys: 7, AppliedBatches: 2, AppliedKeys: 7}) {
		t.Fatalf("ingest stats %+v", st)
	}
	if st := f.Stats(); st.AppliedRecords != 5 || st.AppliedKeys != 7 {
		t.Fatalf("follower stats %+v", st)
	}
}

// TestZeroLagMeansApplied: for both ways of linking, repl_lag_records
// counts sealed records the follower has not acknowledged applying, so
// once it reads 0 every follower shard already equals the primary's —
// the catch-up condition the durable-ingest benchmark waits on. The
// primary has a checkpoint before the follower links, so the follower
// bootstraps and then replays the records past it. A clean Close returns
// nil and leaves Err nil, and the primary stops counting the link.
func TestZeroLagMeansApplied(t *testing.T) {
	for _, transport := range []string{"pair", "dial"} {
		t.Run(transport, func(t *testing.T) {
			const shards = 4
			opt := shard.Options{SyncEvery: 1, CheckpointEveryBatches: -1, CompactEveryDeltas: -1}
			s, st, err := persist.OpenSharded(t.TempDir(), shards, &opt)
			if err != nil {
				t.Fatalf("OpenSharded: %v", err)
			}
			defer s.Close()
			pr, err := NewPrimary(s, st)
			if err != nil {
				t.Fatalf("NewPrimary: %v", err)
			}
			reg := obs.NewRegistry("lag")
			pr.RegisterMetrics(reg, "repl")
			gauge := func(name string) float64 {
				for _, sm := range reg.Gather() {
					if sm.Name == name {
						return sm.Value
					}
				}
				t.Fatalf("metric %s not registered", name)
				return 0
			}

			r := workload.NewRNG(5)
			for i := 0; i < 4; i++ {
				s.InsertBatchAsync(workload.Uniform(r, 3000, 24), false)
			}
			s.Flush()
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			for i := 0; i < 4; i++ {
				keys := workload.Uniform(r, 3000, 24)
				s.InsertBatchAsync(keys, false)
				s.RemoveBatchAsync(keys[:500], false)
			}
			s.Flush()

			f := NewFollower(shards, nil)
			var l *Link
			if transport == "pair" {
				l, err = Pair(pr, f, nil)
			} else {
				ln, lerr := net.Listen("tcp", "127.0.0.1:0")
				if lerr != nil {
					t.Fatalf("Listen: %v", lerr)
				}
				defer ln.Close()
				go Serve(ln, pr, nil)
				l, err = Dial(ln.Addr().String(), f)
			}
			if err != nil {
				t.Fatalf("link: %v", err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for gauge("repl_links") != 1 || gauge("repl_lag_records") != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("links %v, lag %v records", gauge("repl_links"), gauge("repl_lag_records"))
				}
				time.Sleep(time.Millisecond)
			}
			for p := 0; p < shards; p++ {
				if !slices.Equal(s.ShardKeys(p), f.Set().ShardKeys(p)) {
					t.Fatalf("lag reads 0 but follower shard %d differs from the primary", p)
				}
			}
			if f.Stats().Bootstraps == 0 {
				t.Fatal("follower linked after a checkpoint did not bootstrap")
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := l.Err(); err != nil {
				t.Fatalf("Err after a clean Close: %v", err)
			}
			for gauge("repl_links") != 0 {
				if transport == "pair" || time.Now().After(deadline) {
					t.Fatalf("primary still counts %v links after Close", gauge("repl_links"))
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
