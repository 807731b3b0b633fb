package persist

// Durability tests for live span rebalancing: the journaled barrier
// protocol (dest moveIn record -> BOUNDS table -> source moveOut record,
// each forced to disk in turn) must make every crash point recover to
// exactly the pre- or post-move state, and a clean reopen must restart
// the set with the journaled boundary table.

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/shard"
	"repro/internal/workload"
)

// seqKeys returns the sorted keys [1, n] — maximal range-partition skew:
// every key lands in shard 0's default span when n is far below the key
// space.
func seqKeys(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i) + 1
	}
	return out
}

// TestRebalanceDurableReopen: ingest a skewed stream, rebalance, ingest
// more (routed by the moved boundaries), close; a clean reopen must
// restore the exact contents AND the journaled boundary table, and new
// rebalances must continue the journaled generation sequence.
func TestRebalanceDurableReopen(t *testing.T) {
	const shards, keyBits = 3, 14
	dir := t.TempDir()
	opt := shard.Options{
		Partition: shard.RangePartition, KeyBits: keyBits,
		SyncEvery: 1, CheckpointEveryBatches: -1,
	}
	s, _ := openSet(t, dir, shards, opt)
	s.InsertBatch(seqKeys(3000), true)
	s.Flush()
	if moves := s.RebalanceOnce(); moves == 0 {
		t.Fatal("no rebalance on a fully skewed ingest")
	}
	bounds := s.Bounds()
	gen := s.RebalanceStats().Gen
	if gen == 0 || !slices.IsSorted(bounds) {
		t.Fatalf("bad rebalance state: gen %d bounds %v", gen, bounds)
	}
	// Post-move ingest exercises routing against the moved boundaries.
	extra := workload.Uniform(workload.NewRNG(9), 2000, keyBits)
	s.InsertBatch(extra, false)
	s.Flush()
	want := s.Keys()
	st1 := s.PersistStats()
	if st1.MoveRecords == 0 || st1.MovedKeys == 0 {
		t.Fatalf("move barriers not journaled: %+v", st1)
	}
	s.Close()

	s2, store2 := openSet(t, dir, shards, opt)
	if !slices.Equal(s2.Keys(), want) {
		t.Fatal("reopen lost data across a rebalance")
	}
	if !slices.Equal(s2.Bounds(), bounds) {
		t.Fatalf("reopen lost the boundary table: %v vs %v", s2.Bounds(), bounds)
	}
	if got := s2.RebalanceStats().Gen; got != gen {
		t.Fatalf("reopen lost the router generation: %d vs %d", got, gen)
	}
	if rb, rg := store2.Bounds(); !slices.Equal(rb, bounds) || rg != gen {
		t.Fatalf("store bounds %v gen %d, want %v gen %d", rb, rg, bounds, gen)
	}
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
	// New moves continue the journaled generation sequence.
	s2.InsertBatch(seqKeys(6000), true)
	s2.Flush()
	if s2.RebalanceOnce() > 0 {
		if got := s2.RebalanceStats().Gen; got <= gen {
			t.Fatalf("generation went backwards after reopen: %d <= %d", got, gen)
		}
	}
	s2.Close()

	// A contradictory explicit seed table is a geometry error.
	bad := opt
	bad.Bounds = shard.DefaultBounds(keyBits, shards)
	if _, _, err := OpenSharded(dir, shards, &bad); err == nil {
		t.Fatal("open with a contradicting Options.Bounds must fail")
	}
}

// TestRebalanceKillPoints is the kill-point crash harness for the barrier
// protocol. It runs a fully skewed ingest plus one rebalance to
// completion, then reconstructs every crash state the protocol's fsync
// ordering permits — byte-granular truncations of the destination's
// moveIn record with the boundary table rolled back and the source record
// absent (a crash in step 1 or between steps 1 and 2), and byte-granular
// truncations of the source's moveOut record with the new table durable
// (a crash in step 3 or between steps 2 and 3) — and requires recovery to
// restore the exact global key set with every shard span-consistent under
// the recovered table.
func TestRebalanceKillPoints(t *testing.T) {
	const shards, keyBits, n = 2, 14, 1500
	base := t.TempDir()
	opt := shard.Options{
		Partition: shard.RangePartition, KeyBits: keyBits,
		SyncEvery: 1, CheckpointEveryBatches: -1,
	}
	model := seqKeys(n) // all inside shard 0's default span [0, 8192)
	s, _ := openSet(t, base, shards, opt)
	for lo := 0; lo < n; lo += 250 {
		s.InsertBatch(model[lo:lo+250], true)
	}
	s.Flush()
	if moves := s.RebalanceOnce(); moves != 1 {
		t.Fatalf("want exactly one boundary move, got %d", moves)
	}
	newBounds := s.Bounds()
	s.Close()

	// Locate the barrier records. The move went 0 -> 1: shard 1's log is
	// its moveIn record alone, shard 0's log ends with its moveOut record.
	findBarrier := func(p int, remove bool) Rec {
		t.Helper()
		segs, err := segFiles.list(filepath.Join(base, shardDirName(p)))
		if err != nil || len(segs) == 0 {
			t.Fatalf("shard %d: no segments (%v)", p, err)
		}
		for _, fs := range segs {
			recs, _, ok, err := scanSegment(filepath.Join(base, shardDirName(p), segFiles.name(fs)), p)
			if err != nil || !ok {
				t.Fatalf("shard %d: scan failed: %v", p, err)
			}
			for _, rec := range recs {
				if rec.Gen != 0 && rec.Remove == remove {
					return rec
				}
			}
		}
		t.Fatalf("shard %d: no barrier record (remove %v)", p, remove)
		return Rec{}
	}
	moveIn := findBarrier(1, false)
	moveOut := findBarrier(0, true)
	if moveIn.Gen != 1 || moveOut.Gen != 1 || !slices.Equal(moveIn.Keys, moveOut.Keys) {
		t.Fatalf("barrier records inconsistent: in gen %d out gen %d", moveIn.Gen, moveOut.Gen)
	}

	// recoverAndCheck opens the damaged copy and verifies: exact global
	// contents, span consistency under the recovered table, structural
	// health.
	recoverAndCheck := func(killDir, label string, wantBounds []uint64) {
		t.Helper()
		st, sets, err := Open(killDir, shards, opt)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		defer st.Close()
		gotBounds, _ := st.Bounds()
		if gotBounds == nil {
			gotBounds = shard.DefaultBounds(keyBits, shards)
		}
		if wantBounds != nil && !slices.Equal(gotBounds, wantBounds) {
			t.Fatalf("%s: recovered bounds %v, want %v", label, gotBounds, wantBounds)
		}
		var global []uint64
		for p, set := range sets {
			if err := set.Validate(); err != nil {
				t.Fatalf("%s: shard %d invalid: %v", label, p, err)
			}
			keys := cpmaKeys(set)
			// Span consistency: shard p only holds keys it owns.
			var lo, hi uint64
			if p > 0 {
				lo = gotBounds[p-1]
			}
			hi = ^uint64(0)
			if p < shards-1 {
				hi = gotBounds[p]
			}
			for _, k := range keys {
				if k < lo || (p < shards-1 && k >= hi) {
					t.Fatalf("%s: shard %d holds out-of-span key %d (span [%d,%d))", label, p, k, lo, hi)
				}
			}
			global = append(global, keys...)
		}
		slices.Sort(global)
		if !slices.Equal(global, model) {
			t.Fatalf("%s: recovered %d keys, want %d (a pure rebalance never changes contents)",
				label, len(global), len(model))
		}
	}

	copyStore := func() string {
		t.Helper()
		killDir := filepath.Join(t.TempDir(), "kill")
		if err := os.CopyFS(killDir, os.DirFS(base)); err != nil {
			t.Fatal(err)
		}
		return killDir
	}
	shard0Log := func(dir string) string {
		segs, err := segFiles.list(filepath.Join(dir, shardDirName(0)))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no shard 0 segments: %v", err)
		}
		// The moveOut landed in the newest segment.
		return filepath.Join(dir, shardDirName(0), segFiles.name(segs[len(segs)-1]))
	}
	shard1Log := func(dir string) string {
		segs, err := segFiles.list(filepath.Join(dir, shardDirName(1)))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no shard 1 segments: %v", err)
		}
		return filepath.Join(dir, shardDirName(1), segFiles.name(segs[0]))
	}

	// Crash in step 1 (or between 1 and 2): the destination's moveIn is
	// torn at every byte, the boundary table is still the implicit
	// default, and the source's moveOut was never appended.
	for cutAt := int64(0); cutAt <= moveIn.end; cutAt++ {
		killDir := copyStore()
		if err := os.Truncate(shard1Log(killDir), cutAt); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(killDir, boundsName)); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(shard0Log(killDir), moveOut.start); err != nil {
			t.Fatal(err)
		}
		recoverAndCheck(killDir, "step1", nil)
	}

	// Crash in step 3 (or between 2 and 3): the new table and the
	// destination's record are durable; the source's moveOut is torn at
	// every byte.
	for cutAt := moveOut.start; cutAt <= moveOut.end; cutAt++ {
		killDir := copyStore()
		if err := os.Truncate(shard0Log(killDir), cutAt); err != nil {
			t.Fatal(err)
		}
		recoverAndCheck(killDir, "step3", newBounds)
	}
}
