package persist

// Durability tests for live span rebalancing: the journaled barrier
// protocol (dest moveIn record -> BOUNDS table -> source moveOut record,
// each forced to disk in turn) must make every crash point recover to
// exactly the pre- or post-move state, and a clean reopen must restart
// the set with the journaled boundary table.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	bad.Dir = dir
	bad.Bounds = shard.DefaultBounds(keyBits, shards)
	if _, _, err := OpenSharded(shards, &bad); err == nil {
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
	popt := Options{
		Shards: shards, SyncEvery: 1, CheckpointEveryBatches: -1,
		Partition: shard.RangePartition, KeyBits: keyBits,
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
	findBarrier := func(p int, kind byte) walRecord {
		t.Helper()
		segs, err := listSeqFiles(filepath.Join(base, shardDirName(p)), "wal-", ".log")
		if err != nil || len(segs) == 0 {
			t.Fatalf("shard %d: no segments (%v)", p, err)
		}
		for _, fs := range segs {
			recs, _, ok, err := scanSegment(filepath.Join(base, shardDirName(p), segmentName(fs)), p)
			if err != nil || !ok {
				t.Fatalf("shard %d: scan failed: %v", p, err)
			}
			for _, rec := range recs {
				if rec.kind == kind {
					return rec
				}
			}
		}
		t.Fatalf("shard %d: no record of kind %d", p, kind)
		return walRecord{}
	}
	moveIn := findBarrier(1, recMoveIn)
	moveOut := findBarrier(0, recMoveOut)
	if moveIn.gen != 1 || moveOut.gen != 1 || !slices.Equal(moveIn.keys, moveOut.keys) {
		t.Fatalf("barrier records inconsistent: in gen %d out gen %d", moveIn.gen, moveOut.gen)
	}

	// recoverAndCheck opens the damaged copy and verifies: exact global
	// contents, span consistency under the recovered table, structural
	// health.
	recoverAndCheck := func(killDir, label string, wantBounds []uint64) {
		t.Helper()
		p2 := popt
		p2.Dir = killDir
		st, sets, err := Open(p2)
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
		segs, err := listSeqFiles(filepath.Join(dir, shardDirName(0)), "wal-", ".log")
		if err != nil || len(segs) == 0 {
			t.Fatalf("no shard 0 segments: %v", err)
		}
		// The moveOut landed in the newest segment.
		return filepath.Join(dir, shardDirName(0), segmentName(segs[len(segs)-1]))
	}
	shard1Log := func(dir string) string {
		segs, err := listSeqFiles(filepath.Join(dir, shardDirName(1)), "wal-", ".log")
		if err != nil || len(segs) == 0 {
			t.Fatalf("no shard 1 segments: %v", err)
		}
		return filepath.Join(dir, shardDirName(1), segmentName(segs[0]))
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

// TestManifestVersionCompat: version-1 manifests (pre-rebalancing stores)
// still open when the geometry matches — and are upgraded to the current
// version, so a binary from before rebalancing refuses the store instead
// of silently discarding the version-2 WAL segments this binary writes;
// unknown future versions are rejected.
func TestManifestVersionCompat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName),
		[]byte(`{"version":1,"shards":2,"partition":"range","key_bits":16}`), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := Options{Dir: dir, Shards: 2, Partition: shard.RangePartition, KeyBits: 16}
	st, sets, err := Open(opt)
	if err != nil {
		t.Fatalf("v1 manifest rejected: %v", err)
	}
	if len(sets) != 2 {
		t.Fatalf("recovered %d shards", len(sets))
	}
	st.Close()
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != manifestVersion {
		t.Fatalf("v1 manifest not upgraded: version %d", m.Version)
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, manifestName),
		[]byte(`{"version":99,"shards":2,"partition":"range","key_bits":16}`), 0o644); err != nil {
		t.Fatal(err)
	}
	opt.Dir = dir2
	if _, _, err := Open(opt); err == nil {
		t.Fatal("future manifest version accepted")
	}
}

// TestManifestHashLayoutGuard: a multi-shard hash store below manifest
// version 3 holds whole keys where this build stores quotients, so it is
// refused with an error naming the layout, and the refusal leaves its
// manifest alone. Range stores of versions 1 and 2 (and a single-shard
// hash store, whose layout never changed) still open and are upgraded; a
// fresh hash store is written at version 3.
func TestManifestHashLayoutGuard(t *testing.T) {
	write := func(body string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	version := func(dir string) int {
		blob, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		return m.Version
	}

	for _, v := range []int{1, 2} {
		dir := write(fmt.Sprintf(`{"version":%d,"shards":4,"partition":"hash","key_bits":64}`, v))
		_, _, err := Open(Options{Dir: dir, Shards: 4, Partition: shard.HashPartition, KeyBits: 64})
		if err == nil || !strings.Contains(err.Error(), "hash shards store whole keys") {
			t.Fatalf("v%d hash store: got %v, want a refusal naming the layout", v, err)
		}
		if got := version(dir); got != v {
			t.Fatalf("v%d hash store: refused manifest rewritten to version %d", v, got)
		}
	}

	for _, tc := range []struct{ body, what string }{
		{`{"version":1,"shards":2,"partition":"range","key_bits":16}`, "v1 range"},
		{`{"version":2,"shards":2,"partition":"range","key_bits":16}`, "v2 range"},
		{`{"version":2,"shards":1,"partition":"hash","key_bits":64}`, "v2 single-shard hash"},
	} {
		dir := write(tc.body)
		var m manifest
		if err := json.Unmarshal([]byte(tc.body), &m); err != nil {
			t.Fatal(err)
		}
		part := shard.RangePartition
		if m.Partition == "hash" {
			part = shard.HashPartition
		}
		st, _, err := Open(Options{Dir: dir, Shards: m.Shards, Partition: part, KeyBits: m.KeyBits})
		if err != nil {
			t.Fatalf("%s store refused: %v", tc.what, err)
		}
		st.Close()
		if got := version(dir); got != manifestVersion {
			t.Fatalf("%s store not upgraded: version %d", tc.what, got)
		}
	}

	dir := t.TempDir()
	st, _, err := Open(Options{Dir: dir, Shards: 4, Partition: shard.HashPartition, KeyBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if got := version(dir); got != 3 {
		t.Fatalf("fresh hash store written at version %d, want 3", got)
	}
}
