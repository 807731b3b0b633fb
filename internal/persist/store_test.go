package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cpma"
	"repro/internal/shard"
	"repro/internal/workload"
)

// reopen closes nothing: it opens the store at dir with the same options
// and returns the recovered set (callers close both).
func openSet(t *testing.T, dir string, shards int, opt shard.Options) (*shard.Sharded, *Store) {
	t.Helper()
	s, st, err := OpenSharded(dir, shards, &opt)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	return s, st
}

func TestDurableReopenEquality(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opt  shard.Options
	}{
		{"hash", shard.Options{SyncEvery: 4}},
		{"range", shard.Options{Partition: shard.RangePartition, KeyBits: 24, SyncEvery: 4}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			r := workload.NewRNG(1)
			s, _ := openSet(t, dir, 4, cfg.opt)
			var want []uint64
			keys := workload.Uniform(r, 30_000, 24)
			s.InsertBatchAsync(keys[:20_000], false)
			s.RemoveBatchAsync(keys[:5_000], false)
			s.InsertBatch(keys[20_000:], false)
			s.Flush()
			want = s.Keys()
			wantStats := s.PersistStats()
			if wantStats.AppendedBatches == 0 || wantStats.Fsyncs == 0 {
				t.Fatalf("no WAL traffic recorded: %+v", wantStats)
			}
			s.Close()

			s2, _ := openSet(t, dir, 4, cfg.opt)
			defer s2.Close()
			if err := s2.Validate(); err != nil {
				t.Fatalf("recovered set invalid: %v", err)
			}
			if !slices.Equal(want, s2.Keys()) {
				t.Fatalf("recovered keys differ: %d vs %d", len(want), s2.Len())
			}
			st2 := s2.PersistStats()
			if st2.RecoveredKeys != uint64(len(want)) {
				t.Fatalf("RecoveredKeys %d, want %d", st2.RecoveredKeys, len(want))
			}
			// Replay merges runs of records, but its counters still count
			// the records and keys it replayed: with no checkpoint, all of
			// them.
			if st2.ReplayedBatches != wantStats.AppendedBatches || st2.ReplayedKeys != wantStats.AppendedKeys {
				t.Fatalf("replayed %d records / %d keys, appended %d / %d",
					st2.ReplayedBatches, st2.ReplayedKeys, wantStats.AppendedBatches, wantStats.AppendedKeys)
			}

			// The recovered set keeps working durably.
			s2.Insert(1)
			s2.Flush()
		})
	}
}

// TestReopenOldLeafStore reopens testdata/store-256, a two-shard hash
// store written while the compressed leaf floor was 256 bytes: the keys
// of workload.Uniform(NewRNG(21), 4000, 32), 3000 inserted and
// checkpointed, then 50 more inserted and the first 20 removed in the WAL
// tail. Recovery loads the old checkpoints and replays the tail onto
// their 256-byte leaves; a batch large enough to rebuild moves every
// shard to 512-byte leaves, and a checkpoint of those reopens too.
func TestReopenOldLeafStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/store-256")); err != nil {
		t.Fatal(err)
	}
	opt := shard.Options{SyncEvery: 1}
	keys := workload.Uniform(workload.NewRNG(21), 4000, 32)
	want := slices.Clone(keys[20:3050])
	slices.Sort(want)

	leafBytes := func(s *shard.Sharded) []int {
		var out []int
		for _, set := range s.Snapshot().ShardSets() {
			out = append(out, set.LeafBytes())
		}
		return out
	}
	s, _ := openSet(t, dir, 2, opt)
	if !slices.Equal(s.Keys(), want) {
		t.Fatalf("recovered %d keys, want %d", s.Len(), len(want))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if st := s.PersistStats(); st.ReplayedBatches == 0 {
		t.Fatal("the WAL tail was not replayed")
	}
	if lb := leafBytes(s); !slices.Equal(lb, []int{256, 256}) {
		t.Fatalf("recovered shards have %v-byte leaves, want 256", lb)
	}

	s.InsertBatch(keys[3050:3600], false)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want = slices.Clone(keys[20:3600])
	slices.Sort(want)
	if lb := leafBytes(s); !slices.Equal(lb, []int{512, 512}) {
		t.Fatalf("rebuilt shards have %v-byte leaves, want 512", lb)
	}
	s.Close()

	s2, _ := openSet(t, dir, 2, opt)
	defer s2.Close()
	if !slices.Equal(s2.Keys(), want) {
		t.Fatalf("reopened %d keys, want %d", s2.Len(), len(want))
	}
	if lb := leafBytes(s2); !slices.Equal(lb, []int{512, 512}) {
		t.Fatalf("reopened shards have %v-byte leaves, want 512", lb)
	}
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenRangeStore reopens testdata/store-range, a two-shard range
// store over 14-bit keys holding every file kind: shard 0 has a base
// checkpoint and a two-delta chain, one rebalance move left BOUNDS and a
// barrier record in each shard's WAL tail, and shard 1 two bases. The
// history, with keys = 1..1500 and extra = workload.Uniform(NewRNG(5),
// 400, 14), SyncEvery 1 and a Flush before each checkpoint:
//
//	insert keys                  checkpoint (bases)
//	insert extra[:200]; remove keys[:100]     checkpoint (deltas)
//	insert extra[200:300]; remove keys[100:150] checkpoint (deltas)
//	insert keys[:100]; one rebalance move
//	insert extra[300:]; remove keys[150:170]
func TestReopenRangeStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/store-range")); err != nil {
		t.Fatal(err)
	}
	keys := seqKeys(1500)
	extra := workload.Uniform(workload.NewRNG(5), 400, 14)
	model := map[uint64]bool{}
	for _, op := range []struct {
		remove bool
		keys   []uint64
	}{
		{false, keys}, {false, extra[:200]}, {true, keys[:100]},
		{false, extra[200:300]}, {true, keys[100:150]},
		{false, keys[:100]}, {false, extra[300:]}, {true, keys[150:170]},
	} {
		for _, k := range op.keys {
			model[k] = !op.remove
		}
	}
	var want []uint64
	for k, in := range model {
		if in {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	if len(want) != 1785 {
		t.Fatalf("the history holds %d keys, the store was written with 1785", len(want))
	}

	set, base, tip, applied, err := loadChain(filepath.Join(dir, shardDirName(0)), 0, nil)
	if err != nil || set == nil || base != 6 || tip != 10 || applied != 2 {
		t.Fatalf("shard 0 chain: base %d tip %d, %d deltas applied (err %v); want base 6, tip 10, 2 deltas", base, tip, applied, err)
	}
	opt := shard.Options{Partition: shard.RangePartition, KeyBits: 14, SyncEvery: 1, CheckpointEveryBatches: -1}
	s, st := openSet(t, dir, 2, opt)
	defer s.Close()
	if got := s.Keys(); !slices.Equal(got, want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if b, gen := st.Bounds(); !slices.Equal(b, []uint64{909}) || gen != 1 {
		t.Fatalf("recovered bounds %v gen %d, want [909] gen 1", b, gen)
	}
	if !slices.Equal(s.Bounds(), []uint64{909}) {
		t.Fatalf("the set routes by %v, want [909]", s.Bounds())
	}
	if ps := s.PersistStats(); ps.ReplayedBatches == 0 || ps.DroppedKeys != 0 {
		t.Fatalf("WAL tail not replayed cleanly: %+v", ps)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  *cpma.Options
	}{
		{"default", nil},
		// A leaf size past the checkpoint decoder's bound is clamped to
		// it, so the store reopens from its own checkpoints.
		{"huge-leaf", &cpma.Options{LeafBytes: 1 << 21}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := shard.Options{SyncEvery: 1, Set: tc.set}
			dir := t.TempDir()
			r := workload.NewRNG(2)
			s, _ := openSet(t, dir, 2, opt)
			defer s.Close()

			for i := 0; i < 3; i++ {
				s.InsertBatch(workload.Uniform(r, 5_000, 30), false)
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint %d: %v", i, err)
				}
			}
			st := s.PersistStats()
			if st.Checkpoints < 6 { // 2 shards x 3 checkpoints
				t.Fatalf("Checkpoints = %d, want >= 6", st.Checkpoints)
			}
			if st.CheckpointBytes == 0 {
				t.Fatal("CheckpointBytes not reported")
			}
			// After >= 2 checkpoints per shard the first segments must be gone.
			if st.TruncatedSegments == 0 {
				t.Fatalf("no WAL segments truncated: %+v", st)
			}
			for p := 0; p < 2; p++ {
				sdir := filepath.Join(dir, shardDirName(p))
				ckpts, _ := baseFiles.list(sdir)
				if len(ckpts) > 2 {
					t.Fatalf("shard %d retains %d checkpoints, want <= 2", p, len(ckpts))
				}
				segs, _ := segFiles.list(sdir)
				if len(segs) == 0 {
					t.Fatalf("shard %d has no active segment", p)
				}
			}

			// A checkpointed store recovers without replay.
			want := s.Keys()
			s.Close()
			s2, _ := openSet(t, dir, 2, opt)
			defer s2.Close()
			if !slices.Equal(want, s2.Keys()) {
				t.Fatal("recovered keys differ after checkpointed close")
			}
			if st2 := s2.PersistStats(); st2.ReplayedBatches != 0 {
				t.Fatalf("replayed %d batches despite fresh checkpoint", st2.ReplayedBatches)
			}
		})
	}
}

func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	r := workload.NewRNG(3)
	s, st := openSet(t, dir, 2, shard.Options{SyncEvery: -1, SyncBytes: -1, CheckpointEveryBatches: 8})
	defer s.Close()
	for i := 0; i < 64; i++ {
		s.InsertBatch(workload.Uniform(r, 500, 30), false)
	}
	s.Flush()
	// The checkpointer runs asynchronously (file + dir fsyncs can take a
	// while on a cold CI disk), so wait on wall clock, not iteration
	// count.
	deadline := time.Now().Add(30 * time.Second)
	for st.ckpts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st.ckpts.Load() == 0 {
		t.Fatal("background checkpointer never fired")
	}
}

func TestManifestMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSet(t, dir, 4, shard.Options{})
	s.Insert(7)
	s.Close()

	if _, _, err := OpenSharded(dir, 8, &shard.Options{}); err == nil {
		t.Fatal("reopen with a different shard count succeeded")
	}
	if _, _, err := OpenSharded(dir, 4, &shard.Options{Partition: shard.RangePartition}); err == nil {
		t.Fatal("reopen with a different partition succeeded")
	}
	s2, _ := openSet(t, dir, 4, shard.Options{})
	defer s2.Close()
	if !s2.Has(7) {
		t.Fatal("recovered set lost its key")
	}
}

// refuseManifest writes a manifest of the given version and geometry and
// checks that Open refuses it with an error naming that version, and that
// the refusal leaves the manifest untouched.
func refuseManifest(t *testing.T, version, shards int, part shard.Partition) {
	t.Helper()
	dir := t.TempDir()
	body := fmt.Sprintf(`{"version":%d,"shards":%d,"partition":%q,"key_bits":16}`,
		version, shards, partitionString(part))
	path := filepath.Join(dir, manifestName)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, shards, shard.Options{Partition: part, KeyBits: 16})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("manifest version %d;", version)) {
		t.Fatalf("%s: got %v, want a refusal naming version %d", body, err, version)
	}
	if got, _ := os.ReadFile(path); string(got) != body {
		t.Fatalf("%s: refused manifest rewritten to %s", body, got)
	}
}

// TestManifestVersionCompat: a store below manifest version 4 holds
// checkpoint files in a format this build cannot read (and possibly
// version-1 WAL segments), so it is refused with an error naming its
// version and its manifest is left alone; a future version is refused the
// same way, and a fresh store is written at version 4.
func TestManifestVersionCompat(t *testing.T) {
	for _, v := range []int{1, 2, 3, 99} {
		refuseManifest(t, v, 2, shard.RangePartition)
	}

	dir := t.TempDir()
	st, _, err := Open(dir, 4, shard.Options{Partition: shard.HashPartition, KeyBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if got, _ := os.ReadFile(filepath.Join(dir, manifestName)); !strings.Contains(string(got), `"version":4,`) {
		t.Fatalf("fresh store written with manifest %s, want version 4", got)
	}
}

// TestManifestHashLayoutGuard: a multi-shard hash store below manifest
// version 3 holds whole keys where this build stores quotients, and a
// version-3 hash store (single-shard included) holds old-format
// checkpoints; each is refused with its version named and its manifest
// left alone.
func TestManifestHashLayoutGuard(t *testing.T) {
	for _, tc := range []struct{ version, shards int }{{1, 4}, {2, 4}, {3, 4}, {3, 1}} {
		refuseManifest(t, tc.version, tc.shards, shard.HashPartition)
	}
}

func TestStoreCloseIdempotentAndSticky(t *testing.T) {
	dir := t.TempDir()
	s, st := openSet(t, dir, 1, shard.Options{})
	s.Insert(9)
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := st.Append(0, false, []uint64{1}); err == nil {
		t.Fatal("Append on closed store succeeded")
	}
	if st.Err() == nil {
		t.Fatal("closed-store append did not stick as an error")
	}
	// The sticky error is visible through the set's public surface too —
	// the post-Close health check the durability contract points at.
	if s.PersistErr() == nil {
		t.Fatal("PersistErr does not surface the journal's sticky error")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close should surface the sticky error")
	}
}

func TestDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSet(t, dir, 1, shard.Options{})
	if _, _, err := OpenSharded(dir, 1, &shard.Options{}); err == nil {
		t.Fatal("second concurrent open of the same store succeeded — WALs would interleave")
	}
	s.Insert(5)
	s.Close()
	// Close releases the lock; a sequential reopen is fine.
	s2, _ := openSet(t, dir, 1, shard.Options{})
	defer s2.Close()
	if !s2.Has(5) {
		t.Fatal("reopen after Close lost data")
	}
}

func TestNonDurableSetPersistAPI(t *testing.T) {
	s := shard.New(2, nil)
	defer s.Close()
	if s.Durable() {
		t.Fatal("plain set claims durability")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on non-durable set: %v", err)
	}
	if st := s.PersistStats(); st != (shard.PersistStats{}) {
		t.Fatalf("non-durable set reports persist stats: %+v", st)
	}
}

// TestTornCheckpointTempIgnored simulates a crash mid-checkpoint: the temp
// file must be swept and recovery must fall back to the WAL.
func TestTornCheckpointTempIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSet(t, dir, 1, shard.Options{SyncEvery: 1})
	s.InsertBatch([]uint64{1, 2, 3, 4, 5}, true)
	s.Flush()
	want := s.Keys()
	s.Close()

	tmp := filepath.Join(dir, shardDirName(0), "ckpt.tmp")
	if err := os.WriteFile(tmp, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := openSet(t, dir, 1, shard.Options{SyncEvery: 1})
	defer s2.Close()
	if !slices.Equal(want, s2.Keys()) {
		t.Fatal("recovery with a leftover temp checkpoint lost data")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp checkpoint not swept")
	}
}
