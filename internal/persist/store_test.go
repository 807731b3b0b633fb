package persist

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/workload"
)

// reopen closes nothing: it opens the store at dir with the same options
// and returns the recovered set (callers close both).
func openSet(t *testing.T, dir string, shards int, opt shard.Options) (*shard.Sharded, *Store) {
	t.Helper()
	opt.Dir = dir
	s, st, err := OpenSharded(shards, &opt)
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
			if st2.ReplayedBatches == 0 {
				t.Fatal("expected WAL replay on reopen without checkpoints")
			}

			// The recovered set keeps working durably.
			s2.Insert(1)
			s2.Flush()
		})
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	r := workload.NewRNG(2)
	s, _ := openSet(t, dir, 2, shard.Options{SyncEvery: 1})
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
		ckpts, _ := listSeqFiles(sdir, "ckpt-", ".ckpt")
		if len(ckpts) > 2 {
			t.Fatalf("shard %d retains %d checkpoints, want <= 2", p, len(ckpts))
		}
		segs, _ := listSeqFiles(sdir, "wal-", ".log")
		if len(segs) == 0 {
			t.Fatalf("shard %d has no active segment", p)
		}
	}

	// A checkpointed store recovers without replay.
	want := s.Keys()
	s.Close()
	s2, _ := openSet(t, dir, 2, shard.Options{SyncEvery: 1})
	defer s2.Close()
	if !slices.Equal(want, s2.Keys()) {
		t.Fatal("recovered keys differ after checkpointed close")
	}
	if st2 := s2.PersistStats(); st2.ReplayedBatches != 0 {
		t.Fatalf("replayed %d batches despite fresh checkpoint", st2.ReplayedBatches)
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

	if _, _, err := OpenSharded(8, &shard.Options{Dir: dir}); err == nil {
		t.Fatal("reopen with a different shard count succeeded")
	}
	if _, _, err := OpenSharded(4, &shard.Options{Dir: dir, Partition: shard.RangePartition}); err == nil {
		t.Fatal("reopen with a different partition succeeded")
	}
	s2, _ := openSet(t, dir, 4, shard.Options{})
	defer s2.Close()
	if !s2.Has(7) {
		t.Fatal("recovered set lost its key")
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
	if _, _, err := OpenSharded(1, &shard.Options{Dir: dir}); err == nil {
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

func TestDirWithoutJournalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Options.Dir without Journal did not panic")
		}
	}()
	shard.New(2, &shard.Options{Dir: t.TempDir()})
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
