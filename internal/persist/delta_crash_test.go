package persist

// Crash harness for delta checkpoints: PR 4's kill-point sweep walked
// every byte offset of the WAL; this one walks every (strided) byte
// offset of every checkpoint *file* — old base, old-chain deltas, the
// compacted base, live-chain deltas — under both truncation (a crash
// mid-rename-window) and corruption (bit rot), and requires recovery to
// land on the exact acknowledged key set every time. The retention rule
// makes that possible: deltas never advance the WAL floor, so any single
// damaged file leaves either the newest base chain or the retained
// previous base plus the full log tail above it.

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/shard"
	"repro/internal/workload"
)

// buildDeltaStore ingests a scripted history with explicit checkpoints
// under CompactEveryDeltas=2, producing (per shard) a first base, its
// delta chain, a compacted base, and a live delta chain — every file
// kind the recovery path must survive losing. Returns the final
// acknowledged key set (everything is fsynced: SyncEvery=1 plus a Flush
// before every checkpoint).
func buildDeltaStore(t *testing.T, dir string, part shard.Partition) []uint64 {
	t.Helper()
	const shards = 2
	s, st := openSet(t, dir, shards, deltaStoreOptions(part))
	r := workload.NewRNG(11)
	s.InsertBatch(workload.Uniform(r, 30_000, 20), false)
	s.Flush()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pool := s.Keys()
	for round := 0; round < 5; round++ {
		s.InsertBatch(workload.Uniform(r, 500, 20), false)
		s.RemoveBatch(pool[round*500:round*500+500], true)
		s.Flush()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	pst := st.Stats()
	if pst.Checkpoints < 2 || pst.DeltaCheckpoints < 2 {
		t.Fatalf("history did not exercise both checkpoint kinds: %d bases, %d deltas",
			pst.Checkpoints, pst.DeltaCheckpoints)
	}
	want := s.Keys()
	s.Close()
	return want
}

func deltaStoreOptions(part shard.Partition) shard.Options {
	return shard.Options{
		Partition: part, KeyBits: 20,
		SyncEvery: 1, CheckpointEveryBatches: -1, CompactEveryDeltas: 2,
	}
}

// recoverAndCheck opens the (possibly damaged) store at dir and requires
// the recovered shards to validate (routing included) and their keys to
// equal want.
func recoverAndCheck(t *testing.T, dir string, part shard.Partition, want []uint64, what string) {
	t.Helper()
	st, sets, err := Open(dir, 2, deltaStoreOptions(part))
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", what, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", what, err)
	}
	s := shard.NewFrom(sets, &shard.Options{Partition: part, KeyBits: 20})
	defer s.Close()
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: recovered set invalid: %v", what, err)
	}
	if got := s.Keys(); !slices.Equal(got, want) {
		t.Fatalf("%s: recovered %d keys, acknowledged history has %d", what, len(got), len(want))
	}
}

func TestDeltaCheckpointKillPoints(t *testing.T) {
	for _, cfg := range []struct {
		name string
		part shard.Partition
	}{
		{"hash", shard.HashPartition},
		{"range", shard.RangePartition},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			base := t.TempDir()
			want := buildDeltaStore(t, base, cfg.part)

			// Every checkpoint file shard 0 holds, by kind.
			sdir := filepath.Join(base, shardDirName(0))
			var files []string
			for _, kind := range []fileKind{baseFiles, deltaFiles} {
				seqs, err := kind.list(sdir)
				if err != nil {
					t.Fatal(err)
				}
				for _, sq := range seqs {
					files = append(files, kind.name(sq))
				}
			}
			// The retention invariant this harness leans on: two bases and
			// both delta chains are on disk.
			nb, nd := 0, 0
			for _, f := range files {
				if filepath.Ext(f) == ".ckpt" {
					nb++
				} else {
					nd++
				}
			}
			if nb < 2 || nd < 3 {
				t.Fatalf("retention should hold 2 bases and both chains; have %v", files)
			}

			for _, name := range files {
				info, err := os.Stat(filepath.Join(sdir, name))
				if err != nil {
					t.Fatal(err)
				}
				size := info.Size()
				stride := size/37 + 1
				if testing.Short() {
					stride = size/7 + 1
				}
				for n := int64(0); n <= size; n += stride {
					// Truncation: the file stops at byte n.
					killDir := filepath.Join(t.TempDir(), "kill")
					if err := os.CopyFS(killDir, os.DirFS(base)); err != nil {
						t.Fatal(err)
					}
					target := filepath.Join(killDir, shardDirName(0), name)
					if err := os.Truncate(target, n); err != nil {
						t.Fatal(err)
					}
					recoverAndCheck(t, killDir, cfg.part, want, name+" truncated")

					// Corruption: byte n flipped (skip n == size: no byte there).
					if n == size {
						continue
					}
					killDir2 := filepath.Join(t.TempDir(), "kill2")
					if err := os.CopyFS(killDir2, os.DirFS(base)); err != nil {
						t.Fatal(err)
					}
					target = filepath.Join(killDir2, shardDirName(0), name)
					blob, err := os.ReadFile(target)
					if err != nil {
						t.Fatal(err)
					}
					blob[n] ^= 0x5a
					if err := os.WriteFile(target, blob, 0o644); err != nil {
						t.Fatal(err)
					}
					recoverAndCheck(t, killDir2, cfg.part, want, name+" corrupted")
				}
			}

			// A crash inside a checkpoint write leaves a unique temp file;
			// recovery must sweep it (and ignore its contents entirely).
			killDir := filepath.Join(t.TempDir(), "kill")
			if err := os.CopyFS(killDir, os.DirFS(base)); err != nil {
				t.Fatal(err)
			}
			tmp := filepath.Join(killDir, shardDirName(0), "delta-1234567890.tmp")
			if err := os.WriteFile(tmp, []byte("torn partial delta write"), 0o644); err != nil {
				t.Fatal(err)
			}
			recoverAndCheck(t, killDir, cfg.part, want, "leftover temp file")
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Fatal("recovery left the interrupted temp file behind")
			}
		})
	}
}

// TestDeltaChainFallback pins the anti-resurrection rule down the chain:
// corrupting the first delta of the live chain must (a) recover the full
// acknowledged state via WAL replay above the surviving link, (b) delete
// every delta past the break — sequence numbers are about to be reused,
// and a later-readable orphan would hijack a future recovery — and (c)
// leave a store a second recovery reads identically. Corrupting the
// newest *base* must instead fall back to the retained previous base and
// walk *its* delta chain forward.
func TestDeltaChainFallback(t *testing.T) {
	const part = shard.HashPartition

	t.Run("mid-chain-delta", func(t *testing.T) {
		dir := t.TempDir()
		want := buildDeltaStore(t, dir, part)
		sdir := filepath.Join(dir, shardDirName(0))
		bases, err := baseFiles.list(sdir)
		if err != nil || len(bases) < 2 {
			t.Fatalf("want 2 bases, have %v (err %v)", bases, err)
		}
		deltas, err := deltaFiles.list(sdir)
		if err != nil {
			t.Fatal(err)
		}
		newBase := bases[len(bases)-1]
		var live []uint64
		for _, d := range deltas {
			if d > newBase {
				live = append(live, d)
			}
		}
		if len(live) < 2 {
			t.Fatalf("want a live chain of >= 2 deltas past base %d, have %v", newBase, live)
		}
		path := filepath.Join(sdir, deltaFiles.name(live[0]))
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[ckptHeaderSize+2] ^= 0x40 // inside the cpma payload
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}

		recoverAndCheck(t, dir, part, want, "live chain broken at first delta")
		for _, d := range live {
			if _, err := os.Stat(filepath.Join(sdir, deltaFiles.name(d))); !os.IsNotExist(err) {
				t.Fatalf("delta %d past the break survived recovery", d)
			}
		}
		// Idempotence: a second recovery of the repaired store agrees.
		recoverAndCheck(t, dir, part, want, "second recovery")
	})

	t.Run("newest-base", func(t *testing.T) {
		dir := t.TempDir()
		want := buildDeltaStore(t, dir, part)
		sdir := filepath.Join(dir, shardDirName(0))
		bases, err := baseFiles.list(sdir)
		if err != nil || len(bases) < 2 {
			t.Fatalf("want 2 bases, have %v (err %v)", bases, err)
		}
		path := filepath.Join(sdir, baseFiles.name(bases[len(bases)-1]))
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0x20
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}

		recoverAndCheck(t, dir, part, want, "newest base corrupted")
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("rejected base left on disk")
		}
		recoverAndCheck(t, dir, part, want, "second recovery after base fallback")
	})
}

// TestConcurrentCheckpointRace: explicit Checkpoint calls racing the
// background checkpointer (and each other) during live ingest. Before
// writeCheckpoint moved to unique temp names, both writers shared one
// literal "ckpt.tmp" per shard directory, so this interleaving could
// rename a file another writer was still writing through. Run under
// -race in CI; the correctness check is the reopened store.
func TestConcurrentCheckpointRace(t *testing.T) {
	dir := t.TempDir()
	opt := shard.Options{
		SyncEvery: 1, CheckpointEveryBatches: 2, CompactEveryDeltas: 2,
	}
	s, st := openSet(t, dir, 2, opt)
	r := workload.NewRNG(17)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Checkpoint(); err != nil {
				t.Errorf("explicit checkpoint: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 120; i++ {
		s.InsertBatch(workload.Uniform(r, 200, 22), false)
		if i%4 == 3 {
			s.Flush()
		}
	}
	s.Flush()
	close(stop)
	wg.Wait()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Keys()
	s.Close()

	s2, _ := openSet(t, dir, 2, opt)
	defer s2.Close()
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want, s2.Keys()) {
		t.Fatal("reopen after racing checkpoints lost data")
	}
}
