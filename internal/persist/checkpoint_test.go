package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cpma"
	"repro/internal/workload"
)

// FuzzCheckpointFile writes a checkpoint file from a fuzzed header and
// payload, with its whole-file CRC32C trailer recomputed, into a shard
// directory that also holds a genuine base at sequence 1, and loads it:
// as a base (loadBase) when its header's prevSeq is 0, and as part of the
// directory's chain (loadChain) either way. The file is named by the
// header's sequence, as a delta when prevSeq is nonzero. Each payload is
// tried as it arrives and with its own trailing CRC32C resealed, so
// mutations reach the cpma decoder's structural checks too. Whatever the
// bytes, loading returns nothing or an error, never panics, and never
// returns a set that fails Validate.
func FuzzCheckpointFile(f *testing.F) {
	live := cpma.New(nil)
	live.InsertBatch(workload.Uniform(workload.NewRNG(3), 300, 30), false)
	base := live.Clone()
	live.InsertBatch(workload.Uniform(workload.NewRNG(4), 8, 30), false)
	live.RemoveBatch(base.Keys()[:4], true)
	next := live.Clone()
	_, changed := next.ChangedSince(base.Gen())

	seeds := f.TempDir()
	for _, c := range []struct {
		seq, prevSeq uint64
		set          *cpma.CPMA
		leaves       []int
	}{
		{1, 0, base, base.NonEmptyLeaves()},
		{2, 1, next, changed},
		{3, 0, cpma.New(nil), nil},
	} {
		if _, err := writeCheckpoint(seeds, 0, c.seq, c.prevSeq, 1, c.set, c.leaves); err != nil {
			f.Fatal(err)
		}
	}
	genuine, err := os.ReadFile(filepath.Join(seeds, baseFiles.name(1)))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{baseFiles.name(1), deltaFiles.name(2), baseFiles.name(3)} {
		file, err := os.ReadFile(filepath.Join(seeds, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file[:ckptHeaderSize], file[ckptHeaderSize:len(file)-ckptCRCSize])
	}

	f.Fuzz(func(t *testing.T, hdr, payload []byte) {
		var h [ckptHeaderSize]byte
		copy(h[:], hdr)
		seq := binary.LittleEndian.Uint64(h[16:])
		kind := baseFiles
		if binary.LittleEndian.Uint64(h[24:]) != 0 {
			kind = deltaFiles
		}
		resealed := slices.Clone(payload)
		if n := len(resealed) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(resealed[n:], crc32.Checksum(resealed[:n], castagnoli))
		}
		for _, p := range [][]byte{payload, resealed} {
			dir := t.TempDir()
			file := append(h[:], p...)
			file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(file, castagnoli))
			if err := os.WriteFile(filepath.Join(dir, baseFiles.name(1)), genuine, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, kind.name(seq)), file, 0o644); err != nil {
				t.Fatal(err)
			}
			if kind == baseFiles {
				if set := loadBase(dir, 0, seq, nil); set != nil {
					if err := set.Validate(); err != nil {
						t.Fatalf("loadBase returned an invalid set: %v", err)
					}
				}
			}
			set, _, _, _, err := loadChain(dir, 0, nil)
			if err != nil {
				continue
			}
			if set == nil {
				t.Fatal("loadChain returned neither a set nor an error")
			}
			if err := set.Validate(); err != nil {
				t.Fatalf("loadChain returned an invalid set: %v", err)
			}
		}
	})
}
