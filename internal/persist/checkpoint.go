package persist

// Checkpoint files and the store manifest. A checkpoint file wraps one
// shard's cpma encoding — a list of leaves — in a small header naming the
// shard, the WAL sequence the state covers and its place in the chain,
// with a whole-file CRC32C trailer. A base checkpoint lists every
// non-empty leaf (cpma.WriteTo); a delta lists the leaves dirtied since
// the previous checkpoint of its chain (cpma.WriteDeltaTo). Both are the
// same file type, written by one writer and read by one loader. Files are
// written through writeFile, so a half-written checkpoint is never
// visible under its real name.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cpma"
	"repro/internal/shard"
)

const (
	ckptMagic   = "CPMACKP2"
	ckptVersion = 2
	// magic, version, shard, seq, prevSeq, baseSeq, payload len
	ckptHeaderSize = 8 + 4 + 4 + 8 + 8 + 8 + 8
	ckptCRCSize    = 4
)

// writeCheckpoint serializes the given leaves of set (an immutable
// published handle covering WAL records up to and including seq) and
// atomically places the file in dir (writeFile). A base has prevSeq 0 and
// baseSeq seq and lists every non-empty leaf. A delta's header chains it:
// prevSeq is the checkpoint (base or delta) it patches, baseSeq the base
// anchoring the chain — recovery applies a delta only when both link up,
// so a delta from an abandoned chain can never be patched onto the wrong
// state. Returns the payload size (the checkpoint-bytes stat).
func writeCheckpoint(dir string, shardID int, seq, prevSeq, baseSeq uint64, set *cpma.CPMA, leaves []int) (uint64, error) {
	kind := baseFiles
	if prevSeq != 0 {
		kind = deltaFiles
	}
	payloadLen := set.EncodedSize(leaves)
	err := writeFile(dir, kind.name(seq), func(bw io.Writer) error {
		crc := crc32.New(castagnoli)
		w := io.MultiWriter(bw, crc)
		var hdr [ckptHeaderSize]byte
		copy(hdr[:], ckptMagic)
		binary.LittleEndian.PutUint32(hdr[8:], ckptVersion)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(shardID))
		binary.LittleEndian.PutUint64(hdr[16:], seq)
		binary.LittleEndian.PutUint64(hdr[24:], prevSeq)
		binary.LittleEndian.PutUint64(hdr[32:], baseSeq)
		binary.LittleEndian.PutUint64(hdr[40:], payloadLen)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		n, err := set.WriteDeltaTo(w, leaves)
		if err != nil {
			return err
		}
		if uint64(n) != payloadLen {
			return fmt.Errorf("persist: checkpoint wrote %d bytes, EncodedSize said %d", n, payloadLen)
		}
		_, err = bw.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
		return err
	})
	if err != nil {
		return 0, err
	}
	return payloadLen, nil
}

// loadCheckpoint reads and verifies one checkpoint file's framing —
// whole-file CRC, magic, version, shard, and the sequence its name
// claims — and returns its chain links and the raw cpma payload. The
// payload's own structure is verified by cpma.ReadFrom or
// cpma.ApplyDeltaFrom before anything is built or mutated.
func loadCheckpoint(path string, shardID int, seq uint64) (prevSeq, baseSeq uint64, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	name := filepath.Base(path)
	if len(data) < ckptHeaderSize+ckptCRCSize {
		return 0, 0, nil, fmt.Errorf("persist: checkpoint %s truncated (%d bytes)", name, len(data))
	}
	body := data[:len(data)-ckptCRCSize]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return 0, 0, nil, fmt.Errorf("persist: checkpoint %s: checksum mismatch", name)
	}
	if string(data[:8]) != ckptMagic {
		return 0, 0, nil, fmt.Errorf("persist: checkpoint %s: bad magic", name)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ckptVersion {
		return 0, 0, nil, fmt.Errorf("persist: checkpoint %s: unsupported version %d", name, v)
	}
	if got := int(binary.LittleEndian.Uint32(data[12:])); got != shardID {
		return 0, 0, nil, fmt.Errorf("persist: checkpoint %s: belongs to shard %d, not %d", name, got, shardID)
	}
	if got := binary.LittleEndian.Uint64(data[16:]); got != seq {
		return 0, 0, nil, fmt.Errorf("persist: checkpoint %s: header seq %d does not match name", name, got)
	}
	prevSeq = binary.LittleEndian.Uint64(data[24:])
	baseSeq = binary.LittleEndian.Uint64(data[32:])
	if binary.LittleEndian.Uint64(data[40:]) != uint64(len(body)-ckptHeaderSize) {
		return 0, 0, nil, fmt.Errorf("persist: checkpoint %s: payload length mismatch", name)
	}
	return prevSeq, baseSeq, body[ckptHeaderSize:], nil
}

// manifest records the set geometry the store was created with; reopening
// with different geometry is an error (the log would replay into the
// wrong shards). Version history: 1 = fixed equal-width spans; 2 = the
// span boundary table became dynamic state, carried in the generation-
// stamped BOUNDS sidecar (see bounds.go) and updated by rebalance
// barriers; 3 = hash shards store quotients, not keys (see
// shard.HashPartition); 4 = base and delta checkpoints share one file
// format holding the cpma leaf-list encoding. This build reads and writes
// version 4 only: a store of any older version holds checkpoint files it
// cannot read and is refused with its version named, its files untouched.
type manifest struct {
	Version   int    `json:"version"`
	Shards    int    `json:"shards"`
	Partition string `json:"partition"`
	KeyBits   int    `json:"key_bits"`
}

const (
	manifestName    = "MANIFEST"
	manifestVersion = 4
)

func partitionString(p shard.Partition) string {
	if p == shard.RangePartition {
		return "range"
	}
	return "hash"
}

// ensureManifest validates dir's manifest against the shard count and
// o's routing, writing a fresh one (atomically) if none exists yet.
func ensureManifest(dir string, shards int, o shard.Options) error {
	path := filepath.Join(dir, manifestName)
	want := manifest{Version: manifestVersion, Shards: shards, Partition: partitionString(o.Partition), KeyBits: o.KeyBits}
	data, err := os.ReadFile(path)
	if err == nil {
		var got manifest
		if err := json.Unmarshal(data, &got); err != nil {
			return fmt.Errorf("persist: corrupt manifest %s: %w", path, err)
		}
		if got.Version != manifestVersion {
			return fmt.Errorf("persist: store at %s has manifest version %d; this build reads version %d only",
				dir, got.Version, manifestVersion)
		}
		if got != want {
			return fmt.Errorf("persist: store at %s holds a %d-shard %s/%d-bit set; asked to open it as %d-shard %s/%d-bit",
				dir, got.Shards, got.Partition, got.KeyBits, want.Shards, want.Partition, want.KeyBits)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	blob, err := json.Marshal(want)
	if err != nil {
		return err
	}
	return writeFile(dir, manifestName, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}
