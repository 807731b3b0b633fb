package persist

// Checkpoint files and the store manifest. A checkpoint wraps one shard's
// cpma slab (cpma.WriteTo — the pointer-free raw dump) in a small header
// naming the shard and the WAL sequence the state covers, with a
// whole-file CRC32C trailer. Files are written to a temp name, fsynced,
// and renamed into place, so a half-written checkpoint is never visible
// under its real name.

import (
	"bufio"
	"bytes"
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
	ckptMagic      = "CPMACKP1"
	ckptVersion    = 1
	ckptHeaderSize = 8 + 4 + 4 + 8 + 8 // magic, version, shard, seq, payload len
	ckptCRCSize    = 4
)

func checkpointName(seq uint64) string {
	return fmt.Sprintf("ckpt-%020d.ckpt", seq)
}

// writeCheckpoint serializes set (an immutable published handle) covering
// WAL records up to and including seq, atomically placing it in dir.
// Returns the slab payload size (EncodedSize — the checkpoint-bytes stat).
//
// The temp file gets a unique name (CreateTemp), not a fixed one: an
// explicit Checkpoint call and the background checkpointer both reach
// here under ckptMu today, but a fixed "ckpt.tmp" made that mutual
// exclusion load-bearing for file integrity — with two writers, one
// renames the shared temp file into place while the other keeps writing
// through its still-open fd into the now-final file, defeating the
// write-then-rename atomicity this format depends on. Unique names keep
// a lock bug from escalating into a corrupt durable checkpoint.
func writeCheckpoint(dir string, shardID int, seq uint64, set *cpma.CPMA) (uint64, error) {
	payloadLen := set.EncodedSize()
	f, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	bw := bufio.NewWriterSize(f, 1<<16)
	crc := crc32.New(castagnoli)
	w := io.MultiWriter(bw, crc)

	var hdr [ckptHeaderSize]byte
	copy(hdr[:], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[8:], ckptVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(shardID))
	binary.LittleEndian.PutUint64(hdr[16:], seq)
	binary.LittleEndian.PutUint64(hdr[24:], payloadLen)
	fail := func(err error) (uint64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return fail(err)
	}
	n, err := set.WriteTo(w)
	if err != nil {
		return fail(err)
	}
	if uint64(n) != payloadLen {
		return fail(fmt.Errorf("persist: slab wrote %d bytes, EncodedSize said %d", n, payloadLen))
	}
	var tail [ckptCRCSize]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	final := filepath.Join(dir, checkpointName(seq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return payloadLen, nil
}

// loadCheckpoint reads and fully verifies one checkpoint file: header
// sanity, whole-file CRC, slab CRC (inside cpma.ReadFrom), and the strict
// cpma validator — a checkpoint that fails any of these is reported so the
// caller can fall back to an older one.
func loadCheckpoint(path string, shardID int, seq uint64, opts *cpma.Options) (*cpma.CPMA, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < ckptHeaderSize+ckptCRCSize {
		return nil, fmt.Errorf("persist: checkpoint %s truncated (%d bytes)", filepath.Base(path), len(data))
	}
	if string(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("persist: checkpoint %s: bad magic", filepath.Base(path))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ckptVersion {
		return nil, fmt.Errorf("persist: checkpoint %s: unsupported version %d", filepath.Base(path), v)
	}
	if got := int(binary.LittleEndian.Uint32(data[12:])); got != shardID {
		return nil, fmt.Errorf("persist: checkpoint %s: belongs to shard %d, not %d", filepath.Base(path), got, shardID)
	}
	if got := binary.LittleEndian.Uint64(data[16:]); got != seq {
		return nil, fmt.Errorf("persist: checkpoint %s: header seq %d does not match name", filepath.Base(path), got)
	}
	payloadLen := binary.LittleEndian.Uint64(data[24:])
	if payloadLen != uint64(len(data)-ckptHeaderSize-ckptCRCSize) {
		return nil, fmt.Errorf("persist: checkpoint %s: payload length mismatch", filepath.Base(path))
	}
	body := data[:len(data)-ckptCRCSize]
	want := binary.LittleEndian.Uint32(data[len(data)-ckptCRCSize:])
	if crc32.Checksum(body, castagnoli) != want {
		return nil, fmt.Errorf("persist: checkpoint %s: checksum mismatch", filepath.Base(path))
	}
	set, err := cpma.ReadFrom(bytes.NewReader(body[ckptHeaderSize:]), opts)
	if err != nil {
		return nil, fmt.Errorf("persist: checkpoint %s: %w", filepath.Base(path), err)
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("persist: checkpoint %s: %w", filepath.Base(path), err)
	}
	return set, nil
}

const (
	dckptMagic      = "CPMADCK1"
	dckptVersion    = 1
	dckptHeaderSize = 8 + 4 + 4 + 8 + 8 + 8 + 8 // magic, version, shard, seq, prevSeq, baseSeq, payload len
	dckptCRCSize    = 4
)

func deltaName(seq uint64) string {
	return fmt.Sprintf("delta-%020d.dckpt", seq)
}

// writeDeltaCheckpoint serializes the dirty leaves of set (an immutable
// published handle covering WAL records up to and including seq) as a
// cpma delta patch, atomically placing it in dir. The header chains the
// file: prevSeq is the checkpoint (base or delta) this patch applies on
// top of, baseSeq the full slab anchoring the chain — recovery applies a
// delta only when both link up, so a delta from an abandoned chain can
// never be patched onto the wrong state. Returns the delta payload size
// (the delta-bytes stat).
func writeDeltaCheckpoint(dir string, shardID int, seq, prevSeq, baseSeq uint64, set *cpma.CPMA, leaves []int) (uint64, error) {
	payloadLen := set.DeltaEncodedSize(leaves)
	f, err := os.CreateTemp(dir, "delta-*.tmp")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	bw := bufio.NewWriterSize(f, 1<<16)
	crc := crc32.New(castagnoli)
	w := io.MultiWriter(bw, crc)

	var hdr [dckptHeaderSize]byte
	copy(hdr[:], dckptMagic)
	binary.LittleEndian.PutUint32(hdr[8:], dckptVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(shardID))
	binary.LittleEndian.PutUint64(hdr[16:], seq)
	binary.LittleEndian.PutUint64(hdr[24:], prevSeq)
	binary.LittleEndian.PutUint64(hdr[32:], baseSeq)
	binary.LittleEndian.PutUint64(hdr[40:], payloadLen)
	fail := func(err error) (uint64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return fail(err)
	}
	n, err := set.WriteDeltaTo(w, leaves)
	if err != nil {
		return fail(err)
	}
	if uint64(n) != payloadLen {
		return fail(fmt.Errorf("persist: delta wrote %d bytes, DeltaEncodedSize said %d", n, payloadLen))
	}
	var tail [dckptCRCSize]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	final := filepath.Join(dir, deltaName(seq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return payloadLen, nil
}

// loadDelta reads and verifies one delta checkpoint file's framing —
// whole-file CRC, header sanity — returning its chain links and the raw
// cpma delta payload. The payload's own structure is verified by
// cpma.ApplyDeltaFrom before anything is mutated.
func loadDelta(path string, shardID int, seq uint64) (prevSeq, baseSeq uint64, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	name := filepath.Base(path)
	if len(data) < dckptHeaderSize+dckptCRCSize {
		return 0, 0, nil, fmt.Errorf("persist: delta %s truncated (%d bytes)", name, len(data))
	}
	body := data[:len(data)-dckptCRCSize]
	want := binary.LittleEndian.Uint32(data[len(data)-dckptCRCSize:])
	if crc32.Checksum(body, castagnoli) != want {
		return 0, 0, nil, fmt.Errorf("persist: delta %s: checksum mismatch", name)
	}
	if string(data[:8]) != dckptMagic {
		return 0, 0, nil, fmt.Errorf("persist: delta %s: bad magic", name)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != dckptVersion {
		return 0, 0, nil, fmt.Errorf("persist: delta %s: unsupported version %d", name, v)
	}
	if got := int(binary.LittleEndian.Uint32(data[12:])); got != shardID {
		return 0, 0, nil, fmt.Errorf("persist: delta %s: belongs to shard %d, not %d", name, got, shardID)
	}
	if got := binary.LittleEndian.Uint64(data[16:]); got != seq {
		return 0, 0, nil, fmt.Errorf("persist: delta %s: header seq %d does not match name", name, got)
	}
	prevSeq = binary.LittleEndian.Uint64(data[24:])
	baseSeq = binary.LittleEndian.Uint64(data[32:])
	payloadLen := binary.LittleEndian.Uint64(data[40:])
	if payloadLen != uint64(len(body)-dckptHeaderSize) {
		return 0, 0, nil, fmt.Errorf("persist: delta %s: payload length mismatch", name)
	}
	return prevSeq, baseSeq, body[dckptHeaderSize:], nil
}

// manifest records the set geometry the store was created with; reopening
// with different geometry is an error (the log would replay into the
// wrong shards). Version history: 1 = fixed equal-width spans; 2 = the
// span boundary table became dynamic state, carried in the generation-
// stamped BOUNDS sidecar (see bounds.go) and updated by rebalance
// barriers; 3 = hash shards store quotients, not keys (see
// shard.HashPartition), so their WAL records and checkpoints hold values
// an older binary would misread as keys. New stores are written at
// version 3. Range stores of every version open (their layout never
// changed; a version-1 store simply has no BOUNDS file yet and runs on
// the default table until its first rebalance) and are upgraded in place.
// A multi-shard hash store below version 3 holds the old whole-key layout
// and is refused.
type manifest struct {
	Version   int    `json:"version"`
	Shards    int    `json:"shards"`
	Partition string `json:"partition"`
	KeyBits   int    `json:"key_bits"`
}

const (
	manifestName       = "MANIFEST"
	manifestVersion    = 3
	manifestVersionMin = 1
	// quotientVersion is the first version whose hash shards store
	// quotients.
	quotientVersion = 3
)

func partitionString(p shard.Partition) string {
	if p == shard.RangePartition {
		return "range"
	}
	return "hash"
}

// ensureManifest validates dir's manifest against opts, writing a fresh
// one (atomically) if none exists yet. An older-version manifest with
// matching geometry and an unchanged layout is upgraded in place: this
// binary is about to write state the old format cannot express
// (version-2 WAL segments, the BOUNDS sidecar), and bumping the manifest
// makes an old binary refuse the store outright instead of silently
// discarding the new segments as invalid.
func ensureManifest(o Options) error {
	path := filepath.Join(o.Dir, manifestName)
	want := manifest{Version: manifestVersion, Shards: o.Shards, Partition: partitionString(o.Partition), KeyBits: o.KeyBits}
	data, err := os.ReadFile(path)
	if err == nil {
		var got manifest
		if err := json.Unmarshal(data, &got); err != nil {
			return fmt.Errorf("persist: corrupt manifest %s: %w", path, err)
		}
		if got.Version < manifestVersionMin || got.Version > manifestVersion {
			return fmt.Errorf("persist: store at %s has unsupported manifest version %d", o.Dir, got.Version)
		}
		if got.Shards != want.Shards || got.Partition != want.Partition || got.KeyBits != want.KeyBits {
			return fmt.Errorf("persist: store at %s holds a %d-shard %s/%d-bit set; asked to open it as %d-shard %s/%d-bit",
				o.Dir, got.Shards, got.Partition, got.KeyBits, want.Shards, want.Partition, want.KeyBits)
		}
		if got.Partition == "hash" && got.Shards > 1 && got.Version < quotientVersion {
			return fmt.Errorf("persist: store at %s has manifest version %d, whose hash shards store whole keys; this build stores quotients (version %d) and cannot read that layout",
				o.Dir, got.Version, quotientVersion)
		}
		if got.Version == manifestVersion {
			return nil
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	blob, err := json.Marshal(want)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(o.Dir)
}

// syncDir fsyncs a directory so renames and removals within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
