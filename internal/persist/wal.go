package persist

// The write-ahead batch log. Each shard owns a sequence of segment files;
// records are framed with a length + CRC32C header so recovery can walk a
// log and stop exactly at the first torn or corrupt byte. Sequence numbers
// are per shard, start at 1, and never reset — a segment file is named by
// the sequence of its first record, which is all recovery needs to order
// segments and detect gaps. A record's varints are internal/codec's byte
// code, read with its strict reader; the bytes are those version-2
// segments have always held.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/codec"
)

// SegmentHeaderBytes is the size of a WAL segment file's header (magic,
// version, shard id). Exported for tools that damage logs on purpose —
// the crash-injection smoke must chop record bytes, not header bytes.
const SegmentHeaderBytes = 8 + 4 + 4

const (
	segMagic = "CPMAWAL1"
	// walVersion is the segment version, the only one read. Version 2
	// added the rebalance barrier record kinds (recMoveIn/recMoveOut,
	// which carry a router generation after the sequence number); stores
	// holding version-1 segments predate manifest version 4 and are
	// refused at open.
	walVersion    = 2
	segHeaderSize = SegmentHeaderBytes

	recHeaderSize  = 8 // payload length u32, payload CRC32C u32
	maxRecordBytes = 1 << 27

	recInsert = 1
	recRemove = 2
	// Rebalance barrier records: the keys a boundary move carried into
	// (recMoveIn) or out of (recMoveOut) this shard, stamped with the
	// router generation the move produced. Replay applies them as an
	// insert/remove batch; the ordered barrier protocol (see Rebalanced)
	// plus recovery's span enforcement make any crash point land on
	// exactly the pre- or post-move state.
	recMoveIn  = 3
	recMoveOut = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Rec is one WAL record, as logged, recovered and replicated: a sorted
// key batch (duplicates allowed, as in a coalesced merge) inserted or
// removed at a per-shard sequence number. A nonzero Gen (always >= 1)
// marks a rebalance barrier stamped with its move's router generation;
// Replay applies it as the insert or removal it encodes, so a follower
// needs no barrier protocol. AppendRecord is the one encoder and
// walkRecords the one decoder, for segments and for socket recs frames.
type Rec struct {
	Seq    uint64
	Remove bool
	Gen    uint64
	Keys   []uint64
	// start/end are the frame's byte offsets within the decoded buffer
	// (the segment file, in recovery). Recovery truncates at start
	// when a record must be rejected for reasons the CRC cannot see, like
	// a sequence gap.
	start, end int64
}

// AppendRecord appends r as one framed WAL record to dst and returns the
// extended slice. Keys must be nonzero and ascending; they are delta
// encoded with binary.AppendUvarint, whose LEB128 varint is the codec's
// byte code, the first delta taken from zero. The generation is written
// only for barrier kinds.
func AppendRecord(dst []byte, r Rec) []byte {
	start := len(dst)
	kind := byte(recInsert)
	if r.Remove {
		kind = recRemove
	}
	if r.Gen != 0 {
		kind += recMoveIn - recInsert
	}
	dst = append(dst, make([]byte, recHeaderSize)...)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, r.Seq)
	if r.Gen != 0 {
		dst = binary.AppendUvarint(dst, r.Gen)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Keys)))
	prev := uint64(0)
	for _, k := range r.Keys {
		dst = binary.AppendUvarint(dst, k-prev)
		prev = k
	}
	payload := dst[start+recHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodeRecord parses a CRC-verified payload. Strict: trailing bytes,
// codes codec.Read refuses (short, over-long, past 2^64 or non-minimal), a
// count that cannot fit, a barrier without a generation, a zero key, and
// keys that wrap past 2^64 are all errors. Repeated keys (delta 0 after
// the first) are legal, so the deltas are read a code at a time and not
// as a codec run.
func decodeRecord(payload []byte) (Rec, error) {
	var r Rec
	if len(payload) < 1 {
		return r, fmt.Errorf("persist: empty record payload")
	}
	kind := payload[0]
	if kind < recInsert || kind > recMoveOut {
		return r, fmt.Errorf("persist: bad record kind %d", kind)
	}
	r.Remove = kind == recRemove || kind == recMoveOut
	b := payload[1:]
	seq, n := codec.Read(b)
	if n <= 0 {
		return r, fmt.Errorf("persist: bad record seq varint")
	}
	b = b[n:]
	if kind >= recMoveIn {
		gen, n := codec.Read(b)
		if n <= 0 || gen == 0 {
			return r, fmt.Errorf("persist: bad barrier generation")
		}
		r.Gen = gen
		b = b[n:]
	}
	count, n := codec.Read(b)
	if n <= 0 {
		return r, fmt.Errorf("persist: bad record count varint")
	}
	b = b[n:]
	if count > uint64(len(b)) { // every delta takes >= 1 byte
		return r, fmt.Errorf("persist: record claims %d keys in %d bytes", count, len(b))
	}
	r.Seq = seq
	r.Keys = make([]uint64, 0, count)
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		d, n := codec.Read(b)
		if n <= 0 {
			return r, fmt.Errorf("persist: bad key delta varint at key %d", i)
		}
		b = b[n:]
		if (i == 0 && d == 0) || prev+d < prev {
			return r, fmt.Errorf("persist: key %d is zero or wraps past 2^64", i)
		}
		prev += d
		r.Keys = append(r.Keys, prev)
	}
	if len(b) != 0 {
		return r, fmt.Errorf("persist: %d trailing bytes after record", len(b))
	}
	return r, nil
}

// walkRecords decodes the back-to-back record frames in data from byte off
// on, stopping at the first frame that is short, oversized, fails its CRC
// or does not decode. It returns the records before it, the offset where
// they end, and what stopped it (nil when the frames fill data exactly).
func walkRecords(data []byte, off int64) (recs []Rec, end int64, err error) {
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < recHeaderSize {
			return recs, off, fmt.Errorf("persist: torn record header at byte %d", off)
		}
		plen := binary.LittleEndian.Uint32(rest)
		if plen == 0 || plen > maxRecordBytes || int(plen) > len(rest)-recHeaderSize {
			return recs, off, fmt.Errorf("persist: record at byte %d claims %d payload bytes of %d", off, plen, len(rest)-recHeaderSize)
		}
		payload := rest[recHeaderSize : recHeaderSize+int(plen)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, off, fmt.Errorf("persist: record at byte %d fails its CRC", off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, off, err
		}
		rec.start = off
		rec.end = off + recHeaderSize + int64(plen)
		recs = append(recs, rec)
		off = rec.end
	}
	return recs, off, nil
}

// DecodeRecs decodes a buffer of record frames strictly: any damage is an
// error and returns no records, so the caller applies none of them.
func DecodeRecs(data []byte) ([]Rec, error) {
	recs, _, err := walkRecords(data, 0)
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// segment is one open WAL segment file being appended to.
type segment struct {
	f       *os.File
	w       *bufio.Writer
	path    string
	records int
	// size is the byte length of everything written into the segment —
	// header plus frames — including bytes still sitting in w's buffer.
	// synced is the prefix known to be both flushed and fsynced. The two
	// are the shippable seal (ship.go): bytes past synced may be absent
	// from the file entirely, or present as a torn frame (bufio flushes
	// mid-frame whenever its buffer fills), even though the records they
	// encode are already acknowledged to callers. Both are guarded by the
	// owning storeShard's mu.
	size   int64
	synced int64
}

// segmentName returns the file name for a segment whose first record will
// carry the given sequence number.
func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%020d.log", firstSeq)
}

// createSegment creates (truncating any leftover of the same name — its
// contents, if any, were consumed by recovery) a segment and writes its
// header. The header reaches disk with the first sync.
func createSegment(path string, shardID int) (*segment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	sg := &segment{f: f, w: bufio.NewWriterSize(f, 1<<16), path: path, size: segHeaderSize}
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], walVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(shardID))
	if _, err := sg.w.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	return sg, nil
}

func (sg *segment) append(frame []byte) error {
	if _, err := sg.w.Write(frame); err != nil {
		return err
	}
	sg.records++
	sg.size += int64(len(frame))
	return nil
}

// sync flushes buffered records and fsyncs the file, advancing the
// shippable seal to cover everything written so far.
func (sg *segment) sync() error {
	if err := sg.w.Flush(); err != nil {
		return err
	}
	if err := sg.f.Sync(); err != nil {
		return err
	}
	sg.synced = sg.size
	return nil
}

func (sg *segment) close() error {
	if err := sg.w.Flush(); err != nil {
		sg.f.Close()
		return err
	}
	return sg.f.Close()
}

// scanSegmentBytes returns the valid records of a segment file's bytes
// (or of a prefix of them) plus the byte offset where validity ends.
// Record-level damage (short frame, CRC mismatch, undecodable payload)
// just ends the valid prefix. headerOK is false when the segment header
// is missing or wrong, and the whole file is then unusable. That is not
// an error: it is the normal state of a freshly created segment before
// its first sync, and of a tail file a crash cut between creation and the
// header reaching disk. The shippable reader scans exactly the sealed
// prefix of the active segment, so a torn frame the writer's bufio buffer
// half-flushed past the seal can never be observed.
func scanSegmentBytes(data []byte, shardID int) (recs []Rec, validEnd int64, headerOK bool) {
	if len(data) < segHeaderSize || string(data[:8]) != segMagic ||
		binary.LittleEndian.Uint32(data[8:]) != walVersion ||
		binary.LittleEndian.Uint32(data[12:]) != uint32(shardID) {
		return nil, 0, false
	}
	recs, validEnd, _ = walkRecords(data, segHeaderSize)
	return recs, validEnd, true
}

// listSeqFiles returns the sequence numbers parsed from files in dir that
// match the prefix/suffix pattern, sorted ascending.
func listSeqFiles(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || len(name) != len(prefix)+20+len(suffix) ||
			name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%d", &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	// ReadDir sorts lexicographically and the zero-padded width is fixed,
	// so seqs is already ascending.
	return seqs, nil
}
