package persist

// The write-ahead batch log. Each shard owns a sequence of segment files;
// records are framed with a length + CRC32C header so recovery can walk a
// log and stop exactly at the first torn or corrupt byte. Sequence numbers
// are per shard, start at 1, and never reset — a segment file is named by
// the sequence of its first record, which is all recovery needs to order
// segments and detect gaps.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
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

// recKindValid reports whether kind is a known record kind.
func recKindValid(kind byte) bool {
	return kind >= recInsert && kind <= recMoveOut
}

// recRemoves reports whether a record kind replays as a removal.
func recRemoves(kind byte) bool { return kind == recRemove || kind == recMoveOut }

// recHasGen reports whether the record layout carries a router generation
// between the sequence number and the key count.
func recHasGen(kind byte) bool { return kind == recMoveIn || kind == recMoveOut }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends one framed WAL record to dst and returns the
// extended slice. Keys must be sorted ascending (duplicates allowed, as in
// a coalesced merge); they are delta encoded with stdlib uvarints, the
// first delta taken from zero. gen is written only for barrier kinds
// (recHasGen).
func appendRecord(dst []byte, seq uint64, kind byte, gen uint64, keys []uint64) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, recHeaderSize)...)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, seq)
	if recHasGen(kind) {
		dst = binary.AppendUvarint(dst, gen)
	}
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	prev := uint64(0)
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, k-prev)
		prev = k
	}
	payload := dst[start+recHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// walRecord is one decoded log record. start/end are its frame's byte
// offsets within its segment file (filled by scanSegment, zero from
// decodeRecord alone) — recovery truncates at start when a record must be
// rejected for reasons the CRC cannot see, like a sequence gap.
type walRecord struct {
	seq   uint64
	kind  byte
	gen   uint64 // router generation (barrier records only)
	keys  []uint64
	start int64
	end   int64
}

func (r walRecord) remove() bool { return recRemoves(r.kind) }

// decodeRecord parses a CRC-verified payload. Strict: trailing bytes,
// short varints, or a count that cannot fit are errors.
func decodeRecord(payload []byte) (walRecord, error) {
	var r walRecord
	if len(payload) < 1 {
		return r, fmt.Errorf("persist: empty record payload")
	}
	if !recKindValid(payload[0]) {
		return r, fmt.Errorf("persist: bad record kind %d", payload[0])
	}
	r.kind = payload[0]
	b := payload[1:]
	seq, n := binary.Uvarint(b)
	if n <= 0 {
		return r, fmt.Errorf("persist: bad record seq varint")
	}
	b = b[n:]
	if recHasGen(r.kind) {
		gen, n := binary.Uvarint(b)
		if n <= 0 {
			return r, fmt.Errorf("persist: bad record gen varint")
		}
		r.gen = gen
		b = b[n:]
	}
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return r, fmt.Errorf("persist: bad record count varint")
	}
	b = b[n:]
	if count > uint64(len(b)) { // every delta takes >= 1 byte
		return r, fmt.Errorf("persist: record claims %d keys in %d bytes", count, len(b))
	}
	r.seq = seq
	r.keys = make([]uint64, 0, count)
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		d, n := binary.Uvarint(b)
		if n <= 0 {
			return r, fmt.Errorf("persist: bad key delta varint at key %d", i)
		}
		b = b[n:]
		prev += d
		r.keys = append(r.keys, prev)
	}
	if len(b) != 0 {
		return r, fmt.Errorf("persist: %d trailing bytes after record", len(b))
	}
	return r, nil
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

// scanSegment reads a segment file and returns its valid records plus the
// byte offset where validity ends. headerOK is false when the segment
// header itself is missing or wrong — the whole file is then unusable.
// Record-level damage (short frame, CRC mismatch, undecodable payload)
// just ends the valid prefix: records before it are good, validEnd points
// at the boundary.
func scanSegment(path string, shardID int) (recs []walRecord, validEnd int64, headerOK bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	recs, validEnd, headerOK = scanSegmentBytes(data, shardID)
	return recs, validEnd, headerOK, nil
}

// scanSegmentBytes is scanSegment over an in-memory prefix of a segment
// file. The shippable reader uses it to scan exactly the sealed prefix of
// the active segment: data is the file's first synced bytes, so a torn
// frame the writer's bufio buffer half-flushed past the seal can never be
// observed. A short or missing header (headerOK false) is not an error —
// it is the normal state of a freshly created segment before its first
// sync, and of a tail file a crash cut between creation and the header
// reaching disk.
func scanSegmentBytes(data []byte, shardID int) (recs []walRecord, validEnd int64, headerOK bool) {
	if len(data) < segHeaderSize || string(data[:8]) != segMagic ||
		binary.LittleEndian.Uint32(data[8:]) != walVersion ||
		binary.LittleEndian.Uint32(data[12:]) != uint32(shardID) {
		return nil, 0, false
	}
	off := int64(segHeaderSize)
	for {
		rest := data[off:]
		if len(rest) < recHeaderSize {
			return recs, off, true
		}
		plen := binary.LittleEndian.Uint32(rest)
		if plen == 0 || plen > maxRecordBytes || int(plen) > len(rest)-recHeaderSize {
			return recs, off, true
		}
		payload := rest[recHeaderSize : recHeaderSize+int(plen)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, off, true
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return recs, off, true
		}
		rec.start = off
		rec.end = off + recHeaderSize + int64(plen)
		recs = append(recs, rec)
		off = rec.end
	}
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
