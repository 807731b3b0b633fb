package cpma

// Serialization: the persistence payoff of the paper's central design
// choice. A CPMA has no pointers — its whole state is its leaves plus a
// few geometry scalars — so serializing it is one pass over the leaves:
// no node traversal, no pointer fixup on load. (Contrast PaC-trees, whose
// purely-functional nodes force a pointer-chasing serializer.)
//
// There is one encoding, a list of leaves. A full image (WriteTo) lists
// every non-empty leaf; a delta (WriteDeltaTo) lists a caller-chosen
// subset — in practice the leaves ChangedSince reports for a published
// handle — so an incremental checkpoint costs O(written leaves), just as a
// Clone does in memory. ReadFrom loads a full image into a
// fresh CPMA; ApplyDeltaFrom patches a receiver of the same geometry.
// Geometry changes cannot be expressed as a delta: after a rebuild
// ChangedSince reports all, and the caller writes a full image instead. The format
// holds compressed leaves only: WriteTo and WriteDeltaTo refuse an
// uncompressed set.
//
// Format (version 1, all integers little-endian):
//
//	[ 8] magic "CPMALST1"
//	[ 4] version (1)
//	[ 4] leafLog2
//	[ 8] leaves
//	[ 8] n (stored keys)
//	[ 8] D (leaf entries)
//	D x { [4] leaf, [4] used, [4] ecnt }   ascending leaf order
//	D x encoded leaf bytes, used bytes each, concatenated in entry order
//	[ 4] CRC32C of every preceding byte
//
// The overflow spine is intentionally absent: it is non-nil only mid-batch,
// and serialization is defined on at-rest structures (Clone handles
// published by the shard writers are always at rest).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/codec"
)

const (
	encMagic      = "CPMALST1"
	encVersion    = 1
	encHeaderSize = 8 + 4 + 4 + 8 + 8 + 8
	encEntrySize  = 4 + 4 + 4
	encCRCSize    = 4

	// Sanity bounds the decoder enforces before allocating anything, so a
	// corrupted header cannot demand an absurd allocation. Leaves are at
	// most 1<<maxLeafLog2 bytes, the bound every CPMA is built within; the
	// leaf count then fits the 4-byte entry field. The lower bound admits
	// images written while the compressed floor was 256 bytes
	// (TestReadOldLeafImage); their leaves grow to the floor at the next
	// rebuild.
	minSlabLeafLog2 = 4
	maxSlabBytes    = 1 << 36
	// A fresh load allocates the whole data array, so its capacity must
	// also be plausible for the bytes the image carries: at most
	// maxSparseRatio times the encoded payload beyond a fixed floor.
	// Density bounds keep a live CPMA's leaves at least 10% full, so a
	// legitimate image sits far inside this limit.
	sparseFloorBytes = 1 << 20
	maxSparseRatio   = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NonEmptyLeaves returns the indices of the leaves holding keys, in
// ascending order: the entry list of a full image.
func (c *CPMA) NonEmptyLeaves() []int {
	var out []int
	for i := 0; i < c.leaves; i++ {
		if c.head(i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// EncodedSize returns the exact number of bytes WriteDeltaTo emits for the
// given leaves; EncodedSize(NonEmptyLeaves()) is the size of WriteTo.
func (c *CPMA) EncodedSize(leaves []int) uint64 {
	total := uint64(encHeaderSize + encCRCSize)
	for _, leaf := range leaves {
		total += encEntrySize + uint64(c.usedOf(leaf))
	}
	return total
}

// WriteTo serializes the CPMA as a full image (implementing io.WriterTo)
// and returns the bytes written. The receiver must be at rest (no batch in
// flight) and must not be mutated for the duration; frozen Clone handles
// satisfy both by construction.
func (c *CPMA) WriteTo(w io.Writer) (int64, error) {
	return c.WriteDeltaTo(w, c.NonEmptyLeaves())
}

// WriteDeltaTo serializes the given leaves (ascending, in range,
// duplicate-free, as ChangedSince returns them) and returns the bytes
// written, always EncodedSize(leaves) on success. The receiver must be at
// rest, like WriteTo, and compressed: an uncompressed set writes nothing
// and returns an error.
func (c *CPMA) WriteDeltaTo(w io.Writer, leaves []int) (int64, error) {
	if c.f.raw {
		return 0, errors.New("cpma: an uncompressed set has no encoding")
	}
	buf := make([]byte, encHeaderSize+encEntrySize*len(leaves))
	copy(buf, encMagic)
	binary.LittleEndian.PutUint32(buf[8:], encVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(c.leafLog2))
	binary.LittleEndian.PutUint64(buf[16:], uint64(c.leaves))
	binary.LittleEndian.PutUint64(buf[24:], uint64(c.n))
	binary.LittleEndian.PutUint64(buf[32:], uint64(len(leaves)))
	prev := -1
	for i, leaf := range leaves {
		if leaf <= prev || leaf >= c.leaves {
			return 0, fmt.Errorf("cpma: leaf %d out of order or range", leaf)
		}
		prev = leaf
		ld := c.leafData(leaf)
		u := c.f.used(ld)
		e := buf[encHeaderSize+encEntrySize*i:]
		binary.LittleEndian.PutUint32(e, uint32(leaf))
		binary.LittleEndian.PutUint32(e[4:], uint32(u))
		binary.LittleEndian.PutUint32(e[8:], uint32(c.f.count(ld, u)))
	}

	crc := crc32.New(castagnoli)
	mw := io.MultiWriter(w, crc)
	written, err := mw.Write(buf)
	for i, leaf := range leaves {
		if err != nil {
			return int64(written), err
		}
		u := binary.LittleEndian.Uint32(buf[encHeaderSize+encEntrySize*i+4:])
		var n int
		n, err = mw.Write(c.leafData(leaf)[:u])
		written += n
	}
	if err != nil {
		return int64(written), err
	}
	var tail [encCRCSize]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	n, err := w.Write(tail[:])
	return int64(written + n), err
}

// encoded is a decoded, fully verified image or delta.
type encoded struct {
	leafLog2 uint
	leaves   int
	n        int
	entries  []byte // D x encEntrySize
	payload  []byte
}

func (e *encoded) entry(i int) (leaf, used, ecnt int) {
	b := e.entries[encEntrySize*i:]
	return int(binary.LittleEndian.Uint32(b)), int(binary.LittleEndian.Uint32(b[4:])),
		int(binary.LittleEndian.Uint32(b[8:]))
}

// decode reads and verifies a whole stream before anyone mutates
// anything: CRC, magic and version, geometry bounds, entries ascending
// and in range, used <= leafBytes, every leaf's bytes a run the codec's
// validating pass accepts (codec.CheckRun: a nonzero head, no zero code
// byte, which would end the leaf early, and minimal codes that end by used
// and do not wrap) of ecnt keys, and the payload length. base,
// when non-nil, is the receiver of a delta: the stream must match its
// geometry, and its key count with the patched leaves' counts swapped for
// the entries' must equal the header's n. A fresh load (base nil) must
// sum to n on its own and be plausibly dense for its size.
func decode(r io.Reader, base *CPMA) (*encoded, error) {
	// Callers hand in bytes already in memory (a checkpoint file, a boot
	// frame); sizing the buffer up front saves ReadAll's regrowth copies.
	var bb bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		bb.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := bb.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("cpma: read: %w", err)
	}
	buf := bb.Bytes()
	if len(buf) < encHeaderSize+encCRCSize {
		return nil, fmt.Errorf("cpma: encoding truncated (%d bytes)", len(buf))
	}
	body, tail := buf[:len(buf)-encCRCSize], buf[len(buf)-encCRCSize:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("cpma: checksum mismatch (computed %08x, stored %08x)", got, want)
	}
	if string(body[:8]) != encMagic {
		return nil, fmt.Errorf("cpma: bad magic %q", body[:8])
	}
	if v := binary.LittleEndian.Uint32(body[8:]); v != encVersion {
		return nil, fmt.Errorf("cpma: unsupported version %d (want %d)", v, encVersion)
	}
	leafLog2 := binary.LittleEndian.Uint32(body[12:])
	leaves := binary.LittleEndian.Uint64(body[16:])
	count := binary.LittleEndian.Uint64(body[24:])
	d := binary.LittleEndian.Uint64(body[32:])
	if leafLog2 < minSlabLeafLog2 || leafLog2 > maxLeafLog2 {
		return nil, fmt.Errorf("cpma: leafLog2 %d out of range", leafLog2)
	}
	// Compare without shifting leaves: a crafted huge leaf count must not
	// overflow its way past the allocation bound.
	if leaves < 1 || leaves > maxSlabBytes>>leafLog2 {
		return nil, fmt.Errorf("cpma: geometry %d leaves x %d bytes out of range", leaves, 1<<leafLog2)
	}
	if base != nil && (uint(leafLog2) != base.leafLog2 || leaves != uint64(base.leaves)) {
		return nil, fmt.Errorf("cpma: geometry %d leaves x %d bytes does not match receiver (%d x %d)",
			leaves, 1<<leafLog2, base.leaves, base.LeafBytes())
	}
	if d > leaves || d > uint64(len(body)-encHeaderSize)/encEntrySize {
		return nil, fmt.Errorf("cpma: %d entries over %d leaves in %d bytes", d, leaves, len(body))
	}
	e := &encoded{leafLog2: uint(leafLog2), leaves: int(leaves)}
	e.entries = body[encHeaderSize : encHeaderSize+d*encEntrySize]
	e.payload = body[encHeaderSize+d*encEntrySize:]

	leafBytes := 1 << leafLog2
	total := uint64(0)
	if base != nil {
		total = uint64(base.n)
	}
	off, prev := 0, -1
	for i := 0; i < int(d); i++ {
		leaf, used, ecnt := e.entry(i)
		if leaf <= prev || leaf >= e.leaves {
			return nil, fmt.Errorf("cpma: entry leaf %d out of order or range", leaf)
		}
		prev = leaf
		if used > leafBytes || used > len(e.payload)-off {
			return nil, fmt.Errorf("cpma: leaf %d used %d runs past the leaf or the payload", leaf, used)
		}
		switch keys, _, err := codec.CheckRun(e.payload[off:], used); {
		case err != nil:
			return nil, fmt.Errorf("cpma: leaf %d: %w", leaf, err)
		case keys != ecnt:
			return nil, fmt.Errorf("cpma: leaf %d holds %d keys, its entry says %d", leaf, keys, ecnt)
		}
		if base != nil {
			ld := base.leafData(leaf)
			total -= uint64(base.f.count(ld, base.f.used(ld)))
		}
		total += uint64(ecnt)
		off += used
	}
	if off != len(e.payload) {
		return nil, fmt.Errorf("cpma: payload is %d bytes, entries claim %d", len(e.payload), off)
	}
	if total != count {
		return nil, fmt.Errorf("cpma: leaves hold %d keys but header says %d", total, count)
	}
	if base == nil && leaves<<leafLog2 > sparseFloorBytes && leaves<<leafLog2/maxSparseRatio > uint64(off) {
		return nil, fmt.Errorf("cpma: %d bytes of leaves cannot fill a %d-byte array", off, leaves<<leafLog2)
	}
	e.n = int(count)
	return e, nil
}

// patch copies every entry's bytes into the receiver's leaves and zeroes
// the rest of each, which ends the leaf.
func (c *CPMA) patch(e *encoded) {
	off := 0
	for i := 0; i < len(e.entries)/encEntrySize; i++ {
		leaf, used, _ := e.entry(i)
		ld := c.leafW(leaf)
		clearBytes(ld[copy(ld, e.payload[off:off+used]):])
		off += used
	}
	c.n = e.n
}

// ReadFrom deserializes a full image written by WriteTo into a fresh CPMA
// whose data array is one zeroed, contiguous allocation of the stream's
// geometry. opts plays the role it plays in New — it configures future
// rebuilds and may be nil for defaults. The whole stream is verified (see
// decode) before anything is built; callers that distrust the producer
// should additionally run Validate on the result.
func ReadFrom(r io.Reader, opts *Options) (*CPMA, error) {
	e, err := decode(r, nil)
	if err != nil {
		return nil, err
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	c := &CPMA{opt: o.withDefaults(), f: compressed, gen: newGen()}
	c.setGeometry(e.leaves, 1<<e.leafLog2)
	c.patch(e)
	return c, nil
}

// ApplyDeltaFrom patches the receiver with a delta written by WriteDeltaTo
// against the receiver's current geometry. The whole stream is read and
// verified before any leaf is touched, so a failed apply leaves the
// receiver exactly as it was (recovery relies on this to stop cleanly at
// the first corrupt delta in a chain). The patched leaves go through the
// write gateway like any other write: applying a delta onto a cloned base
// unshares and stamps only those leaves.
func (c *CPMA) ApplyDeltaFrom(r io.Reader) error {
	e, err := decode(r, c)
	if err != nil {
		return err
	}
	c.patch(e)
	return nil
}
