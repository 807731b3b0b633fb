package cpma

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/workload"
)

// roundTrip serializes c, asserts the byte count matches EncodedSize, and
// deserializes it back with the same options.
func roundTrip(t *testing.T, c *CPMA, opts *Options) *CPMA {
	t.Helper()
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if want := c.EncodedSize(c.NonEmptyLeaves()); uint64(n) != want {
		t.Fatalf("WriteTo wrote %d bytes, EncodedSize says %d", n, want)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, buffer holds %d", n, buf.Len())
	}
	d, err := ReadFrom(&buf, opts)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	return d
}

// assertEqualSets checks that two CPMAs decode to the same keys and both
// pass the strict validator.
func assertEqualSets(t *testing.T, want, got *CPMA) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("deserialized CPMA invalid: %v", err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("Len mismatch: want %d, got %d", want.Len(), got.Len())
	}
	if !slices.Equal(want.Keys(), got.Keys()) {
		t.Fatal("key sets differ after round trip")
	}
}

func TestSlabRoundTripStates(t *testing.T) {
	r := workload.NewRNG(7)
	for _, tc := range []struct {
		name string
		opts *Options
		fill func(c *CPMA)
	}{
		{"empty", nil, func(c *CPMA) {}},
		{"single-key", nil, func(c *CPMA) { c.Insert(42) }},
		// LeafBytes == minCapacity gives exactly one leaf.
		{"single-leaf", &Options{LeafBytes: compressed.minCapacity()}, func(c *CPMA) {
			c.InsertBatch([]uint64{3, 9, 1 << 30, 1 << 50}, true)
		}},
		// A leaf size past the decoder's bound is clamped to it, so the
		// image still reads back.
		{"huge-leaf", &Options{LeafBytes: 1 << 21}, func(c *CPMA) {
			c.InsertBatch(workload.Uniform(r, 5_000, 40), false)
		}},
		// Dense sequential keys drive every leaf toward the byte-density
		// ceiling (1-byte deltas), the max-density shape.
		{"max-density", nil, func(c *CPMA) {
			keys := make([]uint64, 40_000)
			for i := range keys {
				keys[i] = uint64(i + 1)
			}
			c.InsertBatch(keys, true)
		}},
		{"uniform-grown", nil, func(c *CPMA) {
			c.InsertBatch(workload.Uniform(r, 60_000, 40), false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.opts)
			tc.fill(c)
			if err := c.Validate(); err != nil {
				t.Fatalf("source invalid before serialization: %v", err)
			}
			assertEqualSets(t, c, roundTrip(t, c, tc.opts))
		})
	}
}

// TestSlabRoundTripAcrossRebuilds walks one CPMA through growth and shrink
// rebuilds, round-tripping at every stage, and finally checks the
// deserialized copy is a fully functional CPMA by mutating it onward.
func TestSlabRoundTripAcrossRebuilds(t *testing.T) {
	r := workload.NewRNG(11)
	c := New(nil)
	keys := workload.Uniform(r, 80_000, 40)
	for i := 0; i < len(keys); i += 20_000 { // growth rebuilds
		c.InsertBatch(keys[i:i+20_000], false)
		assertEqualSets(t, c, roundTrip(t, c, nil))
	}
	c.RemoveBatch(keys[:72_000], false) // shrink rebuilds
	d := roundTrip(t, c, nil)
	assertEqualSets(t, c, d)

	// The copy must keep working independently of the original.
	fresh := d.InsertBatch(keys[:30_000], false)
	if err := d.Validate(); err != nil {
		t.Fatalf("mutated deserialized CPMA invalid: %v", err)
	}
	if c.Len()+fresh != d.Len() {
		t.Fatalf("independent mutation leaked: orig %d + %d fresh != copy %d", c.Len(), fresh, d.Len())
	}
}

// TestSlabRejectsCorruption: every malformed image is refused with an
// error. Structural cases carry a recomputed CRC, so the decoder's own
// check is what rejects them, not the checksum.
func TestSlabRejectsCorruption(t *testing.T) {
	c := New(nil)
	c.InsertBatch([]uint64{5, 9, 1000, 1 << 33}, true)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if c.Leaves() < 2 || len(c.NonEmptyLeaves()) != 1 {
		t.Fatalf("fixture wants one non-empty leaf of several, has %v of %d", c.NonEmptyLeaves(), c.Leaves())
	}
	entry := good[encHeaderSize:]                      // the single {leaf, used, ecnt}
	used := int(binary.LittleEndian.Uint32(entry[4:])) // its payload follows the entry
	data := encHeaderSize + encEntrySize

	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	forge := func(mutate func(b []byte)) []byte {
		return withCRC(corrupt(mutate))
	}
	cases := map[string][]byte{
		"bad-magic":   forge(func(b []byte) { b[0] = 'X' }),
		"bad-version": forge(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 99) }),
		"leaflog-out-of-range": forge(func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:], 40)
		}),
		"zero-leaves": forge(func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 0) }),
		"overflowing-geometry": forge(func(b []byte) {
			// leaves<<leafLog2 wraps uint64; the bound check must not.
			binary.LittleEndian.PutUint32(b[12:], 4)
			binary.LittleEndian.PutUint64(b[16:], 1<<60)
		}),
		"sparse-geometry": forge(func(b []byte) {
			// In range, but 16 GiB for four keys: refused before allocating.
			binary.LittleEndian.PutUint64(b[16:], 1<<26)
		}),
		"absurd-count":     forge(func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 1<<40) }),
		"absurd-entries":   forge(func(b []byte) { binary.LittleEndian.PutUint64(b[32:], 1<<40) }),
		"flipped-metadata": forge(func(b []byte) { b[encHeaderSize] ^= 0xff }),
		"used-over-leaf": forge(func(b []byte) {
			binary.LittleEndian.PutUint32(b[encHeaderSize+4:], uint32(c.LeafBytes()+1))
		}),
		"empty-with-keys": forge(func(b []byte) {
			binary.LittleEndian.PutUint32(b[encHeaderSize+4:], 0)
		}),
		"short-head": forge(func(b []byte) {
			binary.LittleEndian.PutUint32(b[encHeaderSize+4:], codec.HeadBytes-1)
		}),
		// The last code byte carries a continue bit: a decode would run
		// past used.
		"code-runs-past-used": forge(func(b []byte) { b[data+used-1] |= 0x80 }),
		"zero-head":           forge(func(b []byte) { clear(b[data : data+codec.HeadBytes]) }),
		"zero-in-codes":       forge(zeroFirstCode),
		"ecnt-and-n-bumped":   forge(bumpFirstEcnt),
		"overlong-code":       oneCodeImage(overlongCode...),
		"overflowing-code":    oneCodeImage(overflowingCode...),
		"flipped-data":        corrupt(func(b []byte) { b[len(b)-10] ^= 0x01 }),
		"flipped-crc":         corrupt(func(b []byte) { b[len(b)-1] ^= 0x01 }),
		"truncated":           good[:len(good)-7],
		"payload-short":       withCRC(append(append([]byte(nil), good[:len(good)-5]...), 0, 0, 0, 0)),
		"empty":               nil,
	}
	for name, blob := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadFrom(bytes.NewReader(blob), nil); err == nil {
				t.Fatal("ReadFrom accepted a corrupted image")
			}
		})
	}

	// A short writer must surface the error, not emit a silent prefix.
	if _, err := c.WriteTo(&limitedWriter{limit: 10}); err == nil {
		t.Fatal("WriteTo swallowed a short write")
	}
}

// TestUncompressedHasNoEncoding: the encoding holds compressed leaves
// only, so an uncompressed set refuses to write and writes nothing.
func TestUncompressedHasNoEncoding(t *testing.T) {
	c := UncompressedFromSorted([]uint64{5, 9, 1000, 1 << 33}, nil)
	var buf bytes.Buffer
	if n, err := c.WriteTo(&buf); err == nil || n != 0 {
		t.Fatalf("WriteTo = %d, %v; want 0 and an error", n, err)
	}
	if n, err := c.WriteDeltaTo(&buf, c.NonEmptyLeaves()); err == nil || n != 0 {
		t.Fatalf("WriteDeltaTo = %d, %v; want 0 and an error", n, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused writes left %d bytes", buf.Len())
	}
}

// TestReadOldLeafImage loads testdata/base-256.cpma, a base image written
// while the compressed leaf floor was 256 bytes: the 3000 keys of
// workload.Uniform(NewRNG(20), 3000, 32), the first 2000 batch-inserted
// into an empty set and the rest point-inserted. The decoder still admits
// its 256-byte leaves, the set validates and takes point updates in that
// geometry, and a batch large enough to rebuild moves it to 512-byte
// leaves.
func TestReadOldLeafImage(t *testing.T) {
	img, err := os.ReadFile("testdata/base-256.cpma")
	if err != nil {
		t.Fatal(err)
	}
	c, err := ReadFrom(bytes.NewReader(img), nil)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if c.LeafBytes() != 256 {
		t.Fatalf("image loads with %d-byte leaves, want 256", c.LeafBytes())
	}
	keys := workload.Uniform(workload.NewRNG(20), 3000, 32)
	want := sortedUnion(keys, nil)
	checkAgainst(t, c, want)

	// Point updates keep the old geometry.
	extra := workload.Uniform(workload.NewRNG(22), 1000, 32)
	for _, k := range extra[:50] {
		c.Insert(k)
	}
	c.Remove(want[0])
	want = sortedUnion(want[1:], extra[:50])
	checkAgainst(t, c, want)
	if c.LeafBytes() != 256 {
		t.Fatalf("point updates moved the leaves to %d bytes", c.LeafBytes())
	}

	// A batch of at least n/10 keys rebuilds at the new floor.
	c.InsertBatch(extra[50:], false)
	want = sortedUnion(want, extra[50:])
	checkAgainst(t, c, want)
	if c.LeafBytes() != compressed.minLeafBytes {
		t.Fatalf("rebuild kept %d-byte leaves, want %d", c.LeafBytes(), compressed.minLeafBytes)
	}
	assertEqualSets(t, c, roundTrip(t, c, nil))
}

// TestDecodeFullLeafPastUsed is the crafted input that used to crash a
// follower: a leaf with used == leafBytes whose bytes all carry continue
// bits, under a valid CRC. The decoder must refuse it.
func TestDecodeFullLeafPastUsed(t *testing.T) {
	c := New(nil)
	c.Insert(42)
	lb := c.LeafBytes()
	var buf bytes.Buffer
	if _, err := c.WriteDeltaTo(&buf, nil); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:encHeaderSize]
	binary.LittleEndian.PutUint64(b[32:], 1)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(lb))
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, 42, 0, 0, 0, 0, 0, 0, 0)
	for len(b) < encHeaderSize+encEntrySize+lb {
		b = append(b, 0xff)
	}
	b = withCRC(append(b, 0, 0, 0, 0))
	if _, err := ReadFrom(bytes.NewReader(b), nil); err == nil {
		t.Fatal("ReadFrom accepted a leaf whose code runs past used")
	}
}

// bumpFirstEcnt raises an image's first entry's ecnt and its header's n
// by one, a pair the decoder once accepted: the set loaded with one key
// more than it held.
func bumpFirstEcnt(b []byte) {
	e := b[encHeaderSize+8:]
	binary.LittleEndian.PutUint32(e, binary.LittleEndian.Uint32(e)+1)
	binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
}

// zeroFirstCode zeroes the first code of an image's first leaf, which the
// decoder once accepted: a zero byte ends a leaf.
func zeroFirstCode(b []byte) {
	b[encHeaderSize+encEntrySize*int(binary.LittleEndian.Uint64(b[32:]))+codec.HeadBytes] = 0
}

// overlongCode is 11 bytes long, and overflowingCode is worth more than
// 2^64; both end in a final byte, so only a decoder that checks each
// code's length and value refuses them.
var (
	overlongCode    = []byte{0x84, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	overflowingCode = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
)

// oneCodeImage returns a CRC-valid image whose one non-empty leaf holds a
// head and code as its one delta, with that leaf's size to match.
func oneCodeImage(code ...byte) []byte {
	c := New(nil)
	c.InsertBatch([]uint64{5, 9}, true)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil || len(c.NonEmptyLeaves()) != 1 {
		panic(fmt.Sprintf("oneCodeImage fixture: %v, %d non-empty leaves", err, len(c.NonEmptyLeaves())))
	}
	head := encHeaderSize + encEntrySize
	b := append(buf.Bytes()[:head+codec.HeadBytes], code...)
	binary.LittleEndian.PutUint32(b[encHeaderSize+4:], uint32(codec.HeadBytes+len(code)))
	return withCRC(append(b, 0, 0, 0, 0))
}

// withCRC replaces the last four bytes of b with the CRC32C of the rest.
func withCRC(b []byte) []byte {
	if len(b) < encCRCSize {
		return b
	}
	body := b[:len(b)-encCRCSize]
	binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, castagnoli))
	return b
}

// FuzzDecode feeds arbitrary bytes to both entry points of the decoder,
// as they arrive and with a valid CRC appended over them, so mutations
// reach the structural checks behind the checksum. Whatever the input,
// ReadFrom and ApplyDeltaFrom (onto a fixed base) either fail or produce
// a set whose Validate runs to completion.
func FuzzDecode(f *testing.F) {
	r := workload.NewRNG(3)
	opts := &Options{LeafBytes: 512, PointThreshold: 10}
	c := New(opts)
	c.InsertBatch(workload.Uniform(r, 60, 30), false)
	base := c.Clone()
	c.InsertBatch(workload.Uniform(r, 3, 30), false)
	handle := c.Clone()
	_, changed := handle.ChangedSince(base.Gen())

	var delta bytes.Buffer
	if _, err := handle.WriteDeltaTo(&delta, changed); err != nil {
		f.Fatal(err)
	}
	f.Add(delta.Bytes())
	for _, s := range []*CPMA{New(nil), FromSorted([]uint64{1, 2, 3, 1 << 40}, nil), base} {
		var img bytes.Buffer
		if _, err := s.WriteTo(&img); err != nil {
			f.Fatal(err)
		}
		f.Add(img.Bytes())
	}
	// The crafted images behind the ecnt, zero-code and code checks.
	for _, mutate := range []func([]byte){bumpFirstEcnt, zeroFirstCode} {
		var img bytes.Buffer
		if _, err := base.WriteTo(&img); err != nil {
			f.Fatal(err)
		}
		mutate(img.Bytes())
		f.Add(withCRC(img.Bytes()))
	}
	f.Add(oneCodeImage(overlongCode...))
	f.Add(oneCodeImage(overflowingCode...))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, withCRC(append([]byte(nil), in...))} {
			if s, err := ReadFrom(bytes.NewReader(b), opts); err == nil {
				_ = s.Validate()
			}
			d := base.Clone()
			if err := d.ApplyDeltaFrom(bytes.NewReader(b)); err == nil {
				_ = d.Validate()
			}
		}
	})
}

type limitedWriter struct{ limit int }

func (w *limitedWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, io.ErrShortWrite
	}
	w.limit -= len(p)
	return len(p), nil
}
