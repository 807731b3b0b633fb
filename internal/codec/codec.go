// Package codec implements the delta-encoding byte codes the CPMA and the
// compressed PaC-tree blocks use (paper §5, "Data compression techniques").
//
// A value is stored as a little-endian sequence of bytes carrying 7 payload
// bits each; the high bit of every byte except the last is a continue bit.
// Deltas between distinct sorted keys are always >= 1, so no emitted byte is
// 0x00 — which lets compressed leaves use a zero byte as the end-of-data /
// empty-cell marker, exactly like the reference implementation.
package codec

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// MaxLen is the longest byte code for a uint64 (ceil(64/7) bytes).
const MaxLen = 10

// Len returns the number of bytes Put would write for v. Len(0) == 1.
func Len(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// Put writes the byte code of v at the start of dst and returns the number
// of bytes written. dst must have room (MaxLen bytes always suffice).
func Put(dst []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		dst[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	dst[i] = byte(v)
	return i + 1
}

// Get decodes a byte code from the start of src, returning the value and the
// number of bytes consumed. It assumes a well-formed code produced by Put.
func Get(src []byte) (v uint64, n int) {
	var shift uint
	for {
		b := src[n]
		v |= uint64(b&0x7f) << shift
		n++
		if b < 0x80 {
			return v, n
		}
		shift += 7
	}
}

// SizeOfRun returns the encoded size in bytes of a sorted, duplicate-free
// run of keys when stored as an 8-byte uncompressed head followed by delta
// byte codes. SizeOfRun(nil) == 0.
func SizeOfRun(elems []uint64) int {
	if len(elems) == 0 {
		return 0
	}
	size := HeadBytes
	for i := 1; i < len(elems); i++ {
		size += Len(elems[i] - elems[i-1])
	}
	return size
}

// HeadBytes is the size of the uncompressed head that precedes the delta
// codes in a compressed leaf or block.
const HeadBytes = 8

// MaxGrowth bounds how many bytes a single insertion can add to an encoded
// run: replacing one delta (>=1 byte) with two deltas of up to MaxLen bytes
// each, or prepending a new head. 2*MaxLen - 1 covers both cases.
const MaxGrowth = 2*MaxLen - 1

// EncodeRun writes elems (sorted, duplicate-free, non-empty) to dst as a
// head + delta codes and returns the bytes written. dst must have at least
// SizeOfRun(elems) bytes.
func EncodeRun(dst []byte, elems []uint64) int {
	putHead(dst, elems[0])
	n := HeadBytes
	prev := elems[0]
	for _, e := range elems[1:] {
		n += Put(dst[n:], e-prev)
		prev = e
	}
	return n
}

// DecodeRun appends the keys stored in src (head + delta codes, produced by
// EncodeRun) to dst and returns the extended slice. used is the number of
// encoded bytes in src. The decode loop is written inline — Go does not
// inline functions with loops, and this is the batch-merge hot path.
func DecodeRun(dst []uint64, src []byte, used int) []uint64 {
	if used == 0 {
		return dst
	}
	v := head(src)
	dst = append(dst, v)
	for n := HeadBytes; n < used; {
		b := src[n]
		n++
		d := uint64(b & 0x7f)
		for shift := uint(7); b >= 0x80; shift += 7 {
			b = src[n]
			n++
			d |= uint64(b&0x7f) << shift
		}
		v += d
		dst = append(dst, v)
	}
	return dst
}

// CountRun returns the number of keys in an encoded run of used bytes: 1
// plus the code-final bytes (high bit clear) past the head. It takes 32
// bytes a step: each byte lane of w counts the final bytes at that lane in
// four words, and one multiply sums the lanes. That took half the time of
// a popcount per word on a 450-byte run (2-vCPU Xeon, go1.24).
func CountRun(src []byte, used int) int {
	if used == 0 {
		return 0
	}
	const high = 0x8080808080808080
	n, b := 1, src[HeadBytes:used]
	for ; len(b) >= 32; b = b[32:] {
		w := (^binary.LittleEndian.Uint64(b)&high)>>7 + (^binary.LittleEndian.Uint64(b[8:])&high)>>7 +
			(^binary.LittleEndian.Uint64(b[16:])&high)>>7 + (^binary.LittleEndian.Uint64(b[24:])&high)>>7
		n += int(w * 0x0101010101010101 >> 56)
	}
	for _, x := range b {
		n += int(^x >> 7)
	}
	return n
}

// RunUsed returns the encoded bytes of the run at the start of src, whose
// bytes past the run are zero: 0 when the head is 0, else the offset of
// the first zero byte past the head (no code byte is zero), or len(src).
// The scan is bytes.IndexByte's vectorized one: on cold 512-byte leaves it
// took half the time of a binary search for the same byte (which the
// trailing zeros would allow), and as long on cached ones (2-vCPU Xeon,
// go1.24).
func RunUsed(src []byte) int {
	if head(src) == 0 {
		return 0
	}
	return RunEnd(src, HeadBytes)
}

// RunEnd is RunUsed for a non-empty run that is known to extend to at
// least from, a code boundary past the head: it scans only src[from:].
func RunEnd(src []byte, from int) int {
	if i := bytes.IndexByte(src[from:], 0); i >= 0 {
		return from + i
	}
	return len(src)
}

// The head is one little-endian uint64; binary.LittleEndian compiles to a
// single 8-byte load or store, which a byte loop does not.
func putHead(dst []byte, v uint64) { binary.LittleEndian.PutUint64(dst, v) }

func head(src []byte) uint64 { return binary.LittleEndian.Uint64(src) }

// Head returns the uncompressed head of an encoded run.
func Head(src []byte) uint64 { return head(src) }

// PutHead overwrites the head of an encoded run with v.
func PutHead(dst []byte, v uint64) { putHead(dst, v) }
