// Package codec implements the delta byte code the CPMA, its checkpoints,
// the write-ahead log and the compressed PaC-tree blocks use (paper §5,
// "Data compression techniques"), and it is the only package that decodes
// it.
//
// A value is stored as a little-endian sequence of bytes carrying 7 payload
// bits each; the high bit of every byte except the last is a continue bit.
// Deltas between distinct sorted keys are always >= 1, so no emitted byte is
// 0x00 — which lets compressed leaves use a zero byte as the end-of-data /
// empty-cell marker, exactly like the reference implementation. A run is
// an 8-byte little-endian head (its first key) followed by the delta codes
// of the rest.
//
// Two decoders read the code, one per kind of input:
//
//   - Step is the trusted step: it decodes the code at an offset of bytes
//     this process encoded (leaves, blocks) from one 8-byte load, and falls
//     back to bytes near the slab's end and for codes over eight bytes. It
//     checks nothing, and a walk over it ends at a zero code. Walk and Seek
//     are the loops over it that every leaf and block scan and search
//     uses; DecodeRun, the bulk decoder of a whole run, keeps a byte loop.
//   - CheckRun is the validating pass for bytes from outside: checkpoints
//     and follower boot frames (a leaf at a time), and the leaves Validate
//     audits. It returns a run's key count and last key, or why the run is
//     not one EncodeRun could have written. Read is the same strictness
//     for one code at a time, which the write-ahead log's segments and
//     replication recs frames go through (their deltas may be 0, so they
//     are not runs).
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	PutHead(dst, elems[0])
	n := HeadBytes
	prev := elems[0]
	for _, e := range elems[1:] {
		n += Put(dst[n:], e-prev)
		prev = e
	}
	return n
}

// high holds the continue bit of each of eight code bytes.
const high = 0x8080808080808080

// word decodes the code at the start of w, eight code bytes loaded
// little-endian, and returns its value and length; n == 0 when all eight
// carry continue bits. A code ends at its first byte without a continue
// bit, which bits.TrailingZeros64 finds, and groups packs the 7-bit groups
// below it, so nothing branches on the code's length (that branch
// mispredicts on runs mixing code lengths). The branch on a code of over
// eight bytes is all but never taken; masking n to 0 instead put three
// more operations on a walk's chain of offsets, and a leaf scan took
// ~1.15x as long. Bytes of w past the code are ignored, so a load may
// reach past the end of a run into bytes that are never decoded.
func word(w uint64) (d uint64, n int) {
	stop := ^w & high
	if stop == 0 {
		return 0, 0
	}
	// stop-1 keeps the bits below the stop bit, bit 7 of the code's last
	// byte.
	return groups(w & (stop - 1)), (bits.TrailingZeros64(stop) + 1) >> 3
}

// groups packs the 7-bit groups of up to eight code bytes, least
// significant first, into the value they encode.
func groups(w uint64) uint64 {
	w &= 0x7f7f7f7f7f7f7f7f
	w = w&0x007f007f007f007f | w>>1&0x3f803f803f803f80
	w = w&0x00003fff00003fff | w>>2&0x0fffc0000fffc000
	return w&0x000000000fffffff | w>>4&0x00fffffff0000000
}

// lowBits masks bits 0 through t.
func lowBits(t uint) uint64 { return ^uint64(0) >> (63 - t) }

// Step is the trusted step: it decodes the code at src[off:], which Put
// wrote, and returns its value and length. It takes the code from one
// 8-byte load (word), and reads it a byte at a time (Read) only in the
// last seven bytes of src and for codes of more than eight bytes (deltas
// of 2^56 or more). A zero byte decodes as the code 0, which is how a walk
// finds the end of a leaf; so does a code that Read refuses, so no walk
// runs past src.
func Step(src []byte, off int) (d uint64, n int) {
	if off+8 <= len(src) {
		if d, n = word(binary.LittleEndian.Uint64(src[off:])); n != 0 {
			return d, n
		}
	}
	return Read(src[off:])
}

// Walk is the walk over Step: it applies f to the keys whose codes start
// at or after off in src, where v is the key before off, until f returns
// false or a zero code or the end of src ends the run. It reports whether
// the run's end was reached. Step's body is written out in the loop: it
// is above Go's inlining budget (a call alone costs 57 of its 80), and
// calling it took ~10% longer per key on leaf scans.
func Walk(src []byte, off int, v uint64, f func(uint64) bool) bool {
	for off < len(src) {
		var d uint64
		n := 0
		if off+8 <= len(src) {
			d, n = word(binary.LittleEndian.Uint64(src[off:]))
		}
		if n == 0 {
			d, n = Read(src[off:])
		}
		if d == 0 {
			break
		}
		v += d
		off += n
		if !f(v) {
			return false
		}
	}
	return true
}

// Seek finds the first key >= x of a non-empty run in src, which ends at
// a zero code or the end of src. It returns that key v, the key before it
// (prev, 0 for the head) and the bytes [start, end) holding v: [0,
// HeadBytes) for the head, else v's delta code. When every key is below x
// it returns start == end == the run's end and prev == v == the last key.
//
// Seek decodes as Step does, and takes a load's second code too when it
// ends inside the same eight bytes, which halves the loads its carried
// offset waits on. Both codes' ends come from one mask of continue bits, so
// nothing branches on code lengths, and the offset waits on no length
// computed from the first code: taking the second code with word on the
// shifted load took ~1.1x as long, and a byte-at-a-time seek ~1.3x on
// graph edge keys and ~1.2x on uniform 40-bit keys (2.1 GHz Xeon, go1.24).
// A load may reach past the run's end; those bytes lie past its zero code
// and are masked off or never decoded.
func Seek(src []byte, x uint64) (prev, v uint64, start, end int) {
	v = Head(src)
	if v >= x {
		return 0, v, 0, HeadBytes
	}
	for off := HeadBytes; off < len(src); {
		if off+8 <= len(src) {
			w := binary.LittleEndian.Uint64(src[off:])
			if stop := ^w & high; stop != 0 {
				t1 := uint(bits.TrailingZeros64(stop)) // bit 7 of the code's last byte
				d1, n1 := groups(w&lowBits(t1)), int(t1+1)>>3
				if v+d1 >= x {
					return v, v + d1, off, off + n1
				}
				if d1 == 0 {
					return v, v, off, off
				}
				v += d1
				// The next code, if it ends in this word and is not the
				// zero one; else keep zeroes it and v stays below x.
				rest := stop & (stop - 1)
				t2 := uint(bits.TrailingZeros64(rest)) // 64 if none
				var keep uint64
				n := n1
				if rest != 0 && w>>(t1+1)&0xff != 0 {
					keep, n = ^uint64(0), int(t2+1)>>3
				}
				d2 := groups(w>>(t1+1)&lowBits((t2-t1-1)&63)) & keep
				if v+d2 >= x {
					return v, v + d2, off + n1, off + n
				}
				v += d2
				off += n
				continue
			}
		}
		d, n := Step(src, off)
		if v+d >= x {
			return v, v + d, off, off + n
		}
		if d == 0 {
			return v, v, off, off
		}
		v += d
		off += n
	}
	return v, v, len(src), len(src)
}

// DecodeRun appends the keys stored in src (head + delta codes, produced by
// EncodeRun) to dst and returns the extended slice. used is the number of
// encoded bytes in src. It decodes a byte at a time, with the loop written
// out, and not with Step: per key that took a quarter of Step's time on
// 1-byte codes and less on 2- and 3-byte ones, which are most codes of
// every benchmark workload (TestWorkloadCodeMix in internal/cpma), while
// Step wins by ~10% on graph-stream's mix and ties on 4- and 5-byte codes
// (BenchmarkDecodeRun). A loop calling a byte-at-a-time step function took
// ~1.5x as long: its returned length is one more link in the chain of
// offsets.
func DecodeRun(dst []uint64, src []byte, used int) []uint64 {
	if used == 0 {
		return dst
	}
	v := Head(src)
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

// Read is the strict single-code reader for untrusted bytes: it decodes
// the code at the start of src and returns its value and length, n == 0
// when src ends inside the code, or n < 0 when the code is longer than
// MaxLen bytes, is worth 2^64 or more, or is not the minimal code of its
// value (a final zero byte after others). Any value may be read,
// including 0.
func Read(src []byte) (v uint64, n int) {
	for i, b := range src {
		switch {
		case i == MaxLen:
			return 0, -1
		case b >= 0x80:
			v |= uint64(b&0x7f) << (7 * i)
		case i > 0 && b == 0, i == MaxLen-1 && b > 1:
			return 0, -1
		default:
			return v | uint64(b)<<(7*i), i + 1
		}
	}
	return 0, 0
}

// CheckRun is the validating pass over src[:used], a run from outside the
// process. It returns the run's key count and last key (0 and 0 for an
// empty run), or an error when the run is not one EncodeRun could have
// written: a head shorter than HeadBytes or zero, a zero code byte (a zero
// code, or the last byte of a non-minimal one), a code that does not end
// before used, one longer than MaxLen bytes or worth 2^64 or more, or keys
// that wrap past 2^64. It never reads src past used. The zero bytes and
// the last byte are checked first, so the decode loop, which is
// DecodeRun's, can rely on every code ending by used. That loop took ~0.7x
// the time of one over word loads on 3-byte codes, and as long on 3- and
// 4-byte ones (cpma.ReadFrom of 200k keys).
func CheckRun(src []byte, used int) (count int, last uint64, err error) {
	switch {
	case used == 0:
		return 0, 0, nil
	case used < HeadBytes || Head(src) == 0:
		return 0, 0, errors.New("codec: run shorter than its head, or with a zero head")
	case bytes.IndexByte(src[HeadBytes:used], 0) >= 0:
		return 0, 0, errors.New("codec: zero byte among the codes")
	case used > HeadBytes && src[used-1] >= 0x80:
		return 0, 0, errors.New("codec: code does not end before the run's end")
	}
	v := Head(src)
	for n := HeadBytes; n < used; {
		b := src[n]
		n++
		d := uint64(b & 0x7f)
		for shift := uint(7); b >= 0x80; shift += 7 {
			b = src[n]
			n++
			if shift == 63 && b > 1 {
				return 0, 0, errors.New("codec: code over MaxLen bytes or worth 2^64 or more")
			}
			d |= uint64(b&0x7f) << shift
		}
		if v+d < v {
			return 0, 0, errors.New("codec: keys wrap past 2^64")
		}
		v += d
		count++
	}
	return count + 1, v, nil
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
	if Head(src) == 0 {
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

// Head returns the uncompressed head of an encoded run: one little-endian
// uint64, which binary.LittleEndian loads in one instruction.
func Head(src []byte) uint64 { return binary.LittleEndian.Uint64(src) }

// PutHead overwrites the head of an encoded run with v.
func PutHead(dst []byte, v uint64) { binary.LittleEndian.PutUint64(dst, v) }
