package cpma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/codec"
)

// CheckInvariants verifies the structural invariants; tests call it after
// every mutation batch. The spine's generation stamps are ordered, no leaf
// holds an undrained batch record, and every leaf is one pass of checkLeaf:
// its used bytes are a run as its format writes it (compressed, a run the
// codec's validating pass accepts, codec.CheckRun, so minimal codes and no
// zero code byte), of the count the format's counter reports, with zero
// bytes past it. Keys increase strictly across the whole array and add up
// to the set's size.
func (c *CPMA) CheckInvariants() error { return c.check(false) }

// Validate is the strict invariant check the differential tests, recovery
// and follower boots run. On top of CheckInvariants it checks the byte-
// density bound: every non-empty leaf keeps at least the format's
// insertion slack free (used <= LeafBytes - slack, where slack is
// codec.MaxGrowth compressed and one key uncompressed). Both the
// redistribution byte budget and the effective upper density bound
// guarantee this at rest, so the next point insert into any leaf can never
// overflow its capacity. A leaf's failure is reported with its dump.
func (c *CPMA) Validate() error { return c.check(true) }

func (c *CPMA) check(strict bool) error {
	if chunksFor(c.leaves) != len(c.lf) {
		return fmt.Errorf("cpma: geometry mismatch (%d leaves, %d spine chunks)", c.leaves, len(c.lf))
	}
	for i := range c.lf {
		ch := c.lf[i].Load()
		if ch.gen > c.gen {
			return fmt.Errorf("cpma: chunk %d stamped %d, after the set's generation %d", i, ch.gen, c.gen)
		}
		for j := range ch.leaves {
			if ch.leaves[j].gen > ch.gen {
				return fmt.Errorf("cpma: leaf %d stamped %d, after its chunk's %d", i<<chunkLog+j, ch.leaves[j].gen, ch.gen)
			}
		}
	}
	total := 0
	var prev uint64
	for leaf := 0; leaf < c.leaves; leaf++ {
		n, last, err := c.checkLeaf(leaf, prev, strict)
		if err != nil {
			return fmt.Errorf("cpma: leaf %d: %w\n%s", leaf, err, c.DumpLeaf(leaf))
		}
		if n > 0 {
			prev = last
		}
		total += n
	}
	if total != c.n {
		return fmt.Errorf("cpma: n=%d but leaves hold %d", c.n, total)
	}
	return nil
}

// checkLeaf decodes one leaf once, checking it as check describes with
// prev the last key before it, and returns its key count and last key.
func (c *CPMA) checkLeaf(leaf int, prev uint64, strict bool) (n int, last uint64, err error) {
	if c.sizes != nil && (c.sizes[leaf] != 0 || c.overflow[leaf] != nil) {
		return 0, 0, errors.New("undrained batch record")
	}
	ld := c.leafData(leaf)
	u := c.f.used(ld)
	if c.f.raw {
		n, last, err = rawCheck(ld, u)
	} else {
		n, last, err = codec.CheckRun(ld, u)
	}
	switch {
	case err != nil:
		return 0, 0, err
	case n != c.f.count(ld, u):
		return 0, 0, fmt.Errorf("decodes to %d keys, its count is %d", n, c.f.count(ld, u))
	case n > 0 && codec.Head(ld) <= prev:
		return 0, 0, fmt.Errorf("first key %d does not exceed the last key %d before it", codec.Head(ld), prev)
	case strict && u > c.LeafBytes()-c.f.slack:
		return 0, 0, fmt.Errorf("holds %d bytes, above the at-rest density bound %d (leaf %d bytes - %d slack)",
			u, c.LeafBytes()-c.f.slack, c.LeafBytes(), c.f.slack)
	}
	if rest := bytes.TrimLeft(ld[u:], "\x00"); len(rest) > 0 {
		return 0, 0, fmt.Errorf("byte %d nonzero past used %d", len(ld)-len(rest), u)
	}
	return n, last, nil
}

// rawCheck is codec.CheckRun for the used bytes of an uncompressed leaf:
// its keys must be nonzero and strictly increasing.
func rawCheck(ld []byte, used int) (n int, last uint64, err error) {
	for off := 0; off < used; off += 8 {
		k := binary.LittleEndian.Uint64(ld[off:])
		if k <= last {
			return 0, 0, fmt.Errorf("key %d at byte %d is zero or does not exceed %d", k, off, last)
		}
		last = k
	}
	return used / 8, last, nil
}

// DumpLeaf formats one leaf for failure messages: geometry, the used byte
// region in hex, and the decoded keys.
func (c *CPMA) DumpLeaf(leaf int) string {
	var b strings.Builder
	ld := c.leafData(leaf)
	u := c.f.used(ld)
	fmt.Fprintf(&b, "leaf %d/%d: used=%d count=%d cap=%d", leaf, c.leaves, u, c.f.count(ld, u), c.LeafBytes())
	if u > 0 {
		fmt.Fprintf(&b, "\n  head=%d bytes=% x", codec.Head(ld), ld[:u])
		fmt.Fprintf(&b, "\n  keys=%v", c.f.decode(nil, ld, u))
	}
	return b.String()
}
