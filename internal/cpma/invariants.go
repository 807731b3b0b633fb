package cpma

import (
	"fmt"
	"strings"

	"repro/internal/codec"
)

// Validate is the strict invariant check the differential tests run after
// every mutation. On top of CheckInvariants' structural checks it verifies
// the three leaf-level properties the paper's design rests on, and reports
// the offending leaf's dump on failure:
//
//   - byte-density bounds: every non-empty leaf keeps at least the format's
//     insertion slack free (used <= LeafBytes - slack, where slack is
//     codec.MaxGrowth compressed and one key uncompressed). Both the
//     redistribution byte budget and the effective upper density bound
//     guarantee this at rest, so the next point insert into any leaf can
//     never overflow its capacity;
//   - strictly increasing decoded keys across the whole array;
//   - in the compressed format, zero-free byte codes: no delta code byte is
//     zero, preserving the all-zero empty-cell sentinel (the head, an
//     uncompressed uint64, is exempt).
func (c *CPMA) Validate() error {
	if err := c.CheckInvariants(); err != nil {
		return err
	}
	slackLimit := c.LeafBytes() - c.f.slack
	var prev uint64
	for leaf := 0; leaf < c.leaves; leaf++ {
		u := c.usedOf(leaf)
		if u == 0 {
			continue
		}
		if u > slackLimit {
			return fmt.Errorf("cpma: leaf %d holds %d bytes, above the at-rest density bound %d (leaf %d bytes - %d slack)\n%s",
				leaf, u, slackLimit, c.LeafBytes(), c.f.slack, c.DumpLeaf(leaf))
		}
		ld := c.leafData(leaf)
		for i := codec.HeadBytes; i < u && !c.f.raw; i++ {
			if ld[i] == 0 {
				return fmt.Errorf("cpma: leaf %d has a zero byte inside its code region at offset %d\n%s",
					leaf, i, c.DumpLeaf(leaf))
			}
		}
		for i, v := range c.f.decode(nil, ld, u) {
			if v <= prev {
				return fmt.Errorf("cpma: leaf %d key %d at position %d does not exceed predecessor %d\n%s",
					leaf, v, i, prev, c.DumpLeaf(leaf))
			}
			prev = v
		}
	}
	return nil
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
