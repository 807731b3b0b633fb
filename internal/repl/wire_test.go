package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/cpma"
	"repro/internal/persist"
	"repro/internal/shard"
)

// frame encodes one frame through the real sender and returns its payload.
func frame(t *testing.T, send func(sk *connSink) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := send(&connSink{w: bufio.NewWriter(&buf)}); err != nil {
		t.Fatal(err)
	}
	_, payload, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestMalformedFrames: a follower must not trust its socket. A well-formed
// recs frame and a newer boundary table are served by reads at once (the
// applier publishes them); then every malformed frame must return an
// error, apply nothing, and leave the follower valid — no panic on a bad
// boundary table, no unsorted or zero keys slipped into a replica shard,
// and no allocation sized by an unchecked record count.
func TestMalformedFrames(t *testing.T) {
	f := NewFollower(3, &shard.Options{Partition: shard.RangePartition, KeyBits: 16})
	c := &Conn{f: f}
	recs := func(p int, rs ...persist.Rec) []byte {
		return frame(t, func(sk *connSink) error { return sk.sendRecs(p, rs) })
	}
	bounds := func(gen uint64, b ...uint64) []byte {
		return frame(t, func(sk *connSink) error { return sk.sendBounds(gen, b) })
	}

	if err := c.applyRecsFrame(recs(0,
		persist.Rec{Seq: 1, Keys: []uint64{5, 9, 9, 12}},
		persist.Rec{Seq: 2, Remove: true, Keys: []uint64{9}})); err != nil {
		t.Fatal(err)
	}
	if err := c.applyBoundsFrame(bounds(1, 100, 200)); err != nil {
		t.Fatal(err)
	}
	sn := f.Snapshot()
	for p := 0; p < 3; p++ {
		if !slices.Equal(sn.ShardSets()[p].Keys(), f.Set().ShardKeys(p)) {
			t.Fatalf("shard %d: snapshot diverges from ShardKeys", p)
		}
	}
	if !slices.Equal(sn.Keys(), []uint64{5, 12}) || !slices.Equal(sn.Bounds(), []uint64{100, 200}) {
		t.Fatalf("follower serves keys %v bounds %v", sn.Keys(), sn.Bounds())
	}

	// A hello in the current format parses, so the old-magic case below
	// fails on its magic alone.
	pr := &Primary{set: f.Set()}
	if _, err := pr.parseHello(helloPayload(f)); err != nil {
		t.Fatalf("current hello refused: %v", err)
	}

	// Boot frames: the cpma encoding after a 12-byte {shard, tip} prefix.
	// forge edits a well-formed frame and re-seals its CRC, so the decoder
	// or validator, not the checksum, must catch the damage.
	dense := make([]uint64, 600)
	for i := range dense {
		dense[i] = uint64(i + 1)
	}
	boot := func(p int, keys ...uint64) []byte {
		set := cpma.FromSorted(keys, nil)
		return frame(t, func(sk *connSink) error { return sk.sendBoot(p, 9, set) })
	}
	forge := func(b []byte, edit func(enc []byte)) []byte {
		enc := b[12:]
		edit(enc)
		body := enc[:len(enc)-4]
		binary.LittleEndian.PutUint32(enc[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		return b
	}
	// lastLeaf returns the offset of the last listed leaf's bytes: entries
	// of {leaf, used, ecnt} follow a 40-byte header, leaf bytes follow them.
	lastLeaf := func(enc []byte) int {
		d := int(binary.LittleEndian.Uint64(enc[32:]))
		used := int(binary.LittleEndian.Uint32(enc[40+12*(d-1)+4:]))
		return len(enc) - 4 - used
	}

	// Recs frames: a u32 shard id, then WAL record frames {payload length,
	// CRC32C, payload}. hugeCount's one frame claims 64 MiB of payload in a
	// few bytes; hugeKeys' record is correctly sealed but claims 2^30 keys
	// in one byte of deltas (payload: kind insert, seq 3, count, delta 5).
	hugeCount := make([]byte, 4, 16)
	hugeCount = binary.LittleEndian.AppendUint32(hugeCount, 1<<26)
	hugeCount = append(hugeCount, 0, 0, 0, 0, 1, 3, 1, 5)
	keysPayload := binary.AppendUvarint([]byte{1, 3}, 1<<30)
	keysPayload = append(keysPayload, 5)
	hugeKeys := make([]byte, 4, 16+len(keysPayload))
	hugeKeys = binary.LittleEndian.AppendUint32(hugeKeys, uint32(len(keysPayload)))
	hugeKeys = binary.LittleEndian.AppendUint32(hugeKeys, crc32.Checksum(keysPayload, crc32.MakeTable(crc32.Castagnoli)))
	hugeKeys = append(hugeKeys, keysPayload...)

	for _, tc := range []struct {
		name  string
		apply func() error
	}{
		{"bounds too short", func() error { return c.applyBoundsFrame(bounds(2, 100)) }},
		{"bounds too long", func() error { return c.applyBoundsFrame(bounds(2, 100, 200, 300)) }},
		{"bounds unsorted", func() error { return c.applyBoundsFrame(bounds(2, 300, 200)) }},
		{"recs unsorted keys", func() error {
			return c.applyRecsFrame(recs(0, persist.Rec{Seq: 3, Keys: []uint64{9, 3}}))
		}},
		{"recs zero key", func() error {
			return c.applyRecsFrame(recs(0, persist.Rec{Seq: 3, Keys: []uint64{0, 4}}))
		}},
		{"recs bad second record", func() error {
			return c.applyRecsFrame(recs(0,
				persist.Rec{Seq: 3, Keys: []uint64{20}},
				persist.Rec{Seq: 4, Keys: []uint64{30, 25}}))
		}},
		{"recs count beyond payload", func() error { return c.applyRecsFrame(hugeCount) }},
		{"recs key count beyond payload", func() error { return c.applyRecsFrame(hugeKeys) }},
		{"recs bad shard", func() error {
			return c.applyRecsFrame(recs(7, persist.Rec{Seq: 3, Keys: []uint64{20}}))
		}},
		{"recs bad CRC", func() error {
			b := recs(0, persist.Rec{Seq: 3, Keys: []uint64{20}})
			b[8] ^= 1 // the frame's CRC follows the shard id and its length
			return c.applyRecsFrame(b)
		}},
		{"recs torn frame", func() error {
			b := recs(0, persist.Rec{Seq: 3, Keys: []uint64{20}}, persist.Rec{Seq: 4, Keys: []uint64{30}})
			return c.applyRecsFrame(b[:len(b)-1])
		}},
		{"boot code runs past used", func() error {
			return c.applyBootFrame(forge(boot(0, 5, 1000), func(enc []byte) { enc[len(enc)-5] |= 0x80 }))
		}},
		{"boot keys out of order", func() error {
			return c.applyBootFrame(forge(boot(0, dense...), func(enc []byte) {
				binary.LittleEndian.PutUint64(enc[lastLeaf(enc):], 1)
			}))
		}},
		{"boot bad shard", func() error { return c.applyBootFrame(boot(7, 5, 1000)) }},
		{"boot truncated payload", func() error {
			b := boot(0, 5, 1000)
			return c.applyBootFrame(b[:len(b)-6])
		}},
		{"hello with the fixed-width-recs magic", func() error {
			h := helloPayload(f)
			copy(h, "CPMARPL3")
			_, err := pr.parseHello(h)
			return err
		}},
		{"hello with the quotient-era magic", func() error {
			h := helloPayload(f)
			copy(h, "CPMARPL2")
			_, err := pr.parseHello(h)
			return err
		}},
		{"hello with the whole-key magic", func() error {
			h := helloPayload(f)
			copy(h, "CPMARPL1")
			_, err := pr.parseHello(h)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.apply(); err == nil {
				t.Fatal("malformed frame accepted")
			}
			if err := f.Set().Validate(); err != nil {
				t.Fatal(err)
			}
			if got := f.Set().Keys(); !slices.Equal(got, []uint64{5, 12}) {
				t.Fatalf("follower changed to %v", got)
			}
			if gen, b := f.Set().RouterBounds(); gen != 1 || !slices.Equal(b, []uint64{100, 200}) {
				t.Fatalf("bounds changed to gen %d %v", gen, b)
			}
			if pos := f.Positions()[0].Seq; pos != 2 {
				t.Fatalf("shard 0 position moved to %d", pos)
			}
		})
	}
}
