package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

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

	hugeCount := make([]byte, 8)
	binary.LittleEndian.PutUint32(hugeCount[4:], ^uint32(0))
	hugeKeys := make([]byte, 8+recHeader)
	binary.LittleEndian.PutUint32(hugeKeys[4:], 1)
	binary.LittleEndian.PutUint64(hugeKeys[8:], 3)
	binary.LittleEndian.PutUint32(hugeKeys[8+9:], 1<<30)

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
