package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/cpma"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/workload"
)

// frame writes an encoded frame through the real frame writer, reads it
// back through the real reader and returns its payload.
func frame(t *testing.T, fr []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, fr); err != nil {
		t.Fatal(err)
	}
	_, payload, err := readFrame(bufio.NewReader(&buf), maxFrameLen)
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
	recs := func(p int, rs ...persist.Rec) []byte {
		b := recsFrame(p)
		for _, r := range rs {
			b = persist.AppendRecord(b, r)
		}
		return frame(t, b)
	}
	bounds := func(gen uint64, b ...uint64) []byte { return frame(t, boundsFrame(gen, b)) }

	if err := f.applyRecsFrame(recs(0,
		persist.Rec{Seq: 1, Keys: []uint64{5, 9, 9, 12}},
		persist.Rec{Seq: 2, Remove: true, Keys: []uint64{9}})); err != nil {
		t.Fatal(err)
	}
	if err := f.applyBoundsFrame(bounds(1, 100, 200)); err != nil {
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
	// fails on its magic alone. The primary's store holds two sealed
	// records on shard 0, where the follower stands at seq 2.
	ps, st, err := persist.OpenSharded(t.TempDir(), 3, &shard.Options{Partition: shard.RangePartition, KeyBits: 16, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.InsertBatch([]uint64{5, 9}, true)
	ps.InsertBatch([]uint64{12}, true)
	ps.Flush()
	pr, err := NewPrimary(ps, st)
	if err != nil {
		t.Fatal(err)
	}
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
		fr, err := bootFrame(p, 9, cpma.FromSorted(keys, nil))
		if err != nil {
			t.Fatal(err)
		}
		return frame(t, fr)
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
		{"bounds too short", func() error { return f.applyBoundsFrame(bounds(2, 100)) }},
		{"bounds too long", func() error { return f.applyBoundsFrame(bounds(2, 100, 200, 300)) }},
		{"bounds unsorted", func() error { return f.applyBoundsFrame(bounds(2, 300, 200)) }},
		{"recs unsorted keys", func() error {
			return f.applyRecsFrame(recs(0, persist.Rec{Seq: 3, Keys: []uint64{9, 3}}))
		}},
		{"recs zero key", func() error {
			return f.applyRecsFrame(recs(0, persist.Rec{Seq: 3, Keys: []uint64{0, 4}}))
		}},
		{"recs bad second record", func() error {
			return f.applyRecsFrame(recs(0,
				persist.Rec{Seq: 3, Keys: []uint64{20}},
				persist.Rec{Seq: 4, Keys: []uint64{30, 25}}))
		}},
		{"recs count beyond payload", func() error { return f.applyRecsFrame(hugeCount) }},
		{"recs key count beyond payload", func() error { return f.applyRecsFrame(hugeKeys) }},
		{"recs bad shard", func() error {
			return f.applyRecsFrame(recs(7, persist.Rec{Seq: 3, Keys: []uint64{20}}))
		}},
		{"recs bad CRC", func() error {
			b := recs(0, persist.Rec{Seq: 3, Keys: []uint64{20}})
			b[8] ^= 1 // the frame's CRC follows the shard id and its length
			return f.applyRecsFrame(b)
		}},
		{"recs torn frame", func() error {
			b := recs(0, persist.Rec{Seq: 3, Keys: []uint64{20}}, persist.Rec{Seq: 4, Keys: []uint64{30}})
			return f.applyRecsFrame(b[:len(b)-1])
		}},
		{"boot code runs past used", func() error {
			return f.applyBootFrame(forge(boot(0, 5, 1000), func(enc []byte) { enc[len(enc)-5] |= 0x80 }))
		}},
		{"boot keys out of order", func() error {
			return f.applyBootFrame(forge(boot(0, dense...), func(enc []byte) {
				binary.LittleEndian.PutUint64(enc[lastLeaf(enc):], 1)
			}))
		}},
		{"boot bad shard", func() error { return f.applyBootFrame(boot(7, 5, 1000)) }},
		{"boot truncated payload", func() error {
			b := boot(0, 5, 1000)
			return f.applyBootFrame(b[:len(b)-6])
		}},
		{"hello with the ack-less magic", func() error {
			h := helloPayload(f)
			copy(h, "CPMARPL4")
			_, err := pr.parseHello(h)
			return err
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

// TestFollowerErrorClosesConn: a follower that stops on an error closes
// its connection, so the primary sees EOF and stops counting and shipping
// to the link. A fake primary reads the hello and sends a frame of
// unknown type.
func TestFollowerErrorClosesConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	f := NewFollower(2, nil)
	l, err := Dial(ln.Addr().String(), f)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer l.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if typ, _, err := readFrame(r, maxFrameLen); err != nil || typ != frHello {
		t.Fatalf("hello: type %d, %v", typ, err)
	}
	if err := writeFrame(conn, newFrame(99, 0)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("follower kept its connection open after a bad frame: %v", err)
	}
	<-l.Done()
	if l.Err() == nil {
		t.Fatal("follower stopped without an error")
	}
}

// TestPrimaryRejectsBadAcks: acks are untrusted input. An ack for a shard
// the primary does not have, or past what it sent, a malformed one, or a
// frame header claiming more bytes than an ack ends the connection before
// the primary allocates for it, and the primary stops counting the link.
func TestPrimaryRejectsBadAcks(t *testing.T) {
	s, st, err := persist.OpenSharded(t.TempDir(), 2, &shard.Options{SyncEvery: 1})
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer s.Close()
	pr, err := NewPrimary(s, st)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go Serve(ln, pr, nil)

	send := func(fr []byte) func(net.Conn) error {
		return func(conn net.Conn) error { return writeFrame(conn, fr) }
	}
	for _, tc := range []struct {
		name string
		send func(net.Conn) error
	}{
		{"unknown shard", send(ackFrame(7, 0))},
		{"past what was sent", send(ackFrame(1, 1))},
		{"short", send(binary.LittleEndian.AppendUint32(newFrame(frAck, 4), 0))},
		{"oversized", func(conn net.Conn) error {
			_, err := conn.Write([]byte{0, 0, 0, 0x20, frAck}) // claims 512 MiB
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer conn.Close()
			hello := helloPayload(NewFollower(2, nil))
			if err := writeFrame(conn, append(newFrame(frHello, len(hello)), hello...)); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for pr.ReplStats().Links != 1 {
				if time.Now().After(deadline) {
					t.Fatal("primary never registered the link")
				}
				time.Sleep(time.Millisecond)
			}
			if err := tc.send(conn); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(deadline)
			if _, err := io.Copy(io.Discard, conn); err != nil {
				t.Fatalf("primary kept the connection open: %v", err)
			}
			for pr.ReplStats().Links != 0 {
				if time.Now().After(deadline) {
					t.Fatal("primary still counts the link")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestHelloPastSealRefused: a follower whose position lies past a
// primary's seal holds records that primary never sealed, so it followed
// another primary's history. Its hello is refused over Pair (an error,
// not a dead link) and over a socket alike: the link never counts, and
// the follower keeps its keys and positions while the new primary writes
// on.
func TestHelloPastSealRefused(t *testing.T) {
	r := workload.NewRNG(11)
	open := func(batches int) (*shard.Sharded, *Primary) {
		s, st, err := persist.OpenSharded(t.TempDir(), 2, &shard.Options{SyncEvery: 1, CheckpointEveryBatches: -1})
		if err != nil {
			t.Fatalf("OpenSharded: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		for i := 0; i < batches; i++ {
			s.InsertBatch(workload.Uniform(r, 16, 24), false)
		}
		s.Flush()
		pr, err := NewPrimary(s, st)
		if err != nil {
			t.Fatalf("NewPrimary: %v", err)
		}
		return s, pr
	}
	sa, a := open(12)
	f := NewFollower(2, nil)
	l, err := Pair(a, f, nil)
	if err != nil {
		t.Fatalf("Pair with primary A: %v", err)
	}
	waitCaughtUp(t, f, seqTargets(a.st))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	keys, pos := sa.Keys(), f.Positions()
	if !slices.Equal(f.Set().Keys(), keys) {
		t.Fatal("follower differs from primary A")
	}

	sb, b := open(2)
	for p, q := range b.st.Positions() {
		if q.Seq >= pos[p].Seq {
			t.Fatalf("shard %d: primary B sealed %d, follower at %d; the test needs B behind", p, q.Seq, pos[p].Seq)
		}
	}
	unchanged := func(how string) {
		t.Helper()
		if n := b.ReplStats().Links; n != 0 {
			t.Fatalf("%s: primary B counts %d links", how, n)
		}
		if !slices.Equal(f.Set().Keys(), keys) || !slices.Equal(f.Positions(), pos) {
			t.Fatalf("%s: follower moved to %d keys at %v, from %d at %v", how, f.Set().Len(), f.Positions(), len(keys), pos)
		}
	}

	if l, err := Pair(b, f, nil); err == nil {
		l.Close()
		t.Fatal("Pair linked a follower past primary B's seal")
	}
	unchanged("Pair")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go Serve(ln, b, nil)
	l, err = Dial(ln.Addr().String(), f)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	select {
	case <-l.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("primary B kept a connection from past its seal open")
	}
	if l.Err() == nil {
		t.Fatal("refused connection ended without an error")
	}
	l.Close()
	for i := 0; i < 30; i++ {
		sb.InsertBatch(workload.Uniform(r, 16, 24), false)
	}
	sb.Flush()
	unchanged("Dial")
}
