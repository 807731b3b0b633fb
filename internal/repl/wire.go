package repl

// The link protocol, the only one: Serve/Dial run it over a socket, Pair
// over an in-memory pipe. A follower announces its geometry and per-shard
// positions in a hello frame, and the primary's per-connection shipper
// streams boot/recs/bounds frames from there — so reconnect is
// resume-from-position by construction: whatever the follower holds in
// memory is where the next hello starts. The follower answers each boot
// or recs frame, once applied and published, with an ack frame {shard,
// seq}, and the primary's per-connection ack reader records it on the
// link's cursor. That reader also sees a closed or reset peer at once and
// ends the link; a peer that vanishes silently is left to TCP keep-alive,
// which Go enables on dialed and accepted connections by default.
//
// Frames: u32 payload length, u8 type, payload. All integers little
// endian. Boot payloads carry the shard's state in the cpma leaf-list
// encoding (cpma.WriteTo/ReadFrom), the same bytes a base checkpoint
// holds — the pointer-free layout shipping as flat bytes. Recs payloads
// are a u32 shard id followed by WAL record frames (length, CRC32C, kind,
// sequence, varint-delta keys): persist.ReadShippable copies them byte
// for byte out of the sealed log, and the follower decodes them with the
// log's own walker in strict mode (persist.DecodeRecs), so one codec, in
// persist alone, guards the disk and the wire.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpma"
	"repro/internal/persist"
	"repro/internal/shard"
)

const (
	// wireMagic opens a follower's hello. Version 2 shipped hash shards'
	// stored quotients (see shard.HashPartition); version 3 ships boot
	// state in the cpma leaf-list encoding; version 4 ships records as WAL
	// record frames; version 5 adds the follower's ack frames (a version 4
	// primary never reads after the hello, so acks sent to it would stall).
	// Older peers are refused at hello instead of misread.
	wireMagic   = "CPMARPL5"
	maxFrameLen = 1 << 30
	ackLen      = 12

	frHello  = 1
	frBoot   = 2
	frRecs   = 3
	frBounds = 4
	frAck    = 5
)

// newFrame starts a frame of type typ with room for n payload bytes; the
// caller appends the payload and writeFrame fills in its length.
func newFrame(typ byte, n int) []byte {
	b := make([]byte, 5, 5+n)
	b[4] = typ
	return b
}

// writeFrame stamps b's payload length and writes the frame in one call.
func writeFrame(w io.Writer, b []byte) error {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-5))
	_, err := w.Write(b)
	return err
}

// readFrame reads one frame whose payload is at most limit bytes.
func readFrame(r *bufio.Reader, limit int) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if uint64(n) > uint64(limit) {
		return 0, nil, fmt.Errorf("repl: frame of %d bytes exceeds limit %d", n, limit)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

func bootFrame(p int, tip uint64, set *cpma.CPMA) ([]byte, error) {
	b := binary.LittleEndian.AppendUint32(newFrame(frBoot, 12), uint32(p))
	buf := bytes.NewBuffer(binary.LittleEndian.AppendUint64(b, tip))
	_, err := set.WriteTo(buf)
	return buf.Bytes(), err
}

// recsFrame starts shard p's recs frame; persist.ReadShippable appends
// the record frames.
func recsFrame(p int) []byte {
	return binary.LittleEndian.AppendUint32(newFrame(frRecs, 4), uint32(p))
}

func boundsFrame(gen uint64, bounds []uint64) []byte {
	b := binary.LittleEndian.AppendUint64(newFrame(frBounds, 12+8*len(bounds)), gen)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(bounds)))
	for _, x := range bounds {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

func ackFrame(p int, seq uint64) []byte {
	b := binary.LittleEndian.AppendUint32(newFrame(frAck, ackLen), uint32(p))
	return binary.LittleEndian.AppendUint64(b, seq)
}

// Serve accepts follower connections on ln and ships to each until its
// connection breaks or ln closes. Blocks; run it in a goroutine and close
// the listener to stop accepting (live connections drain on their own
// errors — closing a follower's Link is what ends its stream).
func Serve(ln net.Listener, pr *Primary, opts *Options) error {
	o := opts.withDefaults()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go pr.serveConn(conn, o, nil)
	}
}

// serveConn runs the primary's end of one link: it checks the hello,
// registers the link and, when hello is given, sends it the hello's
// verdict (nil once the link counts in ReplStats), then reads acks in one
// goroutine and ships in this one until either side fails, and drops the
// link.
func (pr *Primary) serveConn(conn net.Conn, o Options, hello chan<- error) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	typ, payload, err := readFrame(r, helloLen(pr.set.Shards()))
	var cur *cursor
	if err == nil && typ != frHello {
		err = fmt.Errorf("repl: frame type %d before the hello", typ)
	} else if err == nil {
		cur, err = pr.parseHello(payload)
	}
	if err == nil {
		pr.addLink(cur)
		defer pr.dropLink(cur)
	}
	if hello != nil {
		hello <- err
	}
	if err != nil {
		return
	}
	gone := make(chan struct{})
	go func() {
		// Closing conn also fails a write the shipper is blocked in.
		defer close(gone)
		defer conn.Close()
		for {
			typ, payload, err := readFrame(r, ackLen)
			if err != nil || typ != frAck || cur.ack(payload) != nil {
				return
			}
		}
	}()
	defer func() { <-gone }()
	for {
		progress, err := pr.shipOnce(cur, conn, o.MaxKeysPerRead)
		if err != nil {
			conn.Close()
			return
		}
		if !progress {
			select {
			case <-gone:
				return
			case <-time.After(o.TailInterval):
			}
		}
	}
}

// parseHello validates a follower hello against the primary's geometry
// and seal and returns a cursor seeded from the announced positions: the
// follower holds them applied, so they count as both sent and
// acknowledged. A position past the seal cannot come from this primary's
// history (a follower only receives sealed records, and recovery never
// lowers the seal), so it is refused.
func (pr *Primary) parseHello(payload []byte) (*cursor, error) {
	shards := pr.set.Shards()
	if len(payload) != helloLen(shards) || string(payload[:8]) != wireMagic {
		return nil, errors.New("repl: bad hello")
	}
	b := payload[8:]
	if int(binary.LittleEndian.Uint32(b)) != shards {
		return nil, errors.New("repl: shard count mismatch")
	}
	if shard.Partition(b[4]) != pr.set.Partition() || int(b[5]) != pr.set.KeyBits() {
		return nil, errors.New("repl: geometry mismatch")
	}
	cur := &cursor{sent: make([]uint64, shards), boundsGen: binary.LittleEndian.Uint64(b[6:])}
	b = b[14:]
	for p := 0; p < shards; p++ {
		// The ckpt half of each position travels for observability; the
		// cursor only needs the applied sequence.
		cur.sent[p] = binary.LittleEndian.Uint64(b[p*16+8:])
		if seal := pr.st.ShippableUpTo(p); cur.sent[p] > seal {
			return nil, fmt.Errorf("repl: follower shard %d is at seq %d, past the primary's seal %d", p, cur.sent[p], seal)
		}
	}
	cur.acked = append([]uint64(nil), cur.sent...)
	return cur, nil
}

// helloLen is the size of a hello payload: the magic, the geometry (u32
// shards, u8 partition, u8 key bits, u64 bounds generation) and a
// {ckpt, seq} position per shard.
func helloLen(shards int) int { return len(wireMagic) + 14 + 16*shards }

func helloPayload(f *Follower) []byte {
	set := f.set
	positions := f.Positions()
	buf := make([]byte, 0, helloLen(len(positions)))
	buf = append(buf, wireMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(set.Shards()))
	buf = append(buf, byte(set.Partition()), byte(set.KeyBits()))
	buf = binary.LittleEndian.AppendUint64(buf, set.RebalanceStats().Gen)
	for _, p := range positions {
		buf = binary.LittleEndian.AppendUint64(buf, p.CkptSeq)
		buf = binary.LittleEndian.AppendUint64(buf, p.Seq)
	}
	return buf
}

// Link is a follower's live replication link, from Pair or Dial. Close
// tears it down; the follower keeps its state and positions, and a new
// link resumes from them (the reconnect primitive the differential
// harness kills and revives).
type Link struct {
	f      *Follower
	c      net.Conn
	done   chan struct{}
	served chan struct{} // Pair only: closed once the primary's end is gone
	closed atomic.Bool

	errMu sync.Mutex
	err   error
}

// Pair attaches a follower to a primary in process: the primary's
// per-connection shipper serves one end of an in-memory pipe and the
// follower dials the other, so the link runs the same protocol as Dial.
// It returns once the primary counts the link, or with the primary's
// reason for refusing the hello (a shard count, partition or key width
// unlike its own among them); shipping (catch-up, with a bootstrap if
// needed, then tailing) runs until Close.
func Pair(pr *Primary, f *Follower, opts *Options) (*Link, error) {
	o := opts.withDefaults()
	hello, served := make(chan error, 1), make(chan struct{})
	l, err := connect(f, func() (net.Conn, error) {
		srv, cli := net.Pipe()
		go func() {
			defer close(served)
			pr.serveConn(srv, o, hello)
		}()
		return cli, nil
	})
	if err != nil {
		return nil, err
	}
	l.served = served
	if err := <-hello; err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// Dial connects a follower to a serving primary at addr and starts the
// receive loop: hello with current positions, then apply and acknowledge
// frames until Close or an error (check Err once Done closes).
func Dial(addr string, f *Follower) (*Link, error) {
	return connect(f, func() (net.Conn, error) { return net.Dial("tcp", addr) })
}

// connect claims f, opens a connection with dial, sends the hello and
// starts the receive loop.
func connect(f *Follower, dial func() (net.Conn, error)) (*Link, error) {
	if err := f.attach(); err != nil {
		return nil, err
	}
	c, err := dial()
	if err == nil {
		hello := helloPayload(f)
		if err = writeFrame(c, append(newFrame(frHello, len(hello)), hello...)); err != nil {
			c.Close()
		}
	}
	if err != nil {
		f.detach()
		return nil, err
	}
	l := &Link{f: f, c: c, done: make(chan struct{})}
	go l.recv()
	return l, nil
}

// recv applies frames until the link fails or closes. Boot and recs
// frames are acknowledged once applied and published; both open with the
// shard id their apply checked. On any exit the connection closes, so
// the primary stops counting the link at once.
func (l *Link) recv() {
	defer close(l.done)
	defer l.f.detach()
	defer l.c.Close()
	r := bufio.NewReader(l.c)
	for {
		typ, payload, err := readFrame(r, maxFrameLen)
		if err == nil {
			switch typ {
			case frBoot:
				err = l.f.applyBootFrame(payload)
			case frRecs:
				err = l.f.applyRecsFrame(payload)
			case frBounds:
				err = l.f.applyBoundsFrame(payload)
			default:
				err = fmt.Errorf("repl: unknown frame type %d", typ)
			}
		}
		if err == nil && typ != frBounds {
			p := int(binary.LittleEndian.Uint32(payload))
			err = writeFrame(l.c, ackFrame(p, l.f.applied(p)))
		}
		if err != nil {
			if !l.closed.Load() {
				l.errMu.Lock()
				l.err = err
				l.errMu.Unlock()
			}
			return
		}
	}
}

func (f *Follower) applyBootFrame(payload []byte) error {
	if len(payload) < 12 {
		return errors.New("repl: short boot frame")
	}
	p := int(binary.LittleEndian.Uint32(payload[:4]))
	tip := binary.LittleEndian.Uint64(payload[4:])
	if p >= f.set.Shards() {
		return fmt.Errorf("repl: boot frame for shard %d", p)
	}
	set, err := cpma.ReadFrom(bytes.NewReader(payload[12:]), f.setOpts)
	if err != nil {
		return err
	}
	if err := set.Validate(); err != nil {
		return err
	}
	f.set.ReplicaReset(p, set)
	f.mu.Lock()
	f.pos[p] = persist.Position{CkptSeq: tip, Seq: tip}
	f.mu.Unlock()
	f.bootstraps.Add(1)
	return nil
}

// applyRecsFrame decodes and applies a recs frame. The peer is not
// trusted: the log's strict decoder rejects the whole frame — before any
// record is applied — on a torn or oversized frame, a CRC mismatch, or a
// record whose keys are zero, out of order, or not minimally encoded.
func (f *Follower) applyRecsFrame(payload []byte) error {
	if len(payload) < 4 {
		return errors.New("repl: short recs frame")
	}
	p := int(binary.LittleEndian.Uint32(payload))
	if p >= f.set.Shards() {
		return fmt.Errorf("repl: recs frame for shard %d", p)
	}
	recs, err := persist.DecodeRecs(payload[4:])
	if err != nil {
		return err
	}
	return f.applyRecs(p, recs)
}

// applyBoundsFrame installs a replicated boundary table; a malformed
// table is an error and changes nothing.
func (f *Follower) applyBoundsFrame(payload []byte) error {
	if len(payload) < 12 {
		return errors.New("repl: short bounds frame")
	}
	gen := binary.LittleEndian.Uint64(payload[:8])
	n := int(binary.LittleEndian.Uint32(payload[8:12]))
	if len(payload) != 12+8*n {
		return errors.New("repl: bad bounds frame length")
	}
	bounds := make([]uint64, n)
	for i := range bounds {
		bounds[i] = binary.LittleEndian.Uint64(payload[12+8*i:])
	}
	return f.set.ReplicaSetBounds(gen, bounds)
}

// Err returns the link's first hard error: nil while healthy and after a
// clean local Close.
func (l *Link) Err() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

// Done is closed when the receive loop has exited.
func (l *Link) Done() <-chan struct{} { return l.done }

// Close tears the link down and waits for its receive loop (and, for
// Pair, the primary's end), returning the link's first hard error. The
// follower detaches with everything applied so far and can link again to
// resume.
func (l *Link) Close() error {
	l.closed.Store(true)
	l.c.Close()
	<-l.done
	if l.served != nil {
		<-l.served
	}
	return l.Err()
}
