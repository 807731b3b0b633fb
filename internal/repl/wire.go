package repl

// The socket transport: the same shipping engine as Pair, with a
// length-prefixed binary protocol in the middle. A follower Dials,
// announces its geometry and per-shard positions in a hello frame, and
// the primary streams boot/recs/bounds frames from there — so reconnect
// is resume-from-position by construction: whatever the follower durably
// holds in memory is where the next hello starts. The primary sends ping
// frames while idle so a dead peer is detected even with nothing to ship.
//
// Frames: u32 payload length, u8 type, payload. All integers little
// endian. Boot payloads carry the shard's slab via cpma.WriteTo/ReadFrom
// — the pointer-free layout shipping as flat bytes.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/cpma"
	"repro/internal/persist"
	"repro/internal/shard"
)

const (
	// wireMagic opens a follower's hello. Version 2 ships hash shards'
	// stored quotients (see shard.HashPartition); a version-1 peer, which
	// ships whole keys, is refused instead of misread.
	wireMagic    = "CPMARPL2"
	maxFrameLen  = 1 << 30
	pingAfterMax = 250 * time.Millisecond

	frHello  = 1
	frBoot   = 2
	frRecs   = 3
	frBounds = 4
	frPing   = 5
)

func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

func readFrame(r *bufio.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrameLen {
		return 0, nil, fmt.Errorf("repl: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// Serve accepts follower connections on ln and ships to each until its
// connection breaks or ln closes. Blocks; run it in a goroutine and close
// the listener to stop accepting (live connections drain on their own
// errors — closing a follower's Conn is what ends its stream).
func Serve(ln net.Listener, pr *Primary, opts *Options) error {
	o := opts.withDefaults()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go pr.serveConn(conn, o)
	}
}

func (pr *Primary) serveConn(conn net.Conn, o Options) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	typ, payload, err := readFrame(r)
	if err != nil || typ != frHello {
		return
	}
	cur, err := pr.parseHello(payload)
	if err != nil {
		return
	}
	pr.addLink(cur)
	defer pr.dropLink(cur)
	sk := &connSink{w: bufio.NewWriter(conn)}
	idle := time.Duration(0)
	for {
		progress, err := pr.shipOnce(cur, sk, o.MaxKeysPerRead)
		if err != nil {
			return
		}
		if progress {
			idle = 0
			continue
		}
		time.Sleep(o.TailInterval)
		idle += o.TailInterval
		if idle >= pingAfterMax {
			// Probe the connection: a follower that went away while we were
			// caught up would otherwise pin this goroutine forever.
			if err := writeFrame(sk.w, frPing, nil); err != nil {
				return
			}
			idle = 0
		}
	}
}

// parseHello validates a follower hello against the primary's geometry
// and returns a cursor seeded from the announced positions.
func (pr *Primary) parseHello(payload []byte) (*cursor, error) {
	shards := pr.set.Shards()
	want := len(wireMagic) + 4 + 1 + 1 + 8 + shards*16
	if len(payload) != want || string(payload[:8]) != wireMagic {
		return nil, errors.New("repl: bad hello")
	}
	b := payload[8:]
	if int(binary.LittleEndian.Uint32(b)) != shards {
		return nil, errors.New("repl: shard count mismatch")
	}
	if shard.Partition(b[4]) != pr.set.Partition() || int(b[5]) != pr.set.KeyBits() {
		return nil, errors.New("repl: geometry mismatch")
	}
	cur := &cursor{pos: make([]uint64, shards), boundsGen: binary.LittleEndian.Uint64(b[6:])}
	b = b[14:]
	for p := 0; p < shards; p++ {
		// The ckpt half of each position travels for observability; the
		// cursor only needs the applied sequence.
		cur.pos[p] = binary.LittleEndian.Uint64(b[p*16+8:])
	}
	return cur, nil
}

// connSink encodes shipped state as frames.
type connSink struct{ w *bufio.Writer }

func (s *connSink) sendBoot(p int, tip uint64, set *cpma.CPMA) error {
	var buf bytes.Buffer
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(p))
	binary.LittleEndian.PutUint64(hdr[4:], tip)
	buf.Write(hdr[:])
	if _, err := set.WriteTo(&buf); err != nil {
		return err
	}
	return writeFrame(s.w, frBoot, buf.Bytes())
}

func (s *connSink) sendRecs(p int, recs []persist.Rec) error {
	size := 8
	for _, r := range recs {
		size += recHeader + 8*len(r.Keys)
	}
	buf := make([]byte, 8, size)
	binary.LittleEndian.PutUint32(buf[:4], uint32(p))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(recs)))
	for _, r := range recs {
		var rh [recHeader]byte
		binary.LittleEndian.PutUint64(rh[:8], r.Seq)
		if r.Remove {
			rh[8] = 1
		}
		binary.LittleEndian.PutUint32(rh[9:], uint32(len(r.Keys)))
		buf = append(buf, rh[:]...)
		for _, k := range r.Keys {
			buf = binary.LittleEndian.AppendUint64(buf, k)
		}
	}
	return writeFrame(s.w, frRecs, buf)
}

func (s *connSink) sendBounds(gen uint64, bounds []uint64) error {
	buf := make([]byte, 12, 12+8*len(bounds))
	binary.LittleEndian.PutUint64(buf[:8], gen)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(bounds)))
	for _, b := range bounds {
		buf = binary.LittleEndian.AppendUint64(buf, b)
	}
	return writeFrame(s.w, frBounds, buf)
}

// Conn is a follower's live socket link. Close tears it down; the
// follower keeps its state and positions, and a new Dial resumes from
// them.
type Conn struct {
	f    *Follower
	c    net.Conn
	done chan struct{}

	errMu sync.Mutex
	err   error
}

// Dial connects a follower to a serving primary at addr and starts the
// receive loop: hello with current positions, then apply frames until
// Close (or a connection error — check Err after Done closes).
func Dial(addr string, f *Follower) (*Conn, error) {
	if err := f.attach(); err != nil {
		return nil, err
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		f.detach()
		return nil, err
	}
	w := bufio.NewWriter(nc)
	if err := writeFrame(w, frHello, helloPayload(f)); err != nil {
		nc.Close()
		f.detach()
		return nil, err
	}
	c := &Conn{f: f, c: nc, done: make(chan struct{})}
	go c.recv()
	return c, nil
}

func helloPayload(f *Follower) []byte {
	set := f.set
	positions := f.Positions()
	buf := make([]byte, 0, len(wireMagic)+14+16*len(positions))
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

func (c *Conn) recv() {
	defer close(c.done)
	r := bufio.NewReader(c.c)
	for {
		typ, payload, err := readFrame(r)
		if err != nil {
			c.setErr(err)
			return
		}
		switch typ {
		case frPing:
		case frBoot:
			if err := c.applyBootFrame(payload); err != nil {
				c.setErr(err)
				return
			}
		case frRecs:
			if err := c.applyRecsFrame(payload); err != nil {
				c.setErr(err)
				return
			}
		case frBounds:
			if err := c.applyBoundsFrame(payload); err != nil {
				c.setErr(err)
				return
			}
		default:
			c.setErr(fmt.Errorf("repl: unknown frame type %d", typ))
			return
		}
	}
}

func (c *Conn) applyBootFrame(payload []byte) error {
	if len(payload) < 12 {
		return errors.New("repl: short boot frame")
	}
	p := int(binary.LittleEndian.Uint32(payload[:4]))
	tip := binary.LittleEndian.Uint64(payload[4:])
	if p < 0 || p >= c.f.set.Shards() {
		return fmt.Errorf("repl: boot frame for shard %d", p)
	}
	set, err := cpma.ReadFrom(bytes.NewReader(payload[12:]), c.f.setOpts)
	if err != nil {
		return err
	}
	c.f.applyBoot(p, tip, set)
	return nil
}

// recHeader is the fixed per-record prefix of a recs frame: seq, remove
// flag, key count.
const recHeader = 13

// applyRecsFrame decodes and applies a recs frame. The peer is not
// trusted: the record count is checked against the payload before it
// sizes anything, and every record's keys must be nonzero and ascending
// (the replica applies them as a pre-sorted batch), so a malformed frame
// is rejected whole before any record is applied.
func (c *Conn) applyRecsFrame(payload []byte) error {
	if len(payload) < 8 {
		return errors.New("repl: short recs frame")
	}
	p := int(binary.LittleEndian.Uint32(payload[:4]))
	count := int(binary.LittleEndian.Uint32(payload[4:8]))
	if p < 0 || p >= c.f.set.Shards() {
		return fmt.Errorf("repl: recs frame for shard %d", p)
	}
	b := payload[8:]
	if count > len(b)/recHeader {
		return fmt.Errorf("repl: recs frame claims %d records in %d bytes", count, len(b))
	}
	recs := make([]persist.Rec, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < recHeader {
			return errors.New("repl: truncated record")
		}
		seq := binary.LittleEndian.Uint64(b[:8])
		remove := b[8] == 1
		n := int(binary.LittleEndian.Uint32(b[9:recHeader]))
		b = b[recHeader:]
		if len(b)/8 < n {
			return errors.New("repl: truncated record keys")
		}
		keys := make([]uint64, n)
		for j := range keys {
			keys[j] = binary.LittleEndian.Uint64(b[8*j:])
			if keys[j] == 0 || (j > 0 && keys[j] < keys[j-1]) {
				return fmt.Errorf("repl: record %d: key %d at position %d is zero or out of order", seq, keys[j], j)
			}
		}
		b = b[8*n:]
		recs = append(recs, persist.Rec{Seq: seq, Remove: remove, Keys: keys})
	}
	if len(b) != 0 {
		return errors.New("repl: trailing bytes in recs frame")
	}
	return c.f.applyRecs(p, recs)
}

func (c *Conn) applyBoundsFrame(payload []byte) error {
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
	return c.f.applyBounds(gen, bounds)
}

func (c *Conn) setErr(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// Err returns the connection's first error. net.ErrClosed after a Close
// is the normal shutdown path.
func (c *Conn) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// Done is closed when the receive loop has exited.
func (c *Conn) Done() <-chan struct{} { return c.done }

// Close tears the connection down and waits for the receive loop; the
// follower detaches with everything applied so far and can Dial again to
// resume.
func (c *Conn) Close() error {
	err := c.c.Close()
	<-c.done
	c.f.detach()
	return err
}
