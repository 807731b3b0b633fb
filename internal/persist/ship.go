package persist

// The read side of WAL shipping. A replication shipper follows a shard's
// log by (position, seal): the position is the last record sequence the
// follower has applied, the seal (ShippableUpTo) is the last sequence the
// primary knows is fsynced. ReadShippable returns the record frames
// strictly between them, as the log holds them, never reading a byte the
// writer has not both flushed and fsynced — the active segment's file
// can trail the acknowledged log by a whole bufio buffer, or lead the
// durable prefix with a torn frame the buffer half-flushed, and neither
// state may ever be shipped.
//
// Bootstrap reuses the checkpoint chain: BootState loads the newest
// verifiable base + delta chain exactly as recovery would and returns the
// state together with the sequence it covers; the shipper then streams
// records from that sequence on. When retention has deleted the records a
// position needs (only base checkpoints advance the deletion floor), the
// reader reports ErrPositionGone and the follower re-bootstraps.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cpma"
)

// Position is one shard's replication position: the checkpoint-chain tip
// the state was seeded from (zero when none) and the last WAL record
// sequence known durable/applied. Comparable across primary and follower
// because sequence numbers are per shard, start at 1, and never reset.
type Position struct {
	CkptSeq uint64
	Seq     uint64
}

// ErrPositionGone reports that the records a shipper asked for have been
// deleted behind a newer base checkpoint — the retention floor passed the
// position. The follower must re-bootstrap from the checkpoint chain
// (BootState) and resume from its tip.
var ErrPositionGone = errors.New("persist: replication position below the WAL retention floor")

// ShippableUpTo returns shard p's seal boundary: the sequence of the last
// record covered by an fsync. Records at or below it are immutable on
// disk and safe to ship; records above it are still owned by the writer
// (possibly buffered, possibly torn mid-frame in the file) and must not
// be read.
func (st *Store) ShippableUpTo(p int) uint64 {
	sh := st.shards[p]
	sh.mu.Lock()
	seal := sh.syncedSeq
	sh.mu.Unlock()
	return seal
}

// CkptSeq returns the sequence shard p's newest durable checkpoint
// covers (0 when it has none). Unlike Positions it takes no appender
// lock, so a shipper can poll it per shard without waiting out a group
// commit's fsync.
func (st *Store) CkptSeq(p int) uint64 { return st.shards[p].ckptSeq.Load() }

// Positions returns every shard's current durable position: checkpoint
// chain tip and shippable seal.
func (st *Store) Positions() []Position {
	out := make([]Position, len(st.shards))
	for p, sh := range st.shards {
		sh.mu.Lock()
		seq := sh.syncedSeq
		sh.mu.Unlock()
		out[p] = Position{CkptSeq: sh.ckptSeq.Load(), Seq: seq}
	}
	return out
}

// ReadShippable appends shard p's sealed record frames with sequence in
// (afterSeq, ShippableUpTo(p)] to dst, in order and byte for byte as the
// log holds them, stopping early once the frames carry maxKeys keys (0 =
// unbounded; the frame that reaches the bound is kept, so every read
// makes progress). It returns the extended slice, the sequence of the
// last frame appended (afterSeq when none: the follower is caught up to
// the seal) and the keys those frames carry. ErrPositionGone means
// retention has deleted records the position still needs.
//
// Each frame passes the walker's length and CRC32C checks, and only its
// head is parsed, for the sequence and key count; the keys stay encoded
// (the follower's DecodeRecs is the strict gate for them). Damage ends a
// segment's frames, as it ends the log in recovery.
//
// Safe against the live appender without holding its lock during I/O:
// the seal and the active segment's synced byte length are captured
// together under the lock, every record at or below the captured seal
// lies within those bytes (sync covers the whole segment prefix), and
// any file or byte that appears afterwards can only carry records above
// the seal, which are filtered out. The active segment is read only up to
// its synced length, so a torn frame the writer's bufio buffer
// half-flushed past the seal is never seen.
func (st *Store) ReadShippable(dst []byte, p int, afterSeq uint64, maxKeys int) (frames []byte, last uint64, keys int, err error) {
	sh := st.shards[p]
	sh.mu.Lock()
	seal := sh.syncedSeq
	activePath := sh.seg.path
	activeSynced := sh.seg.synced
	sh.mu.Unlock()
	if afterSeq >= seal {
		return dst, afterSeq, 0, nil
	}
	segSeqs, err := segFiles.list(sh.dir)
	if err != nil {
		return nil, afterSeq, 0, err
	}
	// Record afterSeq+1 lives in the segment with the largest first-seq at
	// or below it (segments cover the sequence space contiguously). If no
	// such segment exists the record was retired behind a base checkpoint.
	start := -1
	for i, fs := range segSeqs {
		if fs <= afterSeq+1 {
			start = i
		}
	}
	if start < 0 {
		return nil, afterSeq, 0, ErrPositionGone
	}
	last = afterSeq
	for _, fs := range segSeqs[start:] {
		if fs > seal {
			break // sorted: every later file starts above the seal too
		}
		path := filepath.Join(sh.dir, segFiles.name(fs))
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			// Deleted between listing and reading: the retention floor
			// passed it, and with it our position.
			return nil, afterSeq, 0, ErrPositionGone
		} else if err != nil {
			return nil, afterSeq, 0, err
		}
		if path == activePath {
			// An fsync covered these bytes, so a shorter file is a real
			// error, not a race.
			if int64(len(data)) < activeSynced {
				return nil, afterSeq, 0, fmt.Errorf("persist: %s holds %d bytes, %d synced", path, len(data), activeSynced)
			}
			data = data[:activeSynced]
		}
		if !segHeaderOK(data, sh.id) {
			// The active segment before its first sync, or a tail file a
			// crash cut before its header reached disk: the log ends
			// before it (recovery deletes these on reopen; a live reader
			// just stops).
			break
		}
		// Sequences rise through the segment, so the frames to ship form
		// one run, data[from:off].
		from, off, full := int64(segHeaderSize), int64(segHeaderSize), false
		for off < int64(len(data)) && !full {
			payload, end, err := frameAt(data, off)
			if err != nil {
				break
			}
			_, seq, _, count, _, err := recordHead(payload)
			if err != nil || seq > seal {
				break
			}
			if seq <= afterSeq {
				from = end
			} else {
				last = seq
				keys += int(count)
				full = maxKeys > 0 && keys >= maxKeys
			}
			off = end
		}
		dst = append(dst, data[from:off]...)
		if full {
			break
		}
	}
	return dst, last, keys, nil
}

// BootState loads shard p's newest verifiable checkpoint chain — the same
// walk recovery performs, read-only — and returns the state plus the
// record sequence it covers. A follower seeds its shard with the state
// and resumes shipping from the returned sequence; combined with the
// journaled span-enforcement drops (see Open), chain state ⊕ records
// after its tip is always exactly the primary's acknowledged history.
// Runs under ckptMu so the checkpointer cannot reshape the chain mid-walk.
func (st *Store) BootState(p int) (*cpma.CPMA, uint64, error) {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	sh := st.shards[p]
	set, _, tip, _, err := loadChain(sh.dir, sh.id, st.opt.Set)
	if err != nil {
		return nil, 0, err
	}
	return set, tip, nil
}
