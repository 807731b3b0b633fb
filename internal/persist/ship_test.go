package persist

// Tests for the WAL shipping read side (ship.go) and the three bugs
// building it exposed: the live-segment read race against the writer's
// bufio buffer, torn-header tail segments, and fd leaks on partial Open.

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cpma"
	"repro/internal/shard"
)

// TestShippableSealRegression reproduces the live-segment short-read: a
// record acknowledged by Append can be entirely or partially absent from
// the segment file while the writer's bufio buffer holds it, so a naive
// file-reading shipper ships a short (or torn) view of acked records.
// ShippableUpTo/ReadShippable must expose nothing until the fsync seals
// the prefix, then expose exactly the acked records.
func TestShippableSealRegression(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(Options{Dir: dir, Shards: 1, SyncEvery: -1, SyncBytes: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()

	// Small batch: fits entirely in the bufio buffer, so the file holds
	// nothing past the header.
	if err := st.Append(0, false, []uint64{3, 5, 9}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Huge frame (well past the 64KB writer buffer): bufio flushes full
	// chunks mid-frame, leaving a torn frame in the file.
	big := make([]uint64, 40_000)
	for i := range big {
		big[i] = uint64(i+1) * 1_000_003 // wide deltas, several bytes per key
	}
	if err := st.Append(0, false, big); err != nil {
		t.Fatalf("Append big: %v", err)
	}

	// The bug, demonstrated: scanning the raw segment file sees fewer
	// records than were acknowledged (and a torn byte tail).
	sh := st.shards[0]
	sh.mu.Lock()
	activePath := sh.seg.path
	sh.mu.Unlock()
	raw, err := os.ReadFile(activePath)
	if err != nil {
		t.Fatalf("read active segment: %v", err)
	}
	rawRecs, _, headerOK := scanSegmentBytes(raw, 0)
	if !headerOK && len(raw) >= segHeaderSize {
		t.Fatalf("active segment header unreadable")
	}
	if len(rawRecs) >= 2 {
		t.Fatalf("naive read saw all %d acked records — the short-read this test must reproduce did not occur", len(rawRecs))
	}

	// The fix: nothing is shippable before the seal...
	if seal := st.ShippableUpTo(0); seal != 0 {
		t.Fatalf("seal %d before any fsync", seal)
	}
	recs, err := st.ReadShippable(0, 0, 0)
	if err != nil || recs != nil {
		t.Fatalf("ReadShippable before seal = %d recs, err %v; want none", len(recs), err)
	}
	// ...and exactly the acked records after it.
	if err := st.Synced(0); err != nil {
		t.Fatalf("Synced: %v", err)
	}
	if seal := st.ShippableUpTo(0); seal != 2 {
		t.Fatalf("seal %d after fsync, want 2", seal)
	}
	recs, err = st.ReadShippable(0, 0, 0)
	if err != nil {
		t.Fatalf("ReadShippable: %v", err)
	}
	if len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("got %d recs, want the 2 acked", len(recs))
	}
	if !slices.Equal(recs[0].Keys, []uint64{3, 5, 9}) || !slices.Equal(recs[1].Keys, big) {
		t.Fatal("shipped keys differ from acked keys")
	}
}

// TestTornHeaderTailSegment covers the crash window between
// createSegment's O_CREATE and the header reaching disk: the tail file
// exists with zero bytes (or a short/garbage header). The scanner must
// tolerate it without error, recovery must delete it and lose nothing,
// and a follower bootstrapping from the reopened store must see the
// exact history.
func TestTornHeaderTailSegment(t *testing.T) {
	for _, tail := range []struct {
		name  string
		bytes []byte
	}{
		{"zero-byte", nil},
		{"short-garbage", []byte{0xde, 0xad, 0xbe, 0xef}},
		{"wrong-magic", make([]byte, SegmentHeaderBytes)},
	} {
		t.Run(tail.name, func(t *testing.T) {
			dir := t.TempDir()
			s, st := openSet(t, dir, 1, shard.Options{SyncEvery: 1, CheckpointEveryBatches: -1})
			s.InsertBatch([]uint64{10, 20, 30, 40}, true)
			s.RemoveBatch([]uint64{20}, true)
			want := s.Keys()
			last := st.Positions()[0].Seq
			s.Close()

			// The torn tail: a segment file created past the log's end but
			// headerless (reopen itself recreates the slot at last+1, so the
			// torn file sits one beyond it — the same headerOK=false branch
			// deletes both shapes).
			tp := filepath.Join(dir, shardDirName(0), segmentName(last+2))
			if err := os.WriteFile(tp, tail.bytes, 0o644); err != nil {
				t.Fatalf("write torn tail: %v", err)
			}
			// Scanner tolerance: headerOK=false is a verdict, not an error.
			if _, _, headerOK, err := scanSegment(tp, 0); err != nil || headerOK {
				t.Fatalf("scanSegment(torn tail): headerOK=%v err=%v, want false, nil", headerOK, err)
			}

			s2, st2 := openSet(t, dir, 1, shard.Options{SyncEvery: 1, CheckpointEveryBatches: -1})
			defer s2.Close()
			if !slices.Equal(want, s2.Keys()) {
				t.Fatalf("recovered keys differ after torn tail: %d vs %d", len(want), s2.Len())
			}
			if _, err := os.Stat(tp); !os.IsNotExist(err) {
				t.Fatalf("torn tail not deleted by recovery (stat err %v)", err)
			}

			// Follower bootstrap off the reopened store: chain state plus
			// shipped records must reproduce the exact history.
			set, tip, err := st2.BootState(0)
			if err != nil {
				t.Fatalf("BootState: %v", err)
			}
			recs, err := st2.ReadShippable(0, tip, 0)
			if err != nil {
				t.Fatalf("ReadShippable: %v", err)
			}
			for _, r := range recs {
				if r.Remove {
					set.RemoveBatch(r.Keys, true)
				} else {
					set.InsertBatch(r.Keys, true)
				}
			}
			if !slices.Equal(want, set.Keys()) {
				t.Fatalf("bootstrapped state differs: %d keys vs %d", set.Len(), len(want))
			}
		})
	}
}

// TestOpenFdLeakOnPartialOpen: when a later shard fails validation during
// Open, the earlier shards' already-opened WAL segments must be closed on
// the error path. Injected failure: shard 1's directory is replaced by a
// regular file, so its MkdirAll fails after shard 0 recovered and opened
// its segment.
func TestOpenFdLeakOnPartialOpen(t *testing.T) {
	fdDir := "/proc/self/fd"
	if _, err := os.ReadDir(fdDir); err != nil {
		t.Skipf("no %s on this platform: %v", fdDir, err)
	}
	countFds := func() int {
		ents, err := os.ReadDir(fdDir)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", fdDir, err)
		}
		return len(ents)
	}

	dir := t.TempDir()
	s, _ := openSet(t, dir, 2, shard.Options{SyncEvery: 1})
	s.InsertBatch([]uint64{1, 2, 3}, true)
	s.Close()
	// Break shard 1: a file where its directory must be.
	if err := os.RemoveAll(filepath.Join(dir, shardDirName(1))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shardDirName(1)), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	before := countFds()
	for i := 0; i < 3; i++ {
		if _, _, err := Open(Options{Dir: dir, Shards: 2, SyncEvery: 1}); err == nil {
			t.Fatal("Open succeeded with shard 1's directory replaced by a file")
		}
	}
	if after := countFds(); after > before {
		t.Fatalf("fd leak across failed Opens: %d before, %d after", before, after)
	}
}

// TestReadShippableRetentionAndBootstrap: once base checkpoints advance
// the retention floor past a position, ReadShippable reports
// ErrPositionGone and BootState plus the remaining records reproduce the
// primary's exact per-shard state.
func TestReadShippableRetentionAndBootstrap(t *testing.T) {
	dir := t.TempDir()
	s, st := openSet(t, dir, 2, shard.Options{
		SyncEvery:              1,
		CheckpointEveryBatches: -1,
		CompactEveryDeltas:     -1, // every checkpoint a base: floor advances
	})
	defer s.Close()

	for round := 0; round < 3; round++ {
		keys := make([]uint64, 400)
		for i := range keys {
			keys[i] = uint64(round*400+i)*2_654_435_761 + 1
		}
		s.InsertBatch(keys, false)
		s.RemoveBatch(keys[:50], false)
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}

	gone := false
	for p := 0; p < 2; p++ {
		if _, err := st.ReadShippable(p, 0, 0); errors.Is(err, ErrPositionGone) {
			gone = true
		}
	}
	if !gone {
		t.Fatal("no shard reported ErrPositionGone after repeated base checkpoints")
	}

	// A live tail past the last checkpoint, so bootstrap must combine
	// chain state with shipped records.
	tail := make([]uint64, 200)
	for i := range tail {
		tail[i] = uint64(5000+i)*2_654_435_761 + 1
	}
	s.InsertBatch(tail, false)
	s.Flush()
	for p := 0; p < 2; p++ {
		set, tip, err := st.BootState(p)
		if err != nil {
			t.Fatalf("BootState(%d): %v", p, err)
		}
		recs, err := st.ReadShippable(p, tip, 0)
		if err != nil {
			t.Fatalf("ReadShippable(%d, %d): %v", p, tip, err)
		}
		next := tip
		for _, r := range recs {
			if r.Seq != next+1 {
				t.Fatalf("shard %d: record gap after %d: got %d", p, next, r.Seq)
			}
			next = r.Seq
			if r.Remove {
				set.RemoveBatch(r.Keys, true)
			} else {
				set.InsertBatch(r.Keys, true)
			}
		}
		if !slices.Equal(s.Snapshot().ShardSets()[p].Keys(), set.Keys()) {
			t.Fatalf("shard %d: bootstrapped state differs from primary", p)
		}
	}
}

// TestReadShippableChunking: maxKeys bounds one read, and chained reads
// walk the full sealed sequence without gaps or duplicates.
func TestReadShippableChunking(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(Options{Dir: dir, Shards: 1, SyncEvery: 1, Set: &cpma.Options{}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	total := 0
	for i := 0; i < 20; i++ {
		keys := []uint64{uint64(i)*10 + 1, uint64(i)*10 + 2, uint64(i)*10 + 3}
		if err := st.Append(0, false, keys); err != nil {
			t.Fatal(err)
		}
		total += len(keys)
	}
	var pos uint64
	seen := 0
	for {
		recs, err := st.ReadShippable(0, pos, 5)
		if err != nil {
			t.Fatalf("ReadShippable: %v", err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			if r.Seq != pos+1 {
				t.Fatalf("gap: pos %d, next %d", pos, r.Seq)
			}
			pos = r.Seq
			seen += len(r.Keys)
		}
	}
	if pos != 20 || seen != total {
		t.Fatalf("walked to seq %d with %d keys, want 20 and %d", pos, seen, total)
	}
}
