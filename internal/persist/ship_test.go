package persist

// Tests for the WAL shipping read side (ship.go) and the three bugs
// building it exposed: the live-segment read race against the writer's
// bufio buffer, torn-header tail segments, and fd leaks on partial Open.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cpma"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestShippableSealRegression reproduces the live-segment short-read: a
// record acknowledged by Append can be entirely or partially absent from
// the segment file while the writer's bufio buffer holds it, so a naive
// file-reading shipper ships a short (or torn) view of acked records.
// ShippableUpTo/ReadShippable must expose nothing until the fsync seals
// the prefix, then expose exactly the acked records.
func TestShippableSealRegression(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, 1, shard.Options{SyncEvery: -1, SyncBytes: -1})
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
	frames, last, _, err := st.ReadShippable(nil, 0, 0, 0)
	if err != nil || frames != nil || last != 0 {
		t.Fatalf("ReadShippable before seal = %d bytes up to seq %d, err %v; want none", len(frames), last, err)
	}
	// ...and exactly the acked records after it.
	if err := st.Synced(0); err != nil {
		t.Fatalf("Synced: %v", err)
	}
	if seal := st.ShippableUpTo(0); seal != 2 {
		t.Fatalf("seal %d after fsync, want 2", seal)
	}
	recs := shippedRecs(t, st, 0, 0, 0)
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
		{"wrong-magic", make([]byte, segHeaderSize)},
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
			tp := filepath.Join(dir, shardDirName(0), segFiles.name(last+2))
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
			for _, r := range shippedRecs(t, st2, 0, tip, 0) {
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
		if _, _, err := Open(dir, 2, shard.Options{SyncEvery: 1}); err == nil {
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
		if _, _, _, err := st.ReadShippable(nil, p, 0, 0); errors.Is(err, ErrPositionGone) {
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
		next := tip
		for _, r := range shippedRecs(t, st, p, tip, 0) {
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

// TestReadShippableChunking: maxKeys bounds one read, even inside one
// segment (a read stops at the record that reaches the bound), and chained
// reads walk the full sealed sequence without gaps or duplicates.
func TestReadShippableChunking(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, 1, shard.Options{SyncEvery: 1, Set: &cpma.Options{}})
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
		recs := shippedRecs(t, st, 0, pos, 5)
		if len(recs) == 0 {
			break
		}
		// Three-key records against a bound of 5: the second one reaches it.
		if len(recs) > 2 {
			t.Fatalf("read after seq %d returned %d records, want at most 2", pos, len(recs))
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

// shippedRecs reads shard p's shippable frames after afterSeq and decodes
// them, checking that the last sequence and key count ReadShippable
// reports describe the frames it returned.
func shippedRecs(t *testing.T, st *Store, p int, afterSeq uint64, maxKeys int) []Rec {
	t.Helper()
	frames, last, keys, err := st.ReadShippable(nil, p, afterSeq, maxKeys)
	if err != nil {
		t.Fatalf("ReadShippable(%d, %d): %v", p, afterSeq, err)
	}
	recs, err := DecodeRecs(frames)
	if err != nil {
		t.Fatalf("shipped frames do not decode: %v", err)
	}
	wantLast, n := afterSeq, 0
	for _, r := range recs {
		wantLast = r.Seq
		n += len(r.Keys)
	}
	if last != wantLast || keys != n {
		t.Fatalf("ReadShippable reports seq %d and %d keys, frames end at %d with %d", last, keys, wantLast, n)
	}
	return recs
}

// TestShipFramesAreTheLog: the frames ReadShippable returns are the log's
// own bytes. Over appends, group commits, segment rotations (checkpoints),
// rebalance barrier records, maxKeys chunking and unsynced bytes past the
// seal, chained reads return exactly the segment bytes between each
// sealed record's start and end as walkRecords reports them. DecodeRecs
// of those frames gives the records recovery reads, and AppendRecord of
// the records (what the primary used to put on the wire) gives the same
// bytes. A tail poll's allocations do not grow with the records before it.
func TestShipFramesAreTheLog(t *testing.T) {
	const shards, chunk = 3, 500
	s, st := openSet(t, t.TempDir(), shards, shard.Options{
		Partition: shard.RangePartition, KeyBits: workload.UniformBits,
		SyncEvery: 4, SyncBytes: -1, CheckpointEveryBatches: -1,
	})
	defer s.Close()
	r := workload.NewRNG(17)
	for round := 0; round < 3; round++ {
		for i := 0; i < 6; i++ {
			keys := workload.Uniform(r, 300, workload.UniformBits)
			s.InsertBatch(keys, false)
			if i%3 == 0 {
				s.RemoveBatch(keys[:50], false)
			}
		}
		// Dense keys land in one shard's span: a move for the rebalancer.
		dense := seqKeys(2000)
		for i := range dense {
			dense[i] += uint64(round) * 2000
		}
		s.InsertBatch(dense, true)
		s.Flush()
		s.RebalanceOnce()
		if round == 1 {
			// A first checkpoint rotates the segments and retires none.
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	// Unsynced records past the seal, in the segment that holds the last
	// sealed ones: a small record, then one large enough that the
	// writer's buffer flushes the small one whole, and part of the large
	// one, into the file.
	s.InsertBatch(workload.Uniform(r, 300, workload.UniformBits), false)
	s.InsertBatch(workload.Uniform(r, 60_000, workload.UniformBits), false)

	var tail, rotated, chunked bool
	barriers := 0
	for p := 0; p < shards; p++ {
		sh := st.shards[p]
		sh.mu.Lock()
		seal, active, synced := sh.syncedSeq, sh.seg.path, sh.seg.synced
		sh.mu.Unlock()
		segs, err := segFiles.list(sh.dir)
		if err != nil {
			t.Fatal(err)
		}
		rotated = rotated || (len(segs) > 1 && segs[0] == 1)
		var want []byte
		var wantRecs []Rec
		for _, fs := range segs {
			path := filepath.Join(sh.dir, segFiles.name(fs))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tail = tail || (path == active && int64(len(data)) > synced)
			recs, _, _ := scanSegmentBytes(data, p)
			for _, rec := range recs {
				if rec.Seq <= seal {
					want = append(want, data[rec.start:rec.end]...)
					wantRecs = append(wantRecs, rec)
				}
			}
		}
		if len(wantRecs) == 0 || wantRecs[len(wantRecs)-1].Seq != seal {
			t.Fatalf("shard %d: the segments hold %d sealed records, the seal is %d", p, len(wantRecs), seal)
		}
		after := wantRecs[0].Seq - 1 // the oldest retained record's predecessor

		var got []byte
		for pos := after; ; {
			frames, last, keys, err := st.ReadShippable(nil, p, pos, chunk)
			if err != nil {
				t.Fatalf("shard %d: ReadShippable(%d): %v", p, pos, err)
			}
			if last == pos {
				break
			}
			if keys < chunk && last != seal {
				t.Fatalf("shard %d: a read after %d stopped at %d with %d keys", p, pos, last, keys)
			}
			chunked = chunked || last != seal || pos != after
			got, pos = append(got, frames...), last
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shard %d: chained reads shipped %d bytes, the log holds %d sealed", p, len(got), len(want))
		}
		full, last, _, err := st.ReadShippable([]byte("dst"), p, after, 0)
		if err != nil || last != seal || string(full[:3]) != "dst" || !bytes.Equal(full[3:], want) {
			t.Fatalf("shard %d: one read after dst: seq %d, %d bytes, err %v", p, last, len(full), err)
		}

		decoded, err := DecodeRecs(got)
		if err != nil || len(decoded) != len(wantRecs) {
			t.Fatalf("shard %d: %d frames decode to %d records, err %v", p, len(wantRecs), len(decoded), err)
		}
		var reenc []byte
		for i, rec := range decoded {
			w := wantRecs[i]
			if rec.Seq != w.Seq || rec.Remove != w.Remove || rec.Gen != w.Gen || !slices.Equal(rec.Keys, w.Keys) {
				t.Fatalf("shard %d: shipped record %d differs from the one recovery reads", p, w.Seq)
			}
			if rec.Gen != 0 {
				barriers++
			}
			reenc = AppendRecord(reenc, rec)
		}
		if !bytes.Equal(reenc, got) {
			t.Fatalf("shard %d: re-encoded records differ from the shipped frames", p)
		}
	}
	if !tail || !rotated || !chunked || barriers == 0 {
		t.Fatalf("coverage: unsynced tail %v, rotation %v, chunking %v, %d barriers", tail, rotated, chunked, barriers)
	}

	allocs := func(records int) float64 {
		st := sealedLog(t, records, 100)
		return testing.AllocsPerRun(20, func() {
			if _, _, _, err := st.ReadShippable(nil, 0, uint64(records-3), 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	// AllocsPerRun counts the whole process's allocations, and the
	// runtime (more so under -race) adds a few per run at random; a
	// decoded record would add one per record, about 380 here.
	if short, long := allocs(20), allocs(400); long > short+10 {
		t.Fatalf("a 3-record tail poll allocates %v times after 400 records, %v after 20", long, short)
	}
}

// sealedLog opens a one-shard store whose only segment holds the given
// number of sealed records, each of keys uniform 40-bit keys.
func sealedLog(tb testing.TB, records, keys int) *Store {
	st, _, err := Open(tb.TempDir(), 1, shard.Options{SyncEvery: -1, SyncBytes: -1, CheckpointEveryBatches: -1})
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	tb.Cleanup(func() { st.Close() })
	r := workload.NewRNG(29)
	for i := 0; i < records; i++ {
		ks := workload.Uniform(r, keys, workload.UniformBits)
		slices.Sort(ks)
		if err := st.Append(0, false, ks); err != nil {
			tb.Fatalf("Append: %v", err)
		}
	}
	if err := st.Synced(0); err != nil {
		tb.Fatalf("Synced: %v", err)
	}
	return st
}

// BenchmarkReadShippable times a shipper's read of one shard whose only
// segment holds 400 sealed records of 1000 uniform 40-bit keys: a tail
// poll for the last 3 records, and a read of all of them.
func BenchmarkReadShippable(b *testing.B) {
	st := sealedLog(b, 400, 1000)
	for _, bc := range []struct {
		name  string
		after uint64
	}{{"tail", 397}, {"full", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, _, err := st.ReadShippable(nil, 0, bc.after, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
