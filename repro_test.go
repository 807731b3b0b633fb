package repro_test

import (
	"slices"
	"testing"

	"repro"
)

// The facade tests exercise the public API exactly the way a downstream
// user would, without touching internal packages.

func TestSetQuickstart(t *testing.T) {
	s := repro.NewSet(nil)
	if added := s.InsertBatch([]uint64{5, 1, 9, 5}, false); added != 3 {
		t.Fatalf("added = %d", added)
	}
	if !s.Has(5) || s.Has(2) {
		t.Fatal("membership wrong")
	}
	var got []uint64
	s.MapRange(1, 6, func(k uint64) bool {
		got = append(got, k)
		return true
	})
	if !slices.Equal(got, []uint64{1, 5}) {
		t.Fatalf("MapRange = %v", got)
	}
	if s.Sum() != 15 {
		t.Fatalf("Sum = %d", s.Sum())
	}
}

func TestPMAAndSetAgree(t *testing.T) {
	r := repro.NewRNG(1)
	// 32-bit keys at 50k elements give the same delta width (3 bytes) as
	// the paper's 40-bit keys at 1M+, where the >=2x space claim holds.
	keys := repro.UniformKeys(r, 50_000, 32)
	s := repro.NewSet(nil)
	p := repro.NewPMA(nil)
	s.InsertBatch(keys, false)
	p.InsertBatch(keys, false)
	if s.Len() != p.Len() || s.Sum() != p.Sum() {
		t.Fatalf("Set(%d,%d) vs PMA(%d,%d)", s.Len(), s.Sum(), p.Len(), p.Sum())
	}
	if s.SizeBytes()*2 > p.SizeBytes() {
		t.Fatalf("compression ratio regressed: %d vs %d bytes", s.SizeBytes(), p.SizeBytes())
	}
}

func TestFGraphEndToEnd(t *testing.T) {
	r := repro.NewRNG(2)
	edges := repro.Symmetrize(repro.RMATEdges(r, 20_000, 10))
	g := repro.FGraphFromEdges(1<<10, edges)
	g.EnsureIndex()

	labels := repro.ConnectedComponents(g)
	if len(labels) != 1<<10 {
		t.Fatal("label vector size wrong")
	}
	rank := repro.PageRank(g, 10)
	sum := 0.0
	for _, x := range rank {
		sum += x
	}
	if sum < 0.5 || sum > 1.5 {
		t.Fatalf("PR mass %f", sum)
	}
	bc := repro.BC(g, 0)
	if len(bc) != 1<<10 || bc[0] != 0 {
		t.Fatal("BC output wrong")
	}

	// Streaming update then re-query.
	added := g.InsertEdges(repro.Symmetrize(repro.RMATEdges(r, 5000, 10)))
	if added <= 0 {
		t.Fatal("no edges added")
	}
	g.EnsureIndex()
	if repro.ConnectedComponents(g) == nil {
		t.Fatal("CC after update failed")
	}
}

func TestAsyncShardedSet(t *testing.T) {
	s := repro.NewShardedSet(4, nil)
	defer s.Close()
	r := repro.NewRNG(3)
	ref := repro.NewSet(nil)
	for i := 0; i < 30; i++ {
		batch := repro.UniformKeys(r, 2_000, 24)
		s.InsertBatchAsync(batch, false)
		ref.InsertBatch(batch, false)
	}
	s.Flush() // read barrier: everything enqueued above is now visible
	if s.Len() != ref.Len() || s.Sum() != ref.Sum() {
		t.Fatalf("after Flush: Len/Sum = %d/%d, want %d/%d", s.Len(), s.Sum(), ref.Len(), ref.Sum())
	}
	// Blocking batches keep exact counts and are visible on return, to
	// live reads and snapshots alike.
	if n := s.InsertBatch([]uint64{10, 20, 30}, true); n < 0 || n > 3 {
		t.Fatalf("blocking InsertBatch returned %d", n)
	}
	if !s.Has(10) || !s.Has(20) || !s.Snapshot().Has(30) {
		t.Fatal("blocking insert not visible on return")
	}
	st := s.IngestStats()
	if st.EnqueuedBatches == 0 || st.AppliedKeys != st.EnqueuedKeys {
		t.Fatalf("ingest stats inconsistent after Flush: %+v", st)
	}
}

func TestSortedConstructors(t *testing.T) {
	keys := []uint64{2, 4, 6}
	s := repro.SetFromSorted(keys, nil)
	p := repro.PMAFromSorted(keys, nil)
	if s.Len() != 3 || p.Len() != 3 {
		t.Fatal("constructors wrong")
	}
	if v, ok := s.Next(3); !ok || v != 4 {
		t.Fatal("Next wrong")
	}
}

// TestShardedSnapshot exercises the snapshot API the way a downstream
// analytics reader would: capture a frozen cut while async ingest keeps
// running, scan it without a flush barrier, and rely on its immutability.
func TestShardedSnapshot(t *testing.T) {
	s := repro.NewShardedSet(4, nil)
	defer s.Close()
	r := repro.NewRNG(7)
	ref := repro.NewSet(nil)
	for i := 0; i < 10; i++ {
		batch := repro.UniformKeys(r, 2_000, 24)
		s.InsertBatchAsync(batch, false)
		ref.InsertBatch(batch, false)
	}
	s.Flush()
	snap := s.Snapshot()
	if snap.Len() != ref.Len() || snap.Sum() != ref.Sum() {
		t.Fatalf("snapshot = %d/%d, want %d/%d", snap.Len(), snap.Sum(), ref.Len(), ref.Sum())
	}

	// Keep ingesting: the old snapshot must not move while fresh captures do.
	more := repro.UniformKeys(r, 5_000, 24)
	wantLen, wantSum := snap.Len(), snap.Sum()
	s.InsertBatchAsync(more, false)
	s.Flush()
	if snap.Len() != wantLen || snap.Sum() != wantSum {
		t.Fatal("frozen snapshot drifted under later ingest")
	}
	ref.InsertBatch(more, false)
	fresh := s.Snapshot()
	if fresh.Len() != ref.Len() || fresh.Sum() != ref.Sum() {
		t.Fatalf("fresh snapshot = %d/%d, want %d/%d", fresh.Len(), fresh.Sum(), ref.Len(), ref.Sum())
	}

	// Snapshot reads are mutually consistent and ordered.
	keys := fresh.Keys()
	if len(keys) != fresh.Len() || !slices.IsSorted(keys) {
		t.Fatal("snapshot Keys inconsistent")
	}
	if v, ok := fresh.Min(); !ok || v != keys[0] {
		t.Fatal("snapshot Min wrong")
	}
	st := s.SnapshotStats()
	if st.Captures < 2 || st.Publishes == 0 {
		t.Fatalf("snapshot stats inconsistent: %+v", st)
	}

	// The snapshot outlives Close.
	s.Close()
	if fresh.Len() != ref.Len() {
		t.Fatal("snapshot stopped working after Close")
	}
}

func TestDurableShardedSet(t *testing.T) {
	dir := t.TempDir()
	s, err := repro.OpenDurableShardedSet(dir, 4, &repro.ShardedSetOptions{SyncEvery: 1})
	if err != nil {
		t.Fatalf("OpenDurableShardedSet: %v", err)
	}
	if !s.Durable() {
		t.Fatal("durable set does not report Durable")
	}
	r := repro.NewRNG(3)
	keys := repro.UniformKeys(r, 20_000, 40)
	s.InsertBatch(keys, false)
	s.RemoveBatchAsync(keys[:5_000], false)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.InsertBatchAsync(keys[:2_000], false)
	s.Flush()
	want := s.Keys()
	st := s.PersistStats()
	if st.AppendedBatches == 0 || st.Fsyncs == 0 || st.Checkpoints == 0 || st.CheckpointBytes == 0 {
		t.Fatalf("durability counters missing: %+v", st)
	}
	s.Close()

	// Restart from disk: checkpoint plus WAL tail must restore the exact
	// acknowledged state.
	s2, err := repro.OpenDurableShardedSet(dir, 4, &repro.ShardedSetOptions{SyncEvery: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.Keys(); !slices.Equal(got, want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	if st := s2.PersistStats(); st.RecoveredKeys != uint64(len(want)) {
		t.Fatalf("RecoveredKeys = %d, want %d", st.RecoveredKeys, len(want))
	}

	// Geometry is pinned by the manifest.
	if _, err := repro.OpenDurableShardedSet(dir, 8, nil); err == nil {
		t.Fatal("reopen with a different shard count succeeded")
	}
}
