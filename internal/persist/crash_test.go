package persist

// Crash-consistency differential harness (the acceptance test for the
// durability design): run a scripted batch history against a durable set
// with per-record fsync, then for every byte offset N of a shard's WAL
// simulate a crash that stopped writing at byte N — copy the store, cut
// the log at N, recover — and require the recovered shard to equal
// exactly the sorted-slice model's state after the batches whose records
// fit entirely within N bytes. That is the contract in one sentence:
// synced batches are never lost, torn tails are cleanly truncated, and
// recovery is always a per-shard prefix of the acknowledged history.

import (
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cpma"
	"repro/internal/shard"
	"repro/internal/workload"
)

// --- test-local routing replica (kept independent of the shard package's
// internals so a routing regression breaks this test instead of silently
// re-deriving the model from the bug) ---

// routeTest returns the shard a key routes to and the value that shard
// stores for it: the key itself under RangePartition, and under
// HashPartition the quotient q = key>>b plus one on shard (h(q) + r) mod
// shards, with b = floor(log2 shards), r the key's low b bits and h(q)
// the Fibonacci multiply-shift hi64((q * 0x9e3779b97f4a7c15) * shards).
func routeTest(part shard.Partition, shards, keyBits int, key uint64) (int, uint64) {
	if part == shard.RangePartition {
		total := uint64(1) << uint(keyBits)
		w := total / uint64(shards)
		if total%uint64(shards) != 0 {
			w++
		}
		p := int(key / w)
		if p >= shards {
			p = shards - 1
		}
		return p, key
	}
	if shards == 1 {
		return 0, key
	}
	b := bits.Len(uint(shards)) - 1
	q := key >> b
	h, _ := bits.Mul64(q*0x9e3779b97f4a7c15, uint64(shards))
	return int((h + key&(1<<b-1)) % uint64(shards)), q + 1
}

// scriptOp is one global batch of the scripted history.
type scriptOp struct {
	remove bool
	keys   []uint64 // sorted, duplicate-free
}

// buildScript makes a deterministic mixed insert/remove history over
// [1, 2^keyBits).
func buildScript(batches, batchSize, keyBits int) []scriptOp {
	r := workload.NewRNG(99)
	var script []scriptOp
	for i := 0; i < batches; i++ {
		if i%3 == 2 {
			// Retract half of the previous batch.
			prev := script[i-1].keys
			script = append(script, scriptOp{remove: true, keys: slices.Clone(prev[:len(prev)/2])})
			continue
		}
		keys := workload.Uniform(r, batchSize, keyBits)
		slices.Sort(keys)
		script = append(script, scriptOp{keys: slices.Compact(keys)})
	}
	return script
}

// subBatches projects the script onto one shard: the per-shard sequence of
// non-empty sorted sub-batches of stored values, exactly the records the
// shard's WAL must hold (blocking batch calls are ticketed, so each
// sub-batch applies — and logs — individually, in enqueue order).
func subBatches(script []scriptOp, part shard.Partition, shards, keyBits, p int) []scriptOp {
	var subs []scriptOp
	for _, op := range script {
		var sub []uint64
		for _, k := range op.keys {
			if q, v := routeTest(part, shards, keyBits, k); q == p {
				sub = append(sub, v)
			}
		}
		if len(sub) > 0 {
			subs = append(subs, scriptOp{remove: op.remove, keys: sub})
		}
	}
	return subs
}

// prefixStates returns the sorted-slice model states after each prefix of
// the sub-batch sequence: states[m] is the shard's exact content once its
// first m records have applied.
func prefixStates(subs []scriptOp) [][]uint64 {
	var m model
	states := make([][]uint64, 0, len(subs)+1)
	states = append(states, nil)
	for _, op := range subs {
		if op.remove {
			m.RemoveBatch(op.keys)
		} else {
			m.InsertBatch(op.keys)
		}
		states = append(states, slices.Clone(m.keys))
	}
	return states
}

// model is the sorted-slice reference (same shape as the cpma differential
// harness's).
type model struct{ keys []uint64 }

func (m *model) InsertBatch(keys []uint64) {
	m.keys = append(m.keys, keys...)
	slices.Sort(m.keys)
	m.keys = slices.Compact(m.keys)
}

func (m *model) RemoveBatch(keys []uint64) {
	out := m.keys[:0]
	for _, k := range m.keys {
		if _, found := slices.BinarySearch(keys, k); !found {
			out = append(out, k)
		}
	}
	m.keys = out
}

func cpmaKeys(c *cpma.CPMA) []uint64 {
	var out []uint64
	c.Map(func(k uint64) bool {
		out = append(out, k)
		return true
	})
	return out
}

func TestKillPointDifferential(t *testing.T) {
	const (
		shards    = 3
		keyBits   = 16
		batches   = 9
		batchSize = 40
	)
	for _, cfg := range []struct {
		name string
		part shard.Partition
	}{
		{"hash", shard.HashPartition},
		{"range", shard.RangePartition},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			script := buildScript(batches, batchSize, keyBits)
			popt := Options{
				Shards:                 shards,
				SyncEvery:              1, // every acknowledged record is durable
				CheckpointEveryBatches: -1,
				Partition:              cfg.part,
				KeyBits:                keyBits,
			}

			// Baseline run: scripted history through blocking (ticketed)
			// batch calls, so the WAL holds one record per sub-batch in
			// enqueue order.
			base := t.TempDir()
			s, _ := openSet(t, base, shards, shard.Options{
				Partition: cfg.part, KeyBits: keyBits,
				SyncEvery: popt.SyncEvery, CheckpointEveryBatches: popt.CheckpointEveryBatches,
			})
			for _, op := range script {
				if op.remove {
					s.RemoveBatch(op.keys, true)
				} else {
					s.InsertBatch(op.keys, true)
				}
			}
			s.Close()

			// Per-shard model and baseline log cross-check: the records on
			// disk must already match the projected sub-batches.
			type shardPlan struct {
				segPath string
				recs    []walRecord
				states  [][]uint64
				size    int64
			}
			plans := make([]shardPlan, shards)
			for p := 0; p < shards; p++ {
				subs := subBatches(script, cfg.part, shards, keyBits, p)
				pl := shardPlan{
					segPath: filepath.Join(base, shardDirName(p), segmentName(1)),
					states:  prefixStates(subs),
				}
				recs, _, ok, err := scanSegment(pl.segPath, p)
				if err != nil || !ok {
					t.Fatalf("shard %d: baseline scan failed: ok=%v err=%v", p, ok, err)
				}
				if len(recs) != len(subs) {
					t.Fatalf("shard %d: %d WAL records, model projects %d sub-batches", p, len(recs), len(subs))
				}
				for i, rec := range recs {
					if rec.remove() != subs[i].remove || !slices.Equal(rec.keys, subs[i].keys) {
						t.Fatalf("shard %d record %d does not match projected sub-batch", p, i)
					}
				}
				info, err := os.Stat(pl.segPath)
				if err != nil {
					t.Fatal(err)
				}
				pl.recs, pl.size = recs, info.Size()
				plans[p] = pl
			}

			// The sweep: for every kill shard and (strided off the primary
			// shard to bound runtime) every byte offset N, crash-copy,
			// truncate, recover, compare every shard against its model.
			popt2 := popt
			for p := 0; p < shards; p++ {
				stride := int64(1)
				if p > 0 {
					stride = 7
				}
				if testing.Short() {
					stride *= 13
				}
				for n := int64(0); n <= plans[p].size; n += stride {
					killDir := filepath.Join(t.TempDir(), "kill")
					if err := os.CopyFS(killDir, os.DirFS(base)); err != nil {
						t.Fatal(err)
					}
					if err := os.Truncate(filepath.Join(killDir, shardDirName(p), segmentName(1)), n); err != nil {
						t.Fatal(err)
					}
					popt2.Dir = killDir
					st, sets, err := Open(popt2)
					if err != nil {
						t.Fatalf("shard %d kill@%d: recovery failed: %v", p, n, err)
					}
					for q := 0; q < shards; q++ {
						wantM := len(plans[q].states) - 1 // undamaged: full history
						if q == p {
							wantM = 0
							for _, rec := range plans[p].recs {
								if rec.end <= n {
									wantM++
								}
							}
						}
						if err := sets[q].Validate(); err != nil {
							t.Fatalf("shard %d kill@%d: recovered shard %d invalid: %v", p, n, q, err)
						}
						got := cpmaKeys(sets[q])
						want := plans[q].states[wantM]
						if !slices.Equal(got, want) {
							t.Fatalf("shard %d kill@%d: shard %d recovered %d keys, model prefix %d/%d has %d",
								p, n, q, len(got), wantM, len(plans[q].states)-1, len(want))
						}
					}
					st.Close()
				}
			}
		})
	}
}

// TestCheckpointFallback drives checkpoints into the history and then
// damages the newest checkpoint: recovery must fall back (to the retained
// previous checkpoint or, before any truncation, to the full log) without
// losing a single acknowledged batch.
func TestCheckpointFallback(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	r := workload.NewRNG(5)
	opt := shard.Options{SyncEvery: 1, CheckpointEveryBatches: -1}
	s, _ := openSet(t, dir, shards, opt)
	var all []uint64
	ingest := func(n int) {
		keys := workload.Uniform(r, n, 20)
		s.InsertBatch(keys, false)
		all = append(all, keys...)
	}
	ingest(4_000)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingest(4_000)
	if err := s.Checkpoint(); err != nil { // second: truncates WAL <= first
		t.Fatal(err)
	}
	ingest(2_000)
	s.Flush()
	want := s.Keys()
	s.Close()

	// Clean reopen first.
	s2, _ := openSet(t, dir, shards, opt)
	if !slices.Equal(want, s2.Keys()) {
		t.Fatal("clean reopen lost data")
	}
	s2.Close()

	// Flip a byte inside shard 0's newest checkpoint payload.
	sdir := filepath.Join(dir, shardDirName(0))
	ckpts, err := listSeqFiles(sdir, "ckpt-", ".ckpt")
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("want 2 retained checkpoints, have %v (err %v)", ckpts, err)
	}
	path := filepath.Join(sdir, checkpointName(ckpts[1]))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x20
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s3, _ := openSet(t, dir, shards, opt)
	defer s3.Close()
	if err := s3.Validate(); err != nil {
		t.Fatalf("fallback recovery invalid: %v", err)
	}
	if !slices.Equal(want, s3.Keys()) {
		t.Fatal("fallback recovery after checkpoint corruption lost data")
	}
	if st := s3.PersistStats(); st.ReplayedBatches == 0 {
		t.Fatal("fallback recovery should have replayed the WAL tail")
	}
	// The rejected newer checkpoint must be gone: recovery resumes
	// sequence numbering from the fallback position, and a lingering
	// stale checkpoint could win a future recovery and resurrect the
	// state this one rejected.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("rejected checkpoint left on disk")
	}
}
