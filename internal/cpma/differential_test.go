package cpma_test

// Differential fuzz test: the CPMA in both leaf formats and the sharded
// front-end are driven against a sorted-slice reference model through
// randomized interleaved point/batch/query sequences. After every step the
// mutated system must hold exactly the model's contents and pass the
// strict leaf invariants (byte-density bounds, strictly increasing decoded
// keys, zero-free codes in compressed leaves) — failures dump the
// offending leaf.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/cpma"
	"repro/internal/shard"
	"repro/internal/workload"
)

// sut is the face shared by every system under differential test.
type sut interface {
	Insert(uint64) bool
	Remove(uint64) bool
	Has(uint64) bool
	InsertBatch([]uint64, bool) int
	RemoveBatch([]uint64, bool) int
	Len() int
	Keys() []uint64
	MapRange(uint64, uint64, func(uint64) bool) bool
}

// validator is implemented by every system under test.
type validator interface{ Validate() error }

// snapshotter is implemented by the sharded systems: Snapshot captures a
// frozen cut of the published handles and Flush makes it cover everything
// previously enqueued (the read-your-flushes guarantee).
type snapshotter interface {
	Flush()
	Snapshot() *shard.Snapshot
}

// auditSnapshot cross-checks a frozen Snapshot against the model: after a
// Flush the capture must hold exactly the model's contents, its aggregate
// reads must be mutually consistent, and — since the snapshot is immutable
// — it must still hold those contents after the walk mutates the live set.
// Returns the snapshot and its expected contents for a later re-check.
func auditSnapshot(t *testing.T, tag string, sp snapshotter, m *model) (*shard.Snapshot, []uint64) {
	t.Helper()
	sp.Flush()
	snap := sp.Snapshot()
	if got, want := snap.Len(), len(m.keys); got != want {
		t.Fatalf("%s: snapshot Len = %d, model says %d", tag, got, want)
	}
	got := snap.Keys()
	want := append([]uint64(nil), m.keys...)
	if len(got) != len(want) {
		t.Fatalf("%s: snapshot Keys length %d, model says %d", tag, len(got), len(want))
	}
	var sum uint64
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: snapshot Keys[%d] = %d, model says %d", tag, i, got[i], want[i])
		}
		sum += got[i]
	}
	if snap.Sum() != sum {
		t.Fatalf("%s: snapshot Sum inconsistent with its own Keys", tag)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("%s: snapshot invariants: %v", tag, err)
	}
	return snap, want
}

// model is the sorted-slice reference.
type model struct{ keys []uint64 }

func (m *model) find(x uint64) (int, bool) {
	i := sort.Search(len(m.keys), func(i int) bool { return m.keys[i] >= x })
	return i, i < len(m.keys) && m.keys[i] == x
}

func (m *model) Insert(x uint64) bool {
	i, ok := m.find(x)
	if ok {
		return false
	}
	m.keys = append(m.keys, 0)
	copy(m.keys[i+1:], m.keys[i:])
	m.keys[i] = x
	return true
}

func (m *model) Remove(x uint64) bool {
	i, ok := m.find(x)
	if !ok {
		return false
	}
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	return true
}

func (m *model) Has(x uint64) bool { _, ok := m.find(x); return ok }

func (m *model) InsertBatch(keys []uint64) int {
	added := 0
	for _, k := range keys {
		if m.Insert(k) {
			added++
		}
	}
	return added
}

func (m *model) RemoveBatch(keys []uint64) int {
	removed := 0
	for _, k := range keys {
		if m.Remove(k) {
			removed++
		}
	}
	return removed
}

func (m *model) Range(start, end uint64) []uint64 {
	lo, _ := m.find(start)
	hi, _ := m.find(end)
	return m.keys[lo:hi]
}

// smallLeaf pins the CPMA leaves to the compressed format's minimum, 512
// bytes, so the random walks cross many leaf boundaries, splits and
// rebuilds.
var smallLeaf = &cpma.Options{LeafBytes: 512}

func systems() map[string]func() sut {
	return map[string]func() sut{
		"cpma":       func() sut { return cpma.New(nil) },
		"cpma-small": func() sut { return cpma.New(smallLeaf) },
		"pma":        func() sut { return cpma.NewUncompressed(nil) },
		// The sharded set, driven through its blocking (ticketed enqueue +
		// wait) paths: every step's counts must stay exact and every read
		// must observe the preceding mutations (read-your-writes). The
		// "shard-async" systems differ from the first two by tiny mailboxes
		// (constant backpressure); "flushreads" also flushes before every
		// read.
		"shard-hash": func() sut {
			return shard.New(4, &shard.Options{Partition: shard.HashPartition, Set: smallLeaf})
		},
		"shard-range": func() sut {
			return shard.New(3, &shard.Options{Partition: shard.RangePartition, KeyBits: 18, Set: smallLeaf})
		},
		"shard-async": func() sut {
			return shard.New(4, &shard.Options{Partition: shard.HashPartition, Set: smallLeaf, MailboxDepth: 4})
		},
		"shard-async-flushreads": func() sut {
			return flushReads{shard.New(3, &shard.Options{Partition: shard.RangePartition, KeyBits: 18, Set: smallLeaf,
				MailboxDepth: 2})}
		},
		// "shard-async" with every unsorted batch resent full of repeats
		// (hotBatches), so ticketed counts run through the enqueue-side
		// repeat filter and must stay exact.
		"shard-async-hotkey": func() sut {
			return hotBatches{shard.New(4, &shard.Options{Partition: shard.HashPartition, Set: smallLeaf, MailboxDepth: 4})}
		},
	}
}

// hotBatches wraps a sharded set so every unsorted batch is sent with each
// key twice and its first key 64 more times: the same set operation, so
// every count must match the model's.
type hotBatches struct{ *shard.Sharded }

func (h hotBatches) InsertBatch(keys []uint64, sorted bool) int {
	return h.Sharded.InsertBatch(withRepeats(keys, sorted), sorted)
}

func (h hotBatches) RemoveBatch(keys []uint64, sorted bool) int {
	return h.Sharded.RemoveBatch(withRepeats(keys, sorted), sorted)
}

func withRepeats(keys []uint64, sorted bool) []uint64 {
	if sorted || len(keys) == 0 {
		return keys
	}
	out := append(slices.Clone(keys), keys...)
	for i := 0; i < 64; i++ {
		out = append(out, keys[0])
	}
	return out
}

// flushReads wraps a sharded set so every read flushes first: its reads
// also cover fire-and-forget batches enqueued before them.
type flushReads struct{ *shard.Sharded }

func (f flushReads) Has(x uint64) bool { f.Flush(); return f.Sharded.Has(x) }
func (f flushReads) Len() int          { f.Flush(); return f.Sharded.Len() }
func (f flushReads) Keys() []uint64    { f.Flush(); return f.Sharded.Keys() }
func (f flushReads) MapRange(start, end uint64, fn func(uint64) bool) bool {
	f.Flush()
	return f.Sharded.MapRange(start, end, fn)
}

// rebalances sums cpma.Rebalances over a system's CPMAs: the set itself,
// or a sharded set's shard handles once everything enqueued is applied.
func rebalances(s sut) (multiLeaf, grows int) {
	switch s := s.(type) {
	case *cpma.CPMA:
		return s.Rebalances()
	case snapshotter:
		s.Flush()
		for _, set := range s.Snapshot().ShardSets() {
			m, g := set.Rebalances()
			multiLeaf, grows = multiLeaf+m, grows+g
		}
	}
	return multiLeaf, grows
}

func validate(s sut) error {
	if v, ok := s.(validator); ok {
		return v.Validate()
	}
	return nil
}

// closeSut stops an async system's shard writers when the test ends.
func closeSut(t *testing.T, s sut) {
	if c, ok := s.(interface{ Close() }); ok {
		t.Cleanup(c.Close)
	}
}

// step applies one random operation to both the model and the system and
// cross-checks results. Returns a description for failure messages.
func step(t *testing.T, r *workload.RNG, bits int, m *model, s sut) string {
	t.Helper()
	keyOf := func() uint64 { return 1 + r.Uint64()%(1<<uint(bits)) }
	// One batch in four has 1-3 keys: tiny batches run the same batch
	// path as large ones, down to the leaf splice.
	batchOf := func() []uint64 {
		n := 1 + r.Intn(300)
		if r.Intn(4) == 0 {
			n = 1 + r.Intn(3)
		}
		return workload.Uniform(r, n, bits)
	}
	switch op := r.Intn(7); op {
	case 0: // point insert
		k := keyOf()
		if got, want := s.Insert(k), m.Insert(k); got != want {
			t.Fatalf("Insert(%d) = %v, model says %v", k, got, want)
		}
		return fmt.Sprintf("Insert(%d)", k)
	case 1: // point remove
		k := keyOf()
		if got, want := s.Remove(k), m.Remove(k); got != want {
			t.Fatalf("Remove(%d) = %v, model says %v", k, got, want)
		}
		return fmt.Sprintf("Remove(%d)", k)
	case 2: // batch insert (sometimes pre-sorted)
		b := batchOf()
		sorted := r.Intn(2) == 0
		if sorted {
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		}
		if got, want := s.InsertBatch(b, sorted), m.InsertBatch(b); got != want {
			t.Fatalf("InsertBatch(%d keys, sorted=%v) added %d, model says %d", len(b), sorted, got, want)
		}
		return fmt.Sprintf("InsertBatch(%d)", len(b))
	case 3: // batch remove
		b := batchOf()
		if got, want := s.RemoveBatch(b, false), m.RemoveBatch(b); got != want {
			t.Fatalf("RemoveBatch(%d keys) removed %d, model says %d", len(b), got, want)
		}
		return fmt.Sprintf("RemoveBatch(%d)", len(b))
	case 4: // membership queries
		for i := 0; i < 20; i++ {
			k := keyOf()
			if got, want := s.Has(k), m.Has(k); got != want {
				t.Fatalf("Has(%d) = %v, model says %v", k, got, want)
			}
		}
		return "Has×20"
	case 5: // range map
		start := r.Uint64() % (1 << uint(bits))
		end := start + r.Uint64()%(1<<uint(bits-2))
		var got []uint64
		s.MapRange(start, end, func(v uint64) bool { got = append(got, v); return true })
		want := m.Range(start, end)
		if len(got) != len(want) {
			t.Fatalf("MapRange[%d,%d) yielded %d keys, model says %d", start, end, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("MapRange[%d,%d) pos %d = %d, model says %d", start, end, i, got[i], want[i])
			}
		}
		return fmt.Sprintf("MapRange(%d)", len(want))
	default: // remove a run of existing keys to drive shrink paths
		if len(m.keys) > 100 {
			lo := r.Intn(len(m.keys) - 50)
			run := append([]uint64(nil), m.keys[lo:lo+50]...)
			if got, want := s.RemoveBatch(run, true), m.RemoveBatch(run); got != want {
				t.Fatalf("RemoveBatch(existing run) removed %d, model says %d", got, want)
			}
		}
		return "RemoveRun"
	}
}

func TestDifferential(t *testing.T) {
	const steps = 1200
	for name, mk := range systems() {
		// Each system's walks together must reach a redistribution of more
		// than one leaf and a growth. The dense 14-bit walks of the hash
		// sharded systems hold ~1.5k keys per shard, under the 0.9 leaf
		// bound of four 512-byte leaves, so they never grow.
		multi, grows := 0, 0
		for _, seed := range []uint64{1, 2} {
			for _, bits := range []int{14, 30} {
				t.Run(fmt.Sprintf("%s/seed%d/bits%d", name, seed, bits), func(t *testing.T) {
					r := workload.NewRNG(seed)
					m := &model{}
					s := mk()
					closeSut(t, s)
					var frozen *shard.Snapshot
					var frozenWant []uint64
					for i := 0; i < steps; i++ {
						desc := step(t, r, bits, m, s)
						if got, want := s.Len(), len(m.keys); got != want {
							t.Fatalf("step %d (%s): Len = %d, model says %d", i, desc, got, want)
						}
						if err := validate(s); err != nil {
							t.Fatalf("step %d (%s): invariants: %v", i, desc, err)
						}
						// Full-content audits are O(n); amortize them.
						if i%50 == 0 || i == steps-1 {
							got, want := s.Keys(), m.keys
							if len(got) != len(want) {
								t.Fatalf("step %d (%s): Keys length %d, model says %d", i, desc, len(got), len(want))
							}
							for j := range got {
								if got[j] != want[j] {
									t.Fatalf("step %d (%s): Keys[%d] = %d, model says %d", i, desc, j, got[j], want[j])
								}
							}
							if sp, ok := s.(snapshotter); ok {
								// The snapshot taken 50 steps ago must be
								// untouched by everything the walk did since.
								if frozen != nil && !slices.Equal(frozen.Keys(), frozenWant) {
									t.Fatalf("step %d (%s): an earlier snapshot drifted under later mutations", i, desc)
								}
								frozen, frozenWant = auditSnapshot(t, fmt.Sprintf("step %d (%s)", i, desc), sp, m)
							}
						}
					}
					dm, dg := rebalances(s)
					multi, grows = multi+dm, grows+dg
				})
			}
		}
		if multi == 0 || grows == 0 {
			t.Errorf("%s: walks ran %d multi-leaf redistributions and %d growths; they must reach both", name, multi, grows)
		}
	}
}

// TestDifferentialAsync drives the mailbox pipeline the way it is meant
// to be used — bursts of fire-and-forget enqueues — against the
// sorted-slice model. Enqueues from one goroutine apply in order per
// shard, so after a barrier the contents must equal the model's replay of
// the same burst sequence. The "flush" variants establish the barrier
// with one Flush per burst; the "flushreads" variants flush before every
// read instead (flushReads). The "hotkey" variants add two occurrences of a
// four-key hot set per key to every batch, so bursts of inserts and removes
// of the same hot keys race through the enqueue-side repeat filter. The
// "narrow" variant reaches a multi-leaf redistribution and a growth
// however the writers coalesce its bursts (see asyncNarrow).
func TestDifferentialAsync(t *testing.T) {
	hashOpt := &shard.Options{Partition: shard.HashPartition, Set: smallLeaf, MailboxDepth: 4}
	rangeOpt := &shard.Options{Partition: shard.RangePartition, KeyBits: 18, Set: smallLeaf, MailboxDepth: 2}
	for _, tc := range []struct {
		name       string
		opt        *shard.Options
		flushReads bool
		hot        bool
	}{
		{"flush", hashOpt, false, false},
		{"flushreads", rangeOpt, true, false},
		{"hotkey-flush", hashOpt, false, true},
		{"hotkey-flushreads", rangeOpt, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := shard.New(3, tc.opt)
			t.Cleanup(set.Close)
			s := sut(set)
			if tc.flushReads {
				s = flushReads{set}
			}
			m := &model{}
			r := workload.NewRNG(5)
			for round := 0; round < 80; round++ {
				for b := 1 + r.Intn(8); b > 0; b-- {
					keys := workload.Uniform(r, 1+r.Intn(800), 16)
					if tc.hot {
						for i := 2 * len(keys); i > 0; i-- {
							keys = append(keys, 1+uint64(r.Intn(4)))
						}
					}
					if r.Intn(3) == 0 {
						set.RemoveBatchAsync(keys, false)
						m.RemoveBatch(keys)
					} else {
						set.InsertBatchAsync(keys, false)
						m.InsertBatch(keys)
					}
				}
				if !tc.flushReads {
					set.Flush()
				}
				if got, want := s.Len(), len(m.keys); got != want {
					t.Fatalf("round %d: Len = %d, model says %d", round, got, want)
				}
				if round%8 == 7 || round == 79 {
					got := s.Keys()
					if len(got) != len(m.keys) {
						t.Fatalf("round %d: Keys length %d, model says %d", round, len(got), len(m.keys))
					}
					for i := range got {
						if got[i] != m.keys[i] {
							t.Fatalf("round %d: Keys[%d] = %d, model says %d", round, i, got[i], m.keys[i])
						}
					}
					if err := set.Validate(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					auditSnapshot(t, fmt.Sprintf("round %d", round), set, m)
				}
			}
		})
	}
	t.Run("narrow", func(t *testing.T) { asyncNarrow(t, rangeOpt) })
}

// asyncNarrow reaches both rebalances through the mailbox pipeline by
// construction rather than by how the writers happen to coalesce bursts.
// After the preload every burst stays under a tenth of a shard, so no
// drain takes the rebuild-merge path, and a flush ends each phase:
//
//   - preload: about 25k keys per shard, built just under the root's
//     density bound, then a third of them removed, so the arrays keep
//     room to spare at every level of the tree;
//   - narrow: dense keys confined to a short span of one shard, about 1.2
//     KB of one-byte deltas over a span whose one or two leaves held about
//     300 bytes. Those leaves cannot hold them and the array can, so some
//     drain must redistribute more than one leaf and none may grow;
//   - growth: uniform keys that more than double the bytes in each shard,
//     past what its leaves can hold, so each array must grow, and only a
//     counted growth can grow it.
func asyncNarrow(t *testing.T, opt *shard.Options) {
	set := shard.New(3, opt)
	t.Cleanup(set.Close)
	m := &model{}
	r := workload.NewRNG(7)
	bursts := func(phase string, rounds int, remove bool, keys func() []uint64) {
		t.Helper()
		for round := 0; round < rounds; round++ {
			for b := 0; b < 3; b++ {
				k := keys()
				if remove {
					set.RemoveBatchAsync(k, false)
					m.RemoveBatch(k)
				} else {
					set.InsertBatchAsync(k, false)
					m.InsertBatch(k)
				}
			}
			set.Flush()
		}
		if got, want := set.Len(), len(m.keys); got != want {
			t.Fatalf("%s: Len = %d, model says %d", phase, got, want)
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		auditSnapshot(t, phase, set, m)
	}

	bursts("preload", 1, false, func() []uint64 { return workload.Uniform(r, 30000, 18) })
	var third []uint64
	for i := 0; i < len(m.keys); i += 3 {
		third = append(third, m.keys[i])
	}
	bursts("preload removals", (len(third)+2399)/2400, true, func() []uint64 {
		n := min(800, len(third))
		k := third[:n]
		third = third[n:]
		return k
	})

	multi0, _ := rebalances(set)
	next := uint64(1<<17 + 1000) // inside the middle shard's span
	bursts("narrow", 2, false, func() []uint64 {
		run := make([]uint64, 250)
		for i := range run {
			run[i] = next
			next++
		}
		return run
	})
	if multi, grows := rebalances(set); multi == multi0 || grows != 0 {
		t.Fatalf("narrow: %d multi-leaf redistributions and %d growths, want some and none", multi-multi0, grows)
	}

	bursts("growth", 40, false, func() []uint64 { return workload.Uniform(r, 800, 18) })
	for p, c := range set.Snapshot().ShardSets() {
		if _, grows := c.Rebalances(); grows == 0 {
			t.Fatalf("growth: shard %d never grew", p)
		}
	}
}

// TestDifferentialFromSorted seeds each system from a prebuilt sorted base
// (the bulk-load path) before the random walk.
func TestDifferentialFromSorted(t *testing.T) {
	r := workload.NewRNG(9)
	base := workload.Uniform(r, 30000, 20)
	sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })
	for name, mk := range systems() {
		t.Run(name, func(t *testing.T) {
			m := &model{}
			s := mk()
			closeSut(t, s)
			s.InsertBatch(base, true)
			m.InsertBatch(base)
			for i := 0; i < 300; i++ {
				step(t, r, 20, m, s)
				if err := validate(s); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			got, want := s.Keys(), m.keys
			if len(got) != len(want) {
				t.Fatalf("Keys length %d, model says %d", len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("Keys[%d] = %d, model says %d", j, got[j], want[j])
				}
			}
			if sp, ok := s.(snapshotter); ok {
				auditSnapshot(t, "final", sp, m)
			}
		})
	}
}
