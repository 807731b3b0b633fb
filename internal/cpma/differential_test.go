package cpma_test

// Differential fuzz test: CPMA, PMA, and the sharded front-end are driven
// against a sorted-slice reference model through randomized interleaved
// point/batch/query sequences. After every step the mutated system must
// hold exactly the model's contents, and the CPMA-backed systems must pass
// the strict leaf invariants (byte-density bounds, strictly increasing
// decoded keys, zero-free codes) — failures dump the offending leaf.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/cpma"
	"repro/internal/pma"
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

// validator is implemented by the CPMA-backed systems.
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

// smallLeaf shrinks the CPMA leaves so the random walks cross many more
// leaf boundaries, splits, and rebuilds than default sizing would.
var smallLeaf = &cpma.Options{LeafBytes: 256, PointThreshold: 10}

func systems() map[string]func() sut {
	return map[string]func() sut{
		"cpma":       func() sut { return cpma.New(nil) },
		"cpma-small": func() sut { return cpma.New(smallLeaf) },
		"pma":        func() sut { return pma.New(nil) },
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
		// Hot-key absorption with an aggressive detector: the walk's
		// repeated small keys promote quickly, so ticketed counts and reads
		// run through the separation/absorption path and must stay exact.
		"shard-async-hotkey": func() sut {
			return shard.New(4, &shard.Options{Partition: shard.HashPartition, Set: smallLeaf, MailboxDepth: 4,
				HotKeys: true, HotKeyEvery: 64, HotKeyFrac: 0.05, HotKeyMax: 8})
		},
	}
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
	batchOf := func() []uint64 {
		n := 1 + r.Intn(300)
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
				})
			}
		}
	}
}

// TestDifferentialAsync drives the mailbox pipeline the way it is meant
// to be used — bursts of fire-and-forget enqueues — against the
// sorted-slice model. Enqueues from one goroutine apply in order per
// shard, so after a barrier the contents must equal the model's replay of
// the same burst sequence. The "flush" variants establish the barrier
// with one Flush per burst; the "flushreads" variants flush before every
// read instead (flushReads).
func TestDifferentialAsync(t *testing.T) {
	for _, tc := range []struct {
		name       string
		opt        *shard.Options
		flushReads bool
	}{
		{"flush", &shard.Options{Partition: shard.HashPartition, Set: smallLeaf, MailboxDepth: 4}, false},
		{"flushreads", &shard.Options{Partition: shard.RangePartition, KeyBits: 18, Set: smallLeaf,
			MailboxDepth: 2}, true},
		{"hotkey-flush", &shard.Options{Partition: shard.HashPartition, Set: smallLeaf, MailboxDepth: 4,
			HotKeys: true, HotKeyEvery: 64, HotKeyFrac: 0.05, HotKeyMax: 8}, false},
		{"hotkey-flushreads", &shard.Options{Partition: shard.RangePartition, KeyBits: 18, Set: smallLeaf,
			MailboxDepth: 2, HotKeys: true, HotKeyEvery: 64, HotKeyFrac: 0.05, HotKeyMax: 8}, true},
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
			for round := 0; round < 40; round++ {
				for b := 1 + r.Intn(8); b > 0; b-- {
					keys := workload.Uniform(r, 1+r.Intn(400), 16)
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
				if round%8 == 7 || round == 39 {
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
