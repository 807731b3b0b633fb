// Package ptree implements the P-tree baseline (PAM [70]): a batch-parallel
// binary search tree with join-based bulk operations, used by the paper as
// the uncompressed tree comparator.
//
// Balance scheme: PAM's weight-balanced trees are substituted with treaps
// whose priorities are a hash of the key — the same join/split/union
// algorithmic structure with the same expected O(log n) bounds, and, like
// PAM's in-place set mode, 32 bytes per element (key + two children + size;
// priorities are recomputed from the key, never stored).
//
// The tree offers what the evaluation measures of it (internal/experiments'
// set tables): batch updates, range maps, range and whole-set sums, and
// the space. It has no point updates or probes.
package ptree

import (
	"repro/internal/parallel"
)

// node is one tree node: exactly 32 bytes of payload, matching the paper's
// "P-trees take a fixed 32 bytes per element" (Table 6 discussion).
type node struct {
	key   uint64
	left  *node
	right *node
	size  uint64
}

// Tree is a batch-parallel ordered set of nonzero uint64 keys.
// Batch operations parallelize internally; single writer.
type Tree struct {
	root *node
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// prio returns the heap priority of a key: a strong mix (splitmix64 finalizer)
// so expected treap height is O(log n) for any key distribution.
func prio(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func size(t *node) uint64 {
	if t == nil {
		return 0
	}
	return t.size
}

func (t *node) update() *node {
	t.size = 1 + size(t.left) + size(t.right)
	return t
}

// Len returns the number of keys.
func (t *Tree) Len() int { return int(size(t.root)) }

// join combines two treaps where every key of l precedes every key of r.
func join(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case prio(l.key) >= prio(r.key):
		l.right = join(l.right, r)
		return l.update()
	default:
		r.left = join(l, r.left)
		return r.update()
	}
}

// split divides t into keys < k, whether k was present, and keys > k.
func split(t *node, k uint64) (l *node, mid bool, r *node) {
	if t == nil {
		return nil, false, nil
	}
	switch {
	case k < t.key:
		var ll *node
		ll, mid, t.left = split(t.left, k)
		return ll, mid, t.update()
	case k > t.key:
		var rr *node
		t.right, mid, rr = split(t.right, k)
		return t.update(), mid, rr
	default:
		return t.left, true, t.right
	}
}

// fromSorted builds a treap from sorted distinct keys in O(n) with a
// right-spine stack (Cartesian tree construction over hash priorities).
func fromSorted(keys []uint64) *node {
	var spine []*node // right spine, decreasing priority from bottom of stack
	for _, k := range keys {
		n := &node{key: k, size: 1}
		var last *node
		for len(spine) > 0 && prio(spine[len(spine)-1].key) < prio(k) {
			last = spine[len(spine)-1]
			// last's subtree is final once popped (deepest nodes pop first,
			// so its own descendants are already updated).
			last.update()
			spine = spine[:len(spine)-1]
		}
		n.left = last
		if len(spine) > 0 {
			spine[len(spine)-1].right = n
		}
		spine = append(spine, n)
	}
	if len(spine) == 0 {
		return nil
	}
	// Fix up sizes along the remaining spine, deepest first.
	for i := len(spine) - 1; i >= 0; i-- {
		spine[i].update()
	}
	return spine[0]
}

// union merges two treaps with the parallel join-based algorithm
// [Blelloch–Ferizovic–Sun]. Duplicate keys are kept once.
func union(a, b *node) *node {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	if prio(a.key) < prio(b.key) {
		a, b = b, a
	}
	l, _, r := split(b, a.key)
	big := size(a) > 4096
	var nl, nr *node
	parallel.DoIf(big,
		func() { nl = union(a.left, l) },
		func() { nr = union(a.right, r) },
	)
	a.left, a.right = nl, nr
	return a.update()
}

// difference removes the keys of b from a.
func difference(a, b *node) *node {
	if a == nil || b == nil {
		return a
	}
	l, _, r := split(a, b.key)
	big := size(b) > 4096
	var nl, nr *node
	parallel.DoIf(big,
		func() { nl = difference(l, b.left) },
		func() { nr = difference(r, b.right) },
	)
	return join(nl, nr)
}

// InsertBatch adds a batch of keys, returning how many were new. The batch
// is built into a tree in O(k) and unioned in parallel — PAM's multi-insert.
func (t *Tree) InsertBatch(keys []uint64, sorted bool) int {
	batch := parallel.SortedSet(keys, sorted)
	if len(batch) == 0 {
		return 0
	}
	before := t.Len()
	t.root = union(t.root, fromSorted(batch))
	return t.Len() - before
}

// RemoveBatch deletes a batch of keys, returning how many were present.
func (t *Tree) RemoveBatch(keys []uint64, sorted bool) int {
	batch := parallel.SortedSet(keys, sorted)
	if len(batch) == 0 {
		return 0
	}
	before := t.Len()
	t.root = difference(t.root, fromSorted(batch))
	return before - t.Len()
}

// MapRange applies f to keys in [start, end) in ascending order.
func (t *Tree) MapRange(start, end uint64, f func(uint64) bool) bool {
	return mapRange(t.root, start, end, f)
}

func mapRange(n *node, start, end uint64, f func(uint64) bool) bool {
	if n == nil {
		return true
	}
	if n.key >= start && !mapRange(n.left, start, end, f) {
		return false
	}
	if n.key >= start && n.key < end && !f(n.key) {
		return false
	}
	if n.key < end && !mapRange(n.right, start, end, f) {
		return false
	}
	return true
}

// Sum returns the sum of all keys, computed with fork-join parallelism.
func (t *Tree) Sum() uint64 {
	return sumNode(t.root)
}

func sumNode(n *node) uint64 {
	if n == nil {
		return 0
	}
	if n.size <= 2048 {
		s := n.key
		s += sumNode(n.left)
		s += sumNode(n.right)
		return s
	}
	var l, r uint64
	parallel.Do(
		func() { l = sumNode(n.left) },
		func() { r = sumNode(n.right) },
	)
	return l + r + n.key
}

// RangeSum sums keys in [start, end).
func (t *Tree) RangeSum(start, end uint64) (sum uint64, count int) {
	t.MapRange(start, end, func(v uint64) bool {
		sum += v
		count++
		return true
	})
	return sum, count
}

// SizeBytes reports the P-tree's memory footprint: 32 bytes per element
// (Table 6: "P-trees take a fixed 32 bytes per element").
func (t *Tree) SizeBytes() uint64 { return 32 * size(t.root) }

// CheckInvariants verifies the BST order, the heap priority invariant, and
// subtree sizes.
func (t *Tree) CheckInvariants() error {
	_, err := checkNode(t.root, 0, ^uint64(0))
	return err
}

func checkNode(n *node, lo, hi uint64) (uint64, error) {
	if n == nil {
		return 0, nil
	}
	if n.key < lo || n.key > hi {
		return 0, errOrder
	}
	if n.left != nil && prio(n.left.key) > prio(n.key) {
		return 0, errHeap
	}
	if n.right != nil && prio(n.right.key) > prio(n.key) {
		return 0, errHeap
	}
	ls, err := checkNode(n.left, lo, n.key-1)
	if err != nil {
		return 0, err
	}
	rs, err := checkNode(n.right, n.key+1, hi)
	if err != nil {
		return 0, err
	}
	if n.size != ls+rs+1 {
		return 0, errSize
	}
	return n.size, nil
}

type treeError string

func (e treeError) Error() string { return string(e) }

const (
	errOrder treeError = "ptree: BST order violated"
	errHeap  treeError = "ptree: heap priority violated"
	errSize  treeError = "ptree: size field wrong"
)
