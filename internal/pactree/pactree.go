// Package pactree implements the PaC-tree baseline (CPAM [33]): a blocked
// batch-parallel search tree whose leaves hold up to BlockMax keys, either
// uncompressed (U-PaC) or delta-byte-code compressed (C-PaC). Internal nodes
// carry a separator pivot; batch updates partition the batch by pivot and
// recurse in parallel, merging at the blocks.
//
// Balance substitution: CPAM's weight-balanced joins are replaced with
// weight-balance-checked subtree rebuilds (scapegoat-style), which preserve
// the expected logarithmic depth and, importantly for the paper's
// comparison, the identical memory layout: pointer-linked internal nodes
// over contiguous (possibly compressed) blocks.
package pactree

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/parallel"
)

// DefaultBlockMax matches the PaC-tree library's default set block size of
// 256 elements ("a maximum node size of 4108 bytes", paper §6).
const DefaultBlockMax = 256

// forkGrain is the subtree size above which recursions fork.
const forkGrain = 4096

// node is either an internal node (left/right non-nil) or a leaf block.
type node struct {
	pivot uint64 // internal: all left keys < pivot <= all right keys
	size  uint32 // keys in subtree
	left  *node
	right *node
	elems []uint64 // uncompressed block (U-PaC leaves)
	blob  []byte   // compressed block (C-PaC leaves)
}

func (n *node) leaf() bool { return n.left == nil }

// Tree is a batch-parallel ordered set over nonzero uint64 keys.
type Tree struct {
	root       *node
	blockMax   int
	compressed bool
}

// Options configures a PaC-tree.
type Options struct {
	// BlockMax is the maximum number of keys per leaf block (default 256).
	BlockMax int
	// Compressed selects delta-byte-code blocks (C-PaC) over raw uint64
	// blocks (U-PaC).
	Compressed bool
}

// New returns an empty tree; opts may be nil for an uncompressed tree with
// the default block size.
func New(opts *Options) *Tree {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.BlockMax <= 0 {
		o.BlockMax = DefaultBlockMax
	}
	return &Tree{blockMax: o.BlockMax, compressed: o.Compressed}
}

// FromSorted builds a tree from sorted, duplicate-free nonzero keys.
func FromSorted(keys []uint64, opts *Options) *Tree {
	t := New(opts)
	if len(keys) > 0 && keys[0] == 0 {
		panic("pactree: key 0 is reserved")
	}
	t.root = t.build(keys)
	return t
}

// Len returns the number of keys.
func (t *Tree) Len() int {
	if t.root == nil {
		return 0
	}
	return int(t.root.size)
}

// makeLeaf wraps a short sorted run in a block node.
func (t *Tree) makeLeaf(run []uint64) *node {
	n := &node{size: uint32(len(run))}
	if t.compressed {
		blob := make([]byte, codec.SizeOfRun(run))
		codec.EncodeRun(blob, run)
		n.blob = blob
	} else {
		n.elems = append([]uint64(nil), run...)
	}
	return n
}

// decode returns the keys of a leaf block, appending to dst.
func (t *Tree) decode(dst []uint64, n *node) []uint64 {
	if t.compressed {
		return codec.DecodeRun(dst, n.blob, len(n.blob))
	}
	return append(dst, n.elems...)
}

// build constructs a balanced subtree over a sorted run in parallel.
func (t *Tree) build(run []uint64) *node {
	if len(run) == 0 {
		return nil
	}
	if len(run) <= t.blockMax {
		return t.makeLeaf(run)
	}
	mid := len(run) / 2
	n := &node{pivot: run[mid], size: uint32(len(run))}
	parallel.DoIf(len(run) > forkGrain,
		func() { n.left = t.build(run[:mid]) },
		func() { n.right = t.build(run[mid:]) },
	)
	return n
}

// flatten collects a subtree's keys into a sorted slice.
func (t *Tree) flatten(n *node) []uint64 {
	if n == nil {
		return nil
	}
	out := make([]uint64, 0, n.size)
	return t.appendAll(out, n)
}

func (t *Tree) appendAll(dst []uint64, n *node) []uint64 {
	if n == nil {
		return dst
	}
	if n.leaf() {
		return t.decode(dst, n)
	}
	dst = t.appendAll(dst, n.left)
	return t.appendAll(dst, n.right)
}

// rebalance restores weight balance by rebuilding the subtree when one side
// dominates; merges undersized subtrees back into a single block.
func (t *Tree) rebalance(n *node) *node {
	if n == nil {
		return nil
	}
	switch {
	case n.left == nil && n.right == nil:
		return nil
	case n.left == nil:
		return n.right
	case n.right == nil:
		return n.left
	}
	n.size = n.left.size + n.right.size
	if int(n.size) <= t.blockMax {
		return t.makeLeaf(t.flatten(n))
	}
	l, r := int(n.left.size), int(n.right.size)
	if max(l, r) > (3*(l+r))/4+t.blockMax {
		return t.build(t.flatten(n))
	}
	return n
}

// multiInsert merges a sorted batch into the subtree, returning the new
// root. Internal nodes partition the batch by pivot and recurse in
// parallel; blocks merge and re-block.
func (t *Tree) multiInsert(n *node, batch []uint64) *node {
	if len(batch) == 0 {
		return n
	}
	if n == nil {
		return t.build(batch)
	}
	if n.leaf() {
		merged, _ := parallel.MergeDedup(t.decode(make([]uint64, 0, int(n.size)+len(batch)), n), batch)
		return t.build(merged)
	}
	i := lowerBound(batch, n.pivot)
	parallel.DoIf(len(batch) > 1024 && int(n.size) > forkGrain,
		func() { n.left = t.multiInsert(n.left, batch[:i]) },
		func() { n.right = t.multiInsert(n.right, batch[i:]) },
	)
	return t.rebalance(n)
}

// multiDelete removes a sorted batch from the subtree.
func (t *Tree) multiDelete(n *node, batch []uint64) *node {
	if n == nil || len(batch) == 0 {
		return n
	}
	if n.leaf() {
		keys := t.decode(make([]uint64, 0, int(n.size)), n)
		w := 0
		j := 0
		for _, v := range keys {
			for j < len(batch) && batch[j] < v {
				j++
			}
			if j < len(batch) && batch[j] == v {
				continue
			}
			keys[w] = v
			w++
		}
		if w == 0 {
			return nil
		}
		if w == len(keys) {
			return n
		}
		return t.makeLeaf(keys[:w])
	}
	i := lowerBound(batch, n.pivot)
	parallel.DoIf(len(batch) > 1024 && int(n.size) > forkGrain,
		func() { n.left = t.multiDelete(n.left, batch[:i]) },
		func() { n.right = t.multiDelete(n.right, batch[i:]) },
	)
	return t.rebalance(n)
}

func lowerBound(a []uint64, x uint64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// InsertBatch adds a batch, returning how many keys were new.
func (t *Tree) InsertBatch(keys []uint64, sorted bool) int {
	batch := prepare(keys, sorted)
	if len(batch) == 0 {
		return 0
	}
	before := t.Len()
	t.root = t.multiInsert(t.root, batch)
	return t.Len() - before
}

// RemoveBatch deletes a batch, returning how many keys were present.
func (t *Tree) RemoveBatch(keys []uint64, sorted bool) int {
	batch := prepare(keys, sorted)
	if len(batch) == 0 {
		return 0
	}
	before := t.Len()
	t.root = t.multiDelete(t.root, batch)
	return before - t.Len()
}

// Insert adds one key, reporting whether it was new.
func (t *Tree) Insert(x uint64) bool {
	if x == 0 {
		panic("pactree: key 0 is reserved")
	}
	if t.Has(x) {
		return false
	}
	t.root = t.multiInsert(t.root, []uint64{x})
	return true
}

// Remove deletes one key, reporting whether it was present.
func (t *Tree) Remove(x uint64) bool {
	if !t.Has(x) {
		return false
	}
	t.root = t.multiDelete(t.root, []uint64{x})
	return true
}

func prepare(keys []uint64, sorted bool) []uint64 {
	if len(keys) == 0 {
		return nil
	}
	var batch []uint64
	if sorted {
		batch = parallel.DedupSorted(keys)
	} else {
		batch = parallel.DedupSorted(parallel.SortedCopy(keys))
	}
	if len(batch) > 0 && batch[0] == 0 {
		panic("pactree: key 0 is reserved")
	}
	return batch
}

// Has reports membership: a root-to-block descent plus a block scan.
func (t *Tree) Has(x uint64) bool {
	n := t.root
	for n != nil && !n.leaf() {
		if x < n.pivot {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return false
	}
	found := false
	t.iterBlock(n, func(v uint64) bool {
		if v == x {
			found = true
			return false
		}
		return v < x
	})
	return found
}

// Next returns the smallest key >= x.
func (t *Tree) Next(x uint64) (uint64, bool) {
	var res uint64
	ok := false
	t.MapRange(x, ^uint64(0), func(v uint64) bool {
		res, ok = v, true
		return false
	})
	if !ok && x == ^uint64(0) && t.Has(x) {
		return x, true
	}
	return res, ok
}

// iterBlock walks a leaf block in order until f returns false.
func (t *Tree) iterBlock(n *node, f func(uint64) bool) bool {
	if t.compressed {
		blob := n.blob
		if len(blob) == 0 {
			return true
		}
		v := codec.Head(blob)
		return f(v) && codec.Walk(blob, codec.HeadBytes, v, f)
	}
	for _, v := range n.elems {
		if !f(v) {
			return false
		}
	}
	return true
}

// Map applies f to every key in ascending order until f returns false.
func (t *Tree) Map(f func(uint64) bool) bool { return t.mapNode(t.root, f) }

func (t *Tree) mapNode(n *node, f func(uint64) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf() {
		return t.iterBlock(n, f)
	}
	return t.mapNode(n.left, f) && t.mapNode(n.right, f)
}

// MapRange applies f to keys in [start, end) in ascending order.
func (t *Tree) MapRange(start, end uint64, f func(uint64) bool) bool {
	return t.mapRangeNode(t.root, start, end, f)
}

func (t *Tree) mapRangeNode(n *node, start, end uint64, f func(uint64) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf() {
		return t.iterBlock(n, func(v uint64) bool {
			if v < start {
				return true
			}
			if v >= end {
				return false
			}
			return f(v)
		})
	}
	if start < n.pivot && !t.mapRangeNode(n.left, start, end, f) {
		return false
	}
	if end > n.pivot {
		return t.mapRangeNode(n.right, start, end, f)
	}
	return true
}

// Sum returns the key sum with fork-join parallelism (the scan benchmark).
func (t *Tree) Sum() uint64 { return t.sumNode(t.root) }

func (t *Tree) sumNode(n *node) uint64 {
	if n == nil {
		return 0
	}
	if n.leaf() {
		var s uint64
		t.iterBlock(n, func(v uint64) bool { s += v; return true })
		return s
	}
	if n.size <= forkGrain {
		return t.sumNode(n.left) + t.sumNode(n.right)
	}
	var l, r uint64
	parallel.Do(
		func() { l = t.sumNode(n.left) },
		func() { r = t.sumNode(n.right) },
	)
	return l + r
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

// Keys returns all keys in ascending order.
func (t *Tree) Keys() []uint64 { return t.flatten(t.root) }

// internalNodeBytes models a CPAM internal node (pivot, two pointers, size/
// refcount word) and blockHeaderBytes a block header, matching the C++
// library's footprint rather than Go's per-object overhead.
const (
	internalNodeBytes = 32
	blockHeaderBytes  = 16
)

// SizeBytes reports the modeled memory footprint of the tree.
func (t *Tree) SizeBytes() uint64 {
	return t.sizeNode(t.root)
}

func (t *Tree) sizeNode(n *node) uint64 {
	if n == nil {
		return 0
	}
	if n.leaf() {
		if t.compressed {
			return blockHeaderBytes + uint64(len(n.blob))
		}
		return blockHeaderBytes + 8*uint64(len(n.elems))
	}
	return internalNodeBytes + t.sizeNode(n.left) + t.sizeNode(n.right)
}

// CheckInvariants verifies order, sizes, pivots, and block capacities.
func (t *Tree) CheckInvariants() error {
	_, _, _, err := t.check(t.root)
	return err
}

func (t *Tree) check(n *node) (sz uint32, min, max uint64, err error) {
	if n == nil {
		return 0, 0, 0, nil
	}
	if n.leaf() {
		keys := t.decode(nil, n)
		if len(keys) == 0 {
			return 0, 0, 0, fmt.Errorf("pactree: empty leaf block")
		}
		if len(keys) > t.blockMax {
			return 0, 0, 0, fmt.Errorf("pactree: block of %d > max %d", len(keys), t.blockMax)
		}
		if int(n.size) != len(keys) {
			return 0, 0, 0, fmt.Errorf("pactree: leaf size %d but %d keys", n.size, len(keys))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				return 0, 0, 0, fmt.Errorf("pactree: block order violation")
			}
		}
		return n.size, keys[0], keys[len(keys)-1], nil
	}
	ls, lmin, lmax, err := t.check(n.left)
	if err != nil {
		return 0, 0, 0, err
	}
	rs, rmin, rmax, err := t.check(n.right)
	if err != nil {
		return 0, 0, 0, err
	}
	if ls == 0 || rs == 0 {
		return 0, 0, 0, fmt.Errorf("pactree: internal node with empty child")
	}
	if n.size != ls+rs {
		return 0, 0, 0, fmt.Errorf("pactree: size %d != %d+%d", n.size, ls, rs)
	}
	if lmax >= n.pivot || rmin < n.pivot {
		return 0, 0, 0, fmt.Errorf("pactree: pivot %d not separating (%d, %d)", n.pivot, lmax, rmin)
	}
	return n.size, lmin, rmax, nil
}
