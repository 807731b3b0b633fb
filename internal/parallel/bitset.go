package parallel

import (
	"math/bits"
	"sync/atomic"
)

// Bitset is a fixed-size bitset whose Set operation is safe for concurrent
// use. The batch-merge phase uses it to record which PMA leaves a batch
// touched (the paper's "thread-safe set" of modified leaves).
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a Bitset able to hold n bits, all initially clear.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Set atomically sets bit i.
func (b *Bitset) Set(i int) {
	w := &b.words[i>>6]
	mask := uint64(1) << uint(i&63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// Get reports whether bit i is set. It is only guaranteed to observe Sets
// that happened-before it (callers read after joining all writers).
func (b *Bitset) Get(i int) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(uint64(1)<<uint(i&63)) != 0
}

// Len returns the capacity of the bitset in bits.
func (b *Bitset) Len() int { return b.n }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Indices returns the positions of all set bits in increasing order.
func (b *Bitset) Indices() []int {
	var out []int
	for wi, w := range b.words {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if i < b.n {
				out = append(out, i)
			}
			w &= w - 1
		}
	}
	return out
}
