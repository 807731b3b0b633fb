package bitutil

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestLog2Ceil(t *testing.T) {
	cases := []struct {
		in   uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 40, 40}, {(1 << 40) + 1, 41},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.in); got != c.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCeilPow2(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
		{1 << 62, 1 << 62}, {(1 << 62) - 1, 1 << 62},
	}
	for _, c := range cases {
		if got := CeilPow2(c.in); got != c.want {
			t.Errorf("CeilPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCeilPow2Property(t *testing.T) {
	f := func(v uint64) bool {
		v >>= 2 // keep in range where next pow2 exists
		p := CeilPow2(v)
		if p < v {
			return false
		}
		if v > 1 && p/2 >= v {
			return false // not minimal
		}
		return bits.OnesCount64(p) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDivMinMax(t *testing.T) {
	if CeilDiv(10, 3) != 4 || CeilDiv(9, 3) != 3 || CeilDiv(0, 5) != 0 || CeilDiv(1, 1) != 1 {
		t.Error("CeilDiv wrong")
	}
}
