package stats

import (
	"strings"
	"testing"
	"time"
)

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput = %f", got)
	}
	if got := Throughput(5, 0); got != 0 {
		t.Fatalf("zero duration should give 0, got %f", got)
	}
}

func TestSci(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{25_000_000, "2.5E7"}, {1.8e6, "1.8E6"}, {0, "0"}, {950, "9.5E2"},
	}
	for _, c := range cases {
		if got := Sci(c.in); got != c.want {
			t.Errorf("Sci(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(3, 2) != "1.5" || Ratio(1, 0) != "-" {
		t.Fatal("Ratio wrong")
	}
}

func TestTableRendersAligned(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("a", 1)
	tb.Row("longer", 23456)
	var sb strings.Builder
	tb.Write(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if len(lines[0]) != len(lines[2]) {
		t.Fatalf("misaligned: %q vs %q", lines[0], lines[2])
	}
	if !strings.Contains(out, "23456") {
		t.Fatal("missing cell")
	}
}

func TestTrials(t *testing.T) {
	calls := 0
	d := Trials(1, 3, func() { calls++ })
	if calls != 4 {
		t.Fatalf("calls = %d", calls)
	}
	if d < 0 {
		t.Fatal("negative duration")
	}
}
