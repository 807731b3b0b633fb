// Package stats holds the measurement and reporting helpers the benchmark
// harnesses share: wall-clock throughput, speedup series,
// scientific-notation formatting matching the paper's tables, and aligned
// text-table rendering.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Throughput returns operations per second for n operations in d.
func Throughput(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// Time runs f and returns its wall-clock duration.
func Time(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// Sci formats a value the way the paper's tables do: "2.5E7".
func Sci(v float64) string {
	if v == 0 {
		return "0"
	}
	exp := int(math.Floor(math.Log10(math.Abs(v))))
	mant := v / math.Pow(10, float64(exp))
	if math.Abs(mant) >= 9.95 { // would print as 10.0E(n)
		mant /= 10
		exp++
	}
	return fmt.Sprintf("%.1fE%d", mant, exp)
}

// Ratio formats a ratio with one decimal, like the paper's speedup columns.
func Ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", a/b)
}

// Table renders aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// Write renders the table with right-aligned columns.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.header)
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
}

// Trials runs f `warmup+n` times and returns the mean duration of the last
// n runs, matching the paper's "average of 10 trials after a single warm up
// trial" protocol (callers pick smaller n for big workloads).
func Trials(warmup, n int, f func()) time.Duration {
	for i := 0; i < warmup; i++ {
		f()
	}
	var total time.Duration
	for i := 0; i < n; i++ {
		total += Time(f)
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
