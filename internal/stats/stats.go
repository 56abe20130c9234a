// Package stats provides the small statistics and reporting toolkit the
// benchmark harness uses: histograms (Figure 8), nearest-rank percentiles,
// aligned text tables (Tables III-VI), and ASCII bar charts for the
// overhead figures (Figures 9-11).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bucket histogram over float64 samples.
type Histogram struct {
	// Bounds are the upper bounds of each bucket (ascending); samples
	// above the last bound land in the overflow bucket.
	Bounds []float64
	// Counts has len(Bounds)+1 entries (last is overflow).
	Counts []uint64
	// N is the total sample count.
	N uint64

	samples []float64
}

// NewHistogram creates a histogram with the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{Bounds: b, Counts: make([]uint64, len(b)+1)}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v)
	h.Counts[i]++
	h.N++
	h.samples = append(h.samples, v)
}

// Fraction returns the share of samples in bucket i.
func (h *Histogram) Fraction(i int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.N)
}

// FractionAtLeast returns the share of samples >= v.
func (h *Histogram) FractionAtLeast(v float64) float64 {
	if h.N == 0 {
		return 0
	}
	n := 0
	for _, s := range h.samples {
		if s >= v {
			n++
		}
	}
	return float64(n) / float64(h.N)
}

// BucketLabel renders the label of bucket i ("<=x" style).
func (h *Histogram) BucketLabel(i int) string {
	switch {
	case i == 0:
		return fmt.Sprintf("<=%.3g", h.Bounds[0])
	case i < len(h.Bounds):
		return fmt.Sprintf("%.3g-%.3g", h.Bounds[i-1], h.Bounds[i])
	default:
		return fmt.Sprintf(">%.3g", h.Bounds[len(h.Bounds)-1])
	}
}

// Table is an aligned text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case float32:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(width) {
				b.WriteString(strings.Repeat(" ", width[i]-len(c)))
			}
		}
		b.WriteString("\n")
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Bar renders one labeled ASCII bar scaled so that full is maxWidth runes.
func Bar(label string, value, full float64, maxWidth int) string {
	if full <= 0 {
		full = 1
	}
	n := int(value / full * float64(maxWidth))
	if n < 0 {
		n = 0
	}
	if n > maxWidth {
		n = maxWidth
	}
	return fmt.Sprintf("%-22s %7.1f%% |%s", label, value*100, strings.Repeat("#", n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for fewer than
// two samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// MeanCI returns the mean of xs with a symmetric confidence interval
// half-width at the given z score (1.96 for ~95% under the normal
// approximation): mean ± z*sd/sqrt(n). With fewer than two samples the
// half-width is 0 — a single deterministic sample carries no spread.
func MeanCI(xs []float64, z float64) (mean, half float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	half = z * StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, half
}

// Percentile returns the p-th percentile (0-100) of xs using the
// nearest-rank method on a sorted copy (0 for empty input).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// GeoMean returns the geometric mean of positive xs (0 if any are <= 0).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
