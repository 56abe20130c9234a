package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.Add(v)
	}
	if h.N != 5 {
		t.Fatalf("N = %d", h.N)
	}
	want := []uint64{1, 2, 1, 1} // <=1, 1-2, 2-4, >4
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Fraction(1) != 0.4 {
		t.Fatalf("fraction = %f", h.Fraction(1))
	}
	if empty := NewHistogram([]float64{1}); empty.Fraction(0) != 0 {
		t.Fatal("empty histogram fractions must be 0")
	}
}

func TestHistogramUnsortedBoundsAccepted(t *testing.T) {
	h := NewHistogram([]float64{4, 1, 2})
	if h.Bounds[0] != 1 || h.Bounds[2] != 4 {
		t.Fatalf("bounds not sorted: %v", h.Bounds)
	}
}

func TestBucketLabels(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	labels := []string{h.BucketLabel(0), h.BucketLabel(1), h.BucketLabel(2)}
	for _, l := range labels {
		if l == "" {
			t.Fatal("empty label")
		}
	}
	if !strings.HasPrefix(labels[0], "<=") || !strings.HasPrefix(labels[2], ">") {
		t.Fatalf("labels = %v", labels)
	}
}

// Property: percentiles are monotone and bracket the samples.
func TestPercentileProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		min, max := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			xs[i] = float64(v)
			min = math.Min(min, xs[i])
			max = math.Max(max, xs[i])
		}
		p10, p90 := Percentile(xs, 10), Percentile(xs, 90)
		return p10 <= p90 && p10 >= min && p90 <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("a", 1)
	tb.AddRow("longer-name", 2.5)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// All lines equal length (aligned columns, trailing spaces ok).
	w := len(lines[1])
	for _, l := range lines[1:] {
		if len(strings.TrimRight(l, " ")) > w {
			t.Fatalf("misaligned: %q", l)
		}
	}
	if !strings.Contains(out, "2.5") {
		t.Fatal("float formatting lost")
	}
}

func TestBar(t *testing.T) {
	s := Bar("TT", 0.5, 1.0, 10)
	if !strings.Contains(s, "#####") || strings.Contains(s, "######") {
		t.Fatalf("bar = %q", s)
	}
	if !strings.Contains(s, "50.0%") {
		t.Fatalf("bar = %q", s)
	}
	// Clamping.
	if !strings.Contains(Bar("x", 5, 1, 4), "####") {
		t.Fatal("over-full bar not clamped")
	}
	if strings.Contains(Bar("x", -1, 1, 4), "#") {
		t.Fatal("negative bar drew hashes")
	}
	if Bar("x", 1, 0, 4) == "" {
		t.Fatal("zero full must not panic")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{5}); got != 0 {
		t.Fatalf("StdDev(one sample) = %v, want 0", got)
	}
	// Known sample: {2,4,4,4,5,5,7,9} has sample sd = sqrt(32/7).
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", got, want)
	}
}

func TestMeanCI(t *testing.T) {
	mean, half := MeanCI([]float64{10}, 1.96)
	if mean != 10 || half != 0 {
		t.Fatalf("MeanCI(one sample) = %v ± %v, want 10 ± 0", mean, half)
	}
	xs := []float64{1, 2, 3, 4, 5}
	mean, half = MeanCI(xs, 1.96)
	if mean != 3 {
		t.Fatalf("mean = %v, want 3", mean)
	}
	want := 1.96 * StdDev(xs) / math.Sqrt(5)
	if math.Abs(half-want) > 1e-12 {
		t.Fatalf("half = %v, want %v", half, want)
	}
	// A wider z widens the interval.
	_, half3 := MeanCI(xs, 3)
	if half3 <= half {
		t.Fatalf("z=3 half %v not wider than z=1.96 half %v", half3, half)
	}
}

func TestScalarPercentile(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(empty) = %v, want 0", got)
	}
	xs := []float64{3, 1, 2, 5, 4} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {90, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must stay untouched (sorted on a copy).
	if xs[0] != 3 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}
