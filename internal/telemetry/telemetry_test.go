package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden: the exposition renders counters, gauges and
// histograms in sorted order with escaped label values — the exact
// bytes a Prometheus scraper parses.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	req := r.CounterVec("test_requests_total", "Requests.", "route", "status")
	req.With("/v1/jobs", "200").Add(3)
	req.With("a\"b\\c\nd", "500").Inc()
	r.Gauge("test_inflight", "In flight.").Set(2)
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.5, 4})
	h.Observe(0.25)
	h.Observe(0.5) // boundary: le is inclusive
	h.Observe(8)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_inflight In flight.
# TYPE test_inflight gauge
test_inflight 2
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.5"} 2
test_latency_seconds_bucket{le="4"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 8.75
test_latency_seconds_count 3
# HELP test_requests_total Requests.
# TYPE test_requests_total counter
test_requests_total{route="/v1/jobs",status="200"} 3
test_requests_total{route="a\"b\\c\nd",status="500"} 1
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketBoundaries: samples land in the first bucket whose
// upper bound is >= the value (Prometheus le semantics), beyond the
// last bound in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0, 1, 1.0001, 2, 5, 5.0001, 100} {
		h.Observe(v)
	}
	cum, total := h.Cumulative()
	if total != 7 {
		t.Fatalf("total = %d, want 7", total)
	}
	// le=1: {0, 1}; le=2: +{1.0001, 2}; le=5: +{5}; +Inf: +{5.0001, 100}.
	want := []uint64{2, 4, 5, 7}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
}

// TestHistogramQuantile: interpolated quantiles are monotonic, inside
// the observed range, and exact at bucket edges for uniform fill.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40})
	for v := 1; v <= 40; v++ {
		h.Observe(float64(v))
	}
	if q := h.Quantile(0.5); q < 15 || q > 25 {
		t.Errorf("p50 = %v, want ~20", q)
	}
	if q50, q99 := h.Quantile(0.5), h.Quantile(0.99); q99 < q50 {
		t.Errorf("quantiles not monotonic: p50=%v p99=%v", q50, q99)
	}
	if q := h.Quantile(1); q > 40 {
		t.Errorf("p100 = %v beyond last bound", q)
	}
	empty := newHistogram(DefBuckets)
	if q := empty.Quantile(0.99); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

// TestHistogramQuantileEdges pins the documented degenerate cases:
// empty histograms, out-of-range q, every sample in the +Inf overflow
// bucket, and a histogram with no finite buckets at all.
func TestHistogramQuantileEdges(t *testing.T) {
	empty := newHistogram([]float64{1, 2})
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}

	// Every sample beyond the last bound: the overflow bucket has no
	// upper edge, so the estimate clamps to the last finite bound —
	// for every q, including 0 and the clamped out-of-range ones.
	over := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{10, 20, 30} {
		over.Observe(v)
	}
	for _, q := range []float64{-3, 0, 0.5, 0.99, 1, 7} {
		if got := over.Quantile(q); got != 4 {
			t.Errorf("overflow-only Quantile(%v) = %v, want last bound 4", q, got)
		}
	}

	// No finite buckets at all (explicit empty bounds): nothing to
	// clamp to; 0 documents "no information" instead of panicking.
	unbounded := newHistogram([]float64{})
	unbounded.Observe(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := unbounded.Quantile(q); got != 0 {
			t.Errorf("unbounded Quantile(%v) = %v, want 0", q, got)
		}
	}

	// Out-of-range q clamps to the [min, max] estimates.
	h := newHistogram([]float64{10, 20})
	for v := 1; v <= 20; v++ {
		h.Observe(float64(v))
	}
	if lo, hi := h.Quantile(-5), h.Quantile(5); lo != h.Quantile(0) || hi != h.Quantile(1) {
		t.Errorf("clamp: Quantile(-5)=%v Quantile(0)=%v Quantile(5)=%v Quantile(1)=%v",
			lo, h.Quantile(0), hi, h.Quantile(1))
	}
}

// TestConcurrentObserve: counters, gauges and histograms stay exact
// under concurrent writers (run with -race in CI).
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", []float64{1, 4, 16, 64})
	vec := r.CounterVec("v_total", "", "k")

	const workers, perWorker = 8, 1000
	var wantSum float64
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i % 100)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(float64(i % 100))
				vec.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != workers*perWorker {
		t.Errorf("hist count = %d, want %d", h.Count(), workers*perWorker)
	}
	if got, want := h.Sum(), float64(workers)*wantSum; got != want {
		t.Errorf("hist sum = %v, want %v", got, want)
	}
	if vec.With("a").Value() != workers*perWorker {
		t.Errorf("vec counter = %d, want %d", vec.With("a").Value(), workers*perWorker)
	}
}

// TestSnapshotJSON: the JSON snapshot is sorted, carries labels, and
// fills histogram quantiles.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("z_total", "", "tenant").With("acme").Add(7)
	r.Gauge("a_gauge", "").Set(-3)
	h := r.Histogram("m_seconds", "", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(2)

	s := r.Snapshot()
	if len(s.Families) != 3 {
		t.Fatalf("families = %d, want 3", len(s.Families))
	}
	if s.Families[0].Name != "a_gauge" || s.Families[2].Name != "z_total" {
		t.Fatalf("families not sorted: %v, %v", s.Families[0].Name, s.Families[2].Name)
	}
	if v := s.Families[0].Metrics[0].Value; v != -3 {
		t.Errorf("gauge value = %v, want -3", v)
	}
	hist := s.Families[1].Metrics[0]
	if hist.Count != 2 || hist.Sum != 2.5 || hist.P99 == 0 {
		t.Errorf("hist snapshot = %+v, want count 2 sum 2.5 p99 > 0", hist)
	}
	if lbl := s.Families[2].Metrics[0].Labels["tenant"]; lbl != "acme" {
		t.Errorf("labels = %v, want tenant=acme", s.Families[2].Metrics[0].Labels)
	}
	// The document must marshal deterministically (sorted structure).
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(r.Snapshot())
	if !bytes.Equal(b1, b2) {
		t.Error("snapshot JSON not stable across captures of identical state")
	}
}

// TestRegistrationIdempotent: re-registering a name returns the same
// metric; a different shape panics.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "")
	c1.Add(5)
	if c2 := r.Counter("x_total", ""); c2.Value() != 5 {
		t.Errorf("re-registration did not return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestFuncMetrics: func-backed series are sampled at export time.
func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("fn_gauge", "", func() float64 { return v })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fn_gauge 1.5") {
		t.Errorf("exposition missing sampled func gauge:\n%s", buf.String())
	}
	v = 2
	buf.Reset()
	r.WritePrometheus(&buf) //nolint:errcheck
	if !strings.Contains(buf.String(), "fn_gauge 2") {
		t.Errorf("func gauge not resampled:\n%s", buf.String())
	}
}

// TestRegisterRuntime: the runtime gauges register and export sane
// values (goroutines >= 1).
func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r, "t_")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"t_go_goroutines", "t_go_heap_alloc_bytes", "t_go_gc_runs_total"} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("exposition missing %s", name)
		}
	}
	if strings.Contains(out, "t_go_goroutines 0\n") {
		t.Error("goroutine gauge reads 0")
	}
}
