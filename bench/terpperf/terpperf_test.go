package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkMetrics checks that a report carries exactly the listed metrics,
// each with the listed unit.
func checkMetrics(t *testing.T, r *report, want []benchMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range r.Metrics {
		if !slices.ContainsFunc(want, func(m benchMetric) bool { return m.Name == name }) {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

// TestSmoke runs every workload at its smallest size, untraced and
// traced, and checks what the benchmark promises: the metrics and units
// of BENCHMARK.json, no failed operation, non-zero simulator counts, a
// well-formed trace, and tracing that only observes (equal digests).
func TestSmoke(t *testing.T) {
	bench := readBenchmarkFile(t)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, terpperf has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			o := options{workload: w, seed: 3, seconds: 0.01, sizes: smallSizes}
			plain, _, err := measure(o)
			if err != nil {
				t.Fatal(err)
			}
			o.trace = true
			traced, tr, err := measure(o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, plain, bench.EndToEnd)
			checkMetrics(t, traced, bench.PerLayer)
			for _, r := range []*report{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v",
						r.Trace, r.Correct, r.Attempted, r.Failed, r.Problems)
				}
			}
			common := 0
			for h, d := range traced.Digests {
				if p, ok := plain.Digests[h]; ok {
					common++
					if p != d {
						t.Errorf("%s: traced digest %s, untraced %s", d.Spec, d.SHA256, p.SHA256)
					}
				}
			}
			if common == 0 {
				t.Error("the traced and untraced passes share no spec to compare")
			}
			if len(traced.Counts) == 0 {
				t.Error("traced pass recorded no simulator counts")
			}
			for h, counts := range traced.Counts {
				if len(counts) == 0 {
					t.Errorf("spec %s: empty counts", h)
				}
			}
			checkTrace(t, tr)
		})
	}
}

// checkTrace checks that the Chrome trace parses and that every span
// carries an id, a parent that exists and a job id.
func checkTrace(t *testing.T, tr *tracer) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				ID     *uint64 `json:"id"`
				Parent *uint64 `json:"parent"`
				Job    *string `json:"job"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{0: true}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			if e.Args.ID == nil || e.Args.Parent == nil || e.Args.Job == nil {
				t.Fatalf("span without id, parent or job: %+v", e)
			}
			ids[*e.Args.ID] = true
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("trace has no spans")
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && !ids[*e.Args.Parent] {
			t.Errorf("span %d: parent %d is not in the trace", *e.Args.ID, *e.Args.Parent)
		}
	}
}
