package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenReport builds a small fully-populated report from synthetic
// events: exposure groups with timelines and CDFs, attack correlation,
// an overhead table with a NaN-sentinel row, a ring-overflow warning and
// a regression section — every HTML/SVG render path in one document.
func goldenReport() *Report {
	mm := expoCell("exp/whisper/MM", [][3]float64{
		{0, 0, 10}, {0, 20, 35}, {1, 5, 25}, {2, 40, 48},
	})
	mmMetrics := obs.NewSnapshot()
	mmMetrics.Add("sim/cycles/base", 100_000)
	mmMetrics.Add("sim/cycles/attach", 9_000)
	mmMetrics.Add("sim/cycles/detach", 6_000)
	mm.Metrics = mmMetrics

	tt := expoCell("exp/whisper/TT", [][3]float64{
		{0, 0, 2}, {1, 6, 8}, {2, 41, 43},
	})
	ttMetrics := obs.NewSnapshot()
	ttMetrics.Add("sim/cycles/base", 100_000)
	ttMetrics.Add("sim/cycles/attach", 4_000)
	ttMetrics.Add("sim/cycles/rand", 1_500)
	ttMetrics.Add("sim/cycles/cond", 500)
	tt.Metrics = ttMetrics

	// A cell with protection cycles but no base: exercises the NaN
	// sentinel ("n/a" bar) without crashing the JSON or SVG paths.
	orphanMetrics := obs.NewSnapshot()
	orphanMetrics.Add("sim/cycles/attach", 2_000)
	orphan := &obs.CellObs{Cell: "exp/whisper/XX", Metrics: orphanMetrics}

	rec := obs.NewRecorder(1 << 12)
	hw := rec.Track(obs.HWThread)
	att := rec.Track(0)
	hw.AsyncBegin(us(10), obs.CatExpo, "ew", 0)
	att.Instant(us(12), obs.CatAttack, "probe", 0)
	att.Instant(us(15), obs.CatAttack, "probe", 1)
	att.Instant(us(15), obs.CatAttack, "probe-hit", 1)
	hw.AsyncEnd(us(20), obs.CatExpo, "ew", 0)
	att.Instant(us(30), obs.CatAttack, "deadtime", int64(us(1)))
	att.Instant(us(31), obs.CatAttack, "deadtime", int64(us(5)))
	mc := &obs.CellObs{Cell: "exp/probe/mc", Events: rec.Events(),
		TraceEvents: rec.Total() + 7, TraceDropped: 7}

	in := Input{
		Title: "golden report",
		Experiments: []Experiment{
			{Name: "exp", Opts: "ops=100 seed=1",
				Obs: obs.NewGridObs([]*obs.CellObs{mm, tt, orphan, mc}, false)},
			{Name: "empty"},
		},
	}
	r := Build(in)
	r.Regression = Compare(
		benchDoc("sim/cycles/base", map[string]uint64{"a": 1100, "b": 1100}),
		benchDoc("sim/cycles/base", map[string]uint64{"a": 1000, "b": 1000}),
		RegressOpts{})
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden file; inspect the diff and rerun with -update if intended.\ngot %d bytes, want %d", name, len(got), len(want))
	}
}

func TestGoldenHTML(t *testing.T) {
	r := goldenReport()
	checkGolden(t, "report_golden.html", HTML(r))
	// Two builds over the same input must render identical bytes.
	if !bytes.Equal(HTML(r), HTML(goldenReport())) {
		t.Fatal("HTML render is not deterministic")
	}
}

func TestGoldenText(t *testing.T) {
	checkGolden(t, "report_golden.txt", []byte(Text(goldenReport())))
}

func TestGoldenSVGSections(t *testing.T) {
	r := goldenReport()
	html := string(HTML(r))
	for _, want := range []string{
		"<svg", "exposure-duration CDF", "dead-time CDF",
		"overhead", "timeline",
	} {
		if !bytes.Contains([]byte(html), []byte(want)) {
			t.Fatalf("HTML missing %q section", want)
		}
	}
}
