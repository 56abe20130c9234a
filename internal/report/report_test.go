package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/params"
)

// us converts microseconds to simulated cycles for event timestamps.
func us(m float64) uint64 { return uint64(m * params.CyclesPerMicro) }

// expoCell builds a synthetic cell whose trace holds EW windows (PMO ids
// and [start, end) bounds in us) plus optional TEW windows.
func expoCell(name string, ews [][3]float64) Cell {
	rec := obs.NewRecorder(1 << 12)
	hw := rec.Track(obs.HWThread)
	for _, w := range ews {
		pmo := int64(w[0])
		hw.AsyncBegin(us(w[1]), obs.CatExpo, "ew", pmo)
		hw.AsyncEnd(us(w[2]), obs.CatExpo, "ew", pmo)
	}
	return Cell{Name: name, Events: rec.Events(), TraceEvents: rec.Total()}
}

func TestRatioMarshalsNaNAsNull(t *testing.T) {
	// The guard exists because encoding/json rejects NaN outright — the
	// sentinel from sim.Accounts.Overhead() would otherwise abort every
	// JSON export that embeds it.
	if _, err := json.Marshal(math.NaN()); err == nil {
		t.Fatal("expected encoding/json to reject raw NaN; the Ratio guard would be pointless")
	}
	buf, err := json.Marshal(struct {
		A Ratio `json:"a"`
		B Ratio `json:"b"`
		C Ratio `json:"c"`
	}{Ratio(math.NaN()), Ratio(math.Inf(1)), Ratio(1.5)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(buf), `{"a":null,"b":null,"c":1.5}`; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}
	var back struct {
		A Ratio `json:"a"`
		C Ratio `json:"c"`
	}
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.A.Valid() {
		t.Fatalf("null should unmarshal to an invalid Ratio, got %v", float64(back.A))
	}
	if float64(back.C) != 1.5 {
		t.Fatalf("C = %v, want 1.5", float64(back.C))
	}
}

func TestOverheadRowNaNSurvivesJSONExport(t *testing.T) {
	// A cell with non-base cycles but Base == 0 carries the NaN sentinel;
	// the report must still marshal (nulls in place of the ratios).
	s := obs.NewSnapshot()
	s.Add("sim/cycles/attach", 100)
	e := Experiment{Name: "x", Cells: []Cell{{Name: "x/c/MM", Metrics: s}}}
	r := Build(Input{Title: "t", Experiments: []Experiment{e}}, Options{})
	o := r.Experiments[0].Overhead
	if o == nil || len(o.Rows) != 2 {
		t.Fatalf("overhead = %+v, want MM + total rows", o)
	}
	if o.Rows[0].Overhead.Valid() {
		t.Fatal("Base==0 must keep the NaN sentinel, not a number")
	}
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("report with NaN sentinel failed to marshal: %v", err)
	}
	if !strings.Contains(string(buf), `"overhead":null`) {
		t.Fatalf("marshal should render the sentinel as null: %s", buf)
	}
}

func TestAnalyzeExposureGroupsAndStats(t *testing.T) {
	// Two MM cells and one TT cell: grouping is by label, first seen first.
	in := Input{Title: "t", Experiments: []Experiment{{
		Name: "exp",
		Cells: []Cell{
			expoCell("exp/a/MM", [][3]float64{{0, 0, 10}, {0, 20, 30}, {1, 5, 25}}),
			expoCell("exp/b/MM", [][3]float64{{0, 0, 10}}),
			expoCell("exp/a/TT", [][3]float64{{0, 0, 2}, {1, 4, 6}}),
		},
	}}}
	r := Build(in, Options{})
	x := r.Experiments[0].Exposure
	if x == nil || len(x.Groups) != 2 {
		t.Fatalf("exposure = %+v, want MM and TT groups", x)
	}
	mm, tt := x.Groups[0], x.Groups[1]
	if mm.Label != "MM" || tt.Label != "TT" {
		t.Fatalf("labels = %s, %s (first-seen order broken)", mm.Label, tt.Label)
	}
	if mm.Cells != 2 || mm.EW.Count != 4 || mm.EW.PMOs != 2 {
		t.Fatalf("MM = %+v, want 2 cells, 4 windows, 2 PMOs", mm)
	}
	if mm.EW.MeanMicros != 12.5 || mm.EW.MaxMicros != 20 {
		t.Fatalf("MM mean/max = %v/%v, want 12.5/20", mm.EW.MeanMicros, mm.EW.MaxMicros)
	}
	if tt.EW.Count != 2 || tt.EW.MeanMicros != 2 {
		t.Fatalf("TT = %+v, want 2 windows of 2us", tt.EW)
	}
	// Timelines come from the group's first cell: PMO 0 has 2 spans.
	if len(mm.Timelines) != 2 || mm.Timelines[0].PMO != 0 || len(mm.Timelines[0].Spans) != 2 {
		t.Fatalf("MM timelines = %+v", mm.Timelines)
	}
	if mm.Timelines[0].Spans[0].StartMicros != 0 || mm.Timelines[0].Spans[0].EndMicros != 10 {
		t.Fatalf("span = %+v, want [0,10]us", mm.Timelines[0].Spans[0])
	}
}

func TestTimelineCapsAreReportedNotSilent(t *testing.T) {
	var ews [][3]float64
	for pmo := 0; pmo < 5; pmo++ {
		for s := 0; s < 4; s++ {
			start := float64(pmo*100 + s*10)
			ews = append(ews, [3]float64{float64(pmo), start, start + 5})
		}
	}
	in := Input{Experiments: []Experiment{{
		Name:  "exp",
		Cells: []Cell{expoCell("exp/a/MM", ews)},
	}}}
	r := Build(in, Options{MaxTimelinePMOs: 2, MaxTimelineSpans: 3})
	g := r.Experiments[0].Exposure.Groups[0]
	if len(g.Timelines) != 2 || g.TimelinePMOs != 5 {
		t.Fatalf("timelines = %d shown, TimelinePMOs = %d; want 2 shown of 5", len(g.Timelines), g.TimelinePMOs)
	}
	tl := g.Timelines[0]
	if len(tl.Spans) != 3 || tl.TruncatedFrom != 4 {
		t.Fatalf("spans = %d, TruncatedFrom = %d; want 3 of 4", len(tl.Spans), tl.TruncatedFrom)
	}
}

func TestBuildCDFDownsamples(t *testing.T) {
	durs := make([]float64, 1000)
	for i := range durs {
		durs[i] = float64(i + 1)
	}
	cdf := buildCDF(durs)
	if len(cdf) > maxCDFPoints+1 {
		t.Fatalf("CDF has %d points, want <= %d", len(cdf), maxCDFPoints+1)
	}
	last := cdf[len(cdf)-1]
	if last.Frac != 1 || last.Micros != 1000 {
		t.Fatalf("last point = %+v, want the max at frac 1", last)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Micros < cdf[i-1].Micros || cdf[i].Frac < cdf[i-1].Frac {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, cdf[i-1], cdf[i])
		}
	}
}

func TestAnalyzeAttackCorrelation(t *testing.T) {
	rec := obs.NewRecorder(1 << 12)
	hw := rec.Track(obs.HWThread)
	att := rec.Track(0)
	// One EW window [10, 20)us; probes inside and outside; a hit inside.
	hw.AsyncBegin(us(10), obs.CatExpo, "ew", 0)
	att.Instant(us(12), obs.CatAttack, "probe", 0)
	att.Instant(us(15), obs.CatAttack, "probe", 1)
	att.Instant(us(15), obs.CatAttack, "probe-hit", 1)
	hw.AsyncEnd(us(20), obs.CatExpo, "ew", 0)
	att.Instant(us(25), obs.CatAttack, "probe", 2) // after the window closed
	// Dead-time samples: 1us and 5us against a 2us target.
	att.Instant(us(30), obs.CatAttack, "deadtime", int64(us(1)))
	att.Instant(us(31), obs.CatAttack, "deadtime", int64(us(5)))

	in := Input{Experiments: []Experiment{{
		Name:  "exp",
		Cells: []Cell{{Name: "exp/mc", Events: rec.Events()}},
	}}}
	a := Build(in, Options{TEWTargetMicros: 2}).Experiments[0].Attack
	if a == nil {
		t.Fatal("no attack report")
	}
	if a.Probes != 3 || a.ProbesInWindow != 2 {
		t.Fatalf("probes = %d (%d in-window), want 3 (2)", a.Probes, a.ProbesInWindow)
	}
	if a.ProbeHits != 1 || a.HitsInWindow != 1 || a.Windows != 1 {
		t.Fatalf("hits = %d (%d in-window), windows = %d", a.ProbeHits, a.HitsInWindow, a.Windows)
	}
	if a.DeadTimes != 2 || a.AtLeastTEWPct != 50 {
		t.Fatalf("deadtimes = %d, atLeast = %v%%, want 2 and 50%%", a.DeadTimes, a.AtLeastTEWPct)
	}
}

func TestDroppedCellsFlagged(t *testing.T) {
	in := Input{Experiments: []Experiment{{
		Name: "exp",
		Cells: []Cell{
			{Name: "exp/ok", TraceEvents: 10},
			{Name: "exp/lossy", TraceEvents: 100, TraceDropped: 40},
		},
	}}}
	r := Build(in, Options{})
	d := r.Experiments[0].Dropped
	if len(d) != 1 || d[0].Cell != "exp/lossy" || d[0].Dropped != 40 {
		t.Fatalf("dropped = %+v, want only the lossy cell", d)
	}
	if !strings.Contains(string(HTML(r)), "dropped 40 of 100") {
		t.Fatal("HTML report must surface the overflow warning")
	}
}

// benchDoc builds a one-experiment bench document with the given per-cell
// counter values for one metric.
func benchDoc(metric string, cells map[string]uint64) []BenchGrid {
	obsDoc := &BenchObs{Totals: obs.NewSnapshot()}
	// Deterministic cell order for the test: sortedCounterNames handles
	// metrics, but cells pair by name so order is irrelevant here.
	for _, name := range []string{"a", "b", "c", "d"} {
		v, ok := cells[name]
		if !ok {
			continue
		}
		s := obs.NewSnapshot()
		s.Add(metric, v)
		obsDoc.Cells = append(obsDoc.Cells, BenchCell{Cell: name, Metrics: s})
		obsDoc.Totals.Add(metric, v)
	}
	return []BenchGrid{{Name: "exp", Obs: obsDoc}}
}

func TestCompareVerdicts(t *testing.T) {
	base := benchDoc("sim/cycles/base", map[string]uint64{"a": 1000, "b": 1000, "c": 1000, "d": 1000})

	same := Compare(benchDoc("sim/cycles/base", map[string]uint64{"a": 1000, "b": 1000, "c": 1000, "d": 1000}), base, RegressOpts{})
	if same.Verdict != Pass || same.Verdict.ExitCode() != 0 {
		t.Fatalf("identical runs = %s (exit %d), want pass 0", same.Verdict, same.Verdict.ExitCode())
	}

	worse := Compare(benchDoc("sim/cycles/base", map[string]uint64{"a": 1100, "b": 1100, "c": 1100, "d": 1100}), base, RegressOpts{})
	if worse.Verdict != Regressed || worse.Verdict.ExitCode() != 3 {
		t.Fatalf("+10%% cycles = %s (exit %d), want regressed 3", worse.Verdict, worse.Verdict.ExitCode())
	}

	better := Compare(benchDoc("sim/cycles/base", map[string]uint64{"a": 900, "b": 900, "c": 900, "d": 900}), base, RegressOpts{})
	if better.Verdict != Improved || better.Verdict.ExitCode() != 0 {
		t.Fatalf("-10%% cycles = %s (exit %d), want improved 0", better.Verdict, better.Verdict.ExitCode())
	}

	// Within tolerance: 1% drift passes at the default 2%.
	near := Compare(benchDoc("sim/cycles/base", map[string]uint64{"a": 1010, "b": 1010, "c": 1010, "d": 1010}), base, RegressOpts{})
	if near.Verdict != Pass {
		t.Fatalf("+1%% cycles = %s, want pass within tolerance", near.Verdict)
	}

	// Ungated metrics never flip the verdict.
	ub := benchDoc("expo/ew_closed", map[string]uint64{"a": 100})
	uc := benchDoc("expo/ew_closed", map[string]uint64{"a": 900})
	ung := Compare(uc, ub, RegressOpts{})
	if ung.Verdict != Pass || ung.Metrics[0].Verdict != "info" {
		t.Fatalf("ungated drift = %s/%s, want pass/info", ung.Verdict, ung.Metrics[0].Verdict)
	}

	// No shared experiment: nothing to compare.
	other := []BenchGrid{{Name: "elsewhere", Obs: &BenchObs{Totals: obs.NewSnapshot()}}}
	if got := Compare(other, base, RegressOpts{}); got != nil {
		t.Fatalf("disjoint docs = %+v, want nil", got)
	}
}

func TestCompareGatesNewMetricFromZeroBase(t *testing.T) {
	base := benchDoc("sim/cycles/rand", map[string]uint64{"a": 0})
	cur := benchDoc("sim/cycles/rand", map[string]uint64{"a": 500})
	r := Compare(cur, base, RegressOpts{})
	if r.Verdict != Regressed {
		t.Fatalf("cycles appearing from zero = %s, want regressed", r.Verdict)
	}
	if r.Metrics[0].DeltaPct.Valid() {
		t.Fatal("delta vs zero base must carry the NaN sentinel")
	}
}

func TestCompareInsignificantCellNoise(t *testing.T) {
	// Total drifts past tolerance but per-cell deltas straddle zero with a
	// wide interval — the CI includes zero, so the verdict stays pass.
	base := benchDoc("sim/cycles/base", map[string]uint64{"a": 1000, "b": 1000, "c": 1000, "d": 1000})
	cur := benchDoc("sim/cycles/base", map[string]uint64{"a": 1500, "b": 600, "c": 1400, "d": 700})
	r := Compare(cur, base, RegressOpts{})
	if r.Metrics[0].N != 4 {
		t.Fatalf("n = %d, want 4 paired cells", r.Metrics[0].N)
	}
	if r.Verdict != Pass {
		t.Fatalf("noise straddling zero = %s, want pass", r.Verdict)
	}
}

func TestVerdictJSONRoundTrips(t *testing.T) {
	base := benchDoc("sim/cycles/base", map[string]uint64{"a": 1000})
	cur := benchDoc("sim/cycles/base", map[string]uint64{"a": 2000})
	r := Compare(cur, base, RegressOpts{})
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Regression
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Verdict != Regressed || len(back.Metrics) != len(r.Metrics) {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestParseBenchRejectsGarbage(t *testing.T) {
	if _, err := ParseBench([]byte("{not json")); err == nil {
		t.Fatal("expected a parse error")
	}
	grids, err := ParseBench([]byte(`[{"name":"exp","obs":{"cells":[],"totals":{}}}]`))
	if err != nil || len(grids) != 1 || grids[0].Name != "exp" {
		t.Fatalf("parse = %+v, %v", grids, err)
	}
}
