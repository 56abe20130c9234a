package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Trend analytics over the run ledger: per-metric time series keyed by
// spec hash, a trailing-window regression test through the same
// classifier as the baseline gate, and a simple mean-split change-point
// locator. The ledger layer builds TrendSeries from records; this file
// never reads files, so the report package stays import-cycle-free
// (terp imports report; ledger imports both).

// TrendPoint is one run's value of one metric (Run is the 0-based
// position within the series' spec-hash group, in append order).
type TrendPoint struct {
	Run   int     `json:"run"`
	Value float64 `json:"value"`
}

// TrendSeries is one metric's history under one spec identity.
type TrendSeries struct {
	Experiment string       `json:"experiment"`
	SpecHash   string       `json:"specHash,omitempty"`
	Metric     string       `json:"metric"`
	Points     []TrendPoint `json:"points"`
}

// TrendOpts tunes the trend gate.
type TrendOpts struct {
	// Window is the trailing run count compared against the prior
	// history; 0 selects 3.
	Window int
	// MinRuns is the history length below which a series reports
	// "insufficient" instead of gating; 0 selects 5.
	MinRuns int
	// TolerancePct mirrors RegressOpts: relative drift allowed before
	// gating; 0 selects DefaultTolerancePct.
	TolerancePct float64
}

func (o TrendOpts) withDefaults() TrendOpts {
	if o.Window <= 0 {
		o.Window = 3
	}
	if o.MinRuns <= 0 {
		o.MinRuns = 5
	}
	if o.MinRuns <= o.Window {
		// The base window needs at least one run outside the trailing
		// window.
		o.MinRuns = o.Window + 1
	}
	if o.TolerancePct == 0 {
		o.TolerancePct = DefaultTolerancePct
	}
	return o
}

// SeriesTrend is one series' analyzed trend.
type SeriesTrend struct {
	Experiment string `json:"experiment"`
	SpecHash   string `json:"specHash,omitempty"`
	Metric     string `json:"metric"`
	// N is the series length; Gated marks metrics the verdict gates on
	// (the sim cycle accounts — same rule as the baseline gate).
	N     int  `json:"n"`
	Gated bool `json:"gated"`
	// First and Last are the endpoints (sparkline anchors).
	First float64 `json:"first"`
	Last  float64 `json:"last"`
	// BaseMean is the mean of the runs before the trailing window,
	// CurMean the mean of the window, DeltaPct their relative change
	// (null when the base mean is 0) and CIHalfPct the confidence
	// half-width of the base runs in percent of the base mean.
	BaseMean  Ratio `json:"baseMean"`
	CurMean   Ratio `json:"curMean"`
	DeltaPct  Ratio `json:"deltaPct"`
	CIHalfPct Ratio `json:"ciHalfPct"`
	// ChangePoint is the run index where a mean split explains the
	// largest shift beyond tolerance, -1 when the series is stable.
	ChangePoint int `json:"changePoint"`
	// Verdict is pass/improved/regressed for gated series, "info" for
	// ungated ones, "insufficient" below MinRuns.
	Verdict string `json:"verdict"`
}

// TrendReport is the full trend analysis (the GET /v1/history/trend
// body and the `terpreport -trend` verdict document).
type TrendReport struct {
	// Verdict is the worst gated series verdict (Pass when nothing
	// gated or everything is stable/insufficient).
	Verdict Verdict `json:"verdict"`
	// Window, MinRuns, TolerancePct and Z echo the parameters.
	Window       int     `json:"window"`
	MinRuns      int     `json:"minRuns"`
	TolerancePct float64 `json:"tolerancePct"`
	Z            float64 `json:"z"`
	// Series holds every analyzed series, gated first, then by
	// (experiment, metric, spec hash).
	Series []SeriesTrend `json:"series"`
}

// Trend analyzes each series against its own history: the trailing
// Window runs against everything before them, tolerance and CI rules
// as in Compare. Deterministic for a given input.
func Trend(series []TrendSeries, opt TrendOpts) *TrendReport {
	opt = opt.withDefaults()
	out := &TrendReport{
		Verdict: Pass,
		Window:  opt.Window, MinRuns: opt.MinRuns,
		TolerancePct: opt.TolerancePct, Z: ciZ,
	}
	for _, s := range series {
		st := trendOne(s, opt)
		out.Series = append(out.Series, st)
		out.Verdict = worse(out.Verdict, st.Verdict)
	}
	sort.SliceStable(out.Series, func(i, j int) bool {
		a, b := out.Series[i], out.Series[j]
		if a.Gated != b.Gated {
			return a.Gated
		}
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		return a.SpecHash < b.SpecHash
	})
	return out
}

func trendOne(s TrendSeries, opt TrendOpts) SeriesTrend {
	vals := make([]float64, len(s.Points))
	for i, p := range s.Points {
		vals[i] = p.Value
	}
	st := SeriesTrend{
		Experiment: s.Experiment, SpecHash: s.SpecHash, Metric: s.Metric,
		N:           len(vals),
		Gated:       gatedMetric(s.Metric),
		ChangePoint: -1,
	}
	nan := Ratio(math.NaN())
	st.BaseMean, st.CurMean, st.DeltaPct, st.CIHalfPct = nan, nan, nan, nan
	if len(vals) > 0 {
		st.First, st.Last = vals[0], vals[len(vals)-1]
	}
	if st.N < opt.MinRuns {
		st.Verdict = "insufficient"
		return st
	}
	base, cur := vals[:st.N-opt.Window], vals[st.N-opt.Window:]
	baseMean, half := stats.MeanCI(base, ciZ)
	curMean := stats.Mean(cur)
	st.BaseMean, st.CurMean = Ratio(baseMean), Ratio(curMean)
	st.DeltaPct = relPct(curMean, baseMean)
	if baseMean != 0 {
		st.CIHalfPct = Ratio(100 * half / math.Abs(baseMean))
	}
	st.ChangePoint = changePoint(vals, opt.TolerancePct)
	// The trailing window's shift is noise when the base history's own
	// interval covers it.
	st.Verdict = classify(st.Gated, baseMean, curMean, curMean-baseMean, half, opt.TolerancePct)
	return st
}

// changePoint locates the split index k (2 <= k <= n-2) maximizing the
// mean shift |mean(v[k:]) - mean(v[:k])|, returning -1 when the best
// shift stays within tolerancePct of the overall mean — i.e. the
// series is flat enough that no split explains anything.
func changePoint(vals []float64, tolerancePct float64) int {
	if len(vals) < 4 {
		return -1
	}
	overall := stats.Mean(vals)
	best, bestShift := -1, 0.0
	for k := 2; k <= len(vals)-2; k++ {
		shift := math.Abs(stats.Mean(vals[k:]) - stats.Mean(vals[:k]))
		if shift > bestShift {
			best, bestShift = k, shift
		}
	}
	if overall == 0 || 100*bestShift/math.Abs(overall) <= tolerancePct {
		return -1
	}
	return best
}

// Text renders the trend report as an aligned table.
func (t *TrendReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trend verdict: %s (window %d, min runs %d, tolerance %.3g%%)\n",
		t.Verdict, t.Window, t.MinRuns, t.TolerancePct)
	tab := stats.NewTable("experiment", "metric", "n", "base", "current", "delta%", "verdict")
	for _, s := range t.Series {
		tab.AddRow(s.Experiment, s.Metric, fmt.Sprintf("%d", s.N),
			fmtTrendVal(float64(s.BaseMean)), fmtTrendVal(float64(s.CurMean)),
			fmtTrendVal(float64(s.DeltaPct)), s.Verdict)
	}
	b.WriteString(tab.String())
	return b.String()
}

func fmtTrendVal(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "-"
	}
	return fmt.Sprintf("%.4g", v)
}

// Sparkline renders a value series as a tiny inline SVG polyline
// (120x28) with the last point marked — the dashboard's and compare
// panel's at-a-glance trend glyph. Deterministic bytes for a given
// series; empty input renders nothing.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	const w, h, pad = 120.0, 28.0, 3.0
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	span := hi - lo
	if span == 0 {
		span = 1 // flat series draws a centered line
		lo -= 0.5
	}
	x := func(i int) float64 {
		if len(values) == 1 {
			return w / 2
		}
		return pad + (w-2*pad)*float64(i)/float64(len(values)-1)
	}
	y := func(v float64) float64 {
		return pad + (h-2*pad)*(1-(v-lo)/span)
	}
	var pts []string
	for i, v := range values {
		pts = append(pts, coord(x(i))+","+coord(y(v)))
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" role="img">`, w, h, w, h)
	fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`,
		strings.Join(pts, " "), seriesColor(0))
	last := len(values) - 1
	fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="2" fill="%s"/>`,
		coord(x(last)), coord(y(values[last])), seriesColor(2))
	b.WriteString(`</svg>`)
	return b.String()
}

// CellDelta is one cell's total-sim-cycle comparison between two
// grids (the /v1/compare per-cell table).
type CellDelta struct {
	Cell string `json:"cell"`
	// Base and Cur sum the cell's sim/cycles/* accounts on each side
	// (0 when the cell exists on only one side).
	Base uint64 `json:"base"`
	Cur  uint64 `json:"cur"`
	// DeltaPct is the relative change (null when Base is 0).
	DeltaPct Ratio `json:"deltaPct"`
}

// CellCycleDeltas compares per-cell total sim cycles across the union
// of both grids' cells, sorted by cell name. Cells present on only
// one side appear with the other side at 0.
func CellCycleDeltas(cur, base *obs.GridObs) []CellDelta {
	if cur == nil && base == nil {
		return nil
	}
	cycles := func(o *obs.GridObs) map[string]uint64 {
		out := map[string]uint64{}
		if o == nil {
			return out
		}
		for _, c := range o.Cells {
			if c.Metrics == nil {
				continue
			}
			var total uint64
			for _, name := range c.Metrics.Names() {
				if strings.HasPrefix(name, "sim/cycles/") {
					total += c.Metrics.Get(name)
				}
			}
			out[c.Cell] = total
		}
		return out
	}
	cm, bm := cycles(cur), cycles(base)
	names := make([]string, 0, len(cm)+len(bm))
	seen := map[string]bool{}
	for n := range cm {
		names = append(names, n)
		seen[n] = true
	}
	for n := range bm {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []CellDelta
	for _, n := range names {
		out = append(out, CellDelta{Cell: n, Base: bm[n], Cur: cm[n],
			DeltaPct: relPct(float64(cm[n]), float64(bm[n]))})
	}
	return out
}
