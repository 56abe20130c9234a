package report

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Verdict is the machine-readable outcome of a baseline comparison.
type Verdict string

// The three comparison outcomes. CI gates on Regressed.
const (
	// Pass: every gated metric is within tolerance of the baseline.
	Pass Verdict = "pass"
	// Improved: at least one gated metric moved significantly in the
	// good direction and none regressed.
	Improved Verdict = "improved"
	// Regressed: at least one gated metric moved significantly in the
	// bad direction.
	Regressed Verdict = "regressed"
)

// BenchCell is one cell's metrics as stored in a BENCH_*.json grid.
type BenchCell struct {
	Cell    string        `json:"cell"`
	Metrics *obs.Snapshot `json:"metrics"`
}

// BenchObs is the observability payload of one stored grid.
type BenchObs struct {
	Cells  []BenchCell   `json:"cells"`
	Totals *obs.Snapshot `json:"totals"`
}

// BenchGrid is the slice of a stored grid the regression tracker reads:
// the experiment name and its metrics. All other payload fields are
// ignored, so the format tolerates grids from any experiment.
type BenchGrid struct {
	Name string    `json:"name"`
	Obs  *BenchObs `json:"obs"`
}

// ParseBench parses a BENCH_*.json document (the `terpbench -json`
// output: an array of grids).
func ParseBench(data []byte) ([]BenchGrid, error) {
	var out []BenchGrid
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("report: parsing bench document: %w", err)
	}
	return out, nil
}

// DefaultTolerancePct is the relative drift, in percent, a gated metric
// may move before either gate (Compare or Trend) reads it as changed.
// The simulation is deterministic, so any drift at all is a code change
// — the tolerance only keeps hair-trigger noise metrics from gating CI.
const DefaultTolerancePct = 2

// ciZ is the z-score of both gates' confidence intervals (~95%).
const ciZ = 1.96

// RegressOpts tunes the baseline comparison.
type RegressOpts struct {
	// TolerancePct is the relative drift (percent of the baseline total)
	// a gated metric may move without triggering a verdict; 0 selects
	// DefaultTolerancePct.
	TolerancePct float64
}

// MetricDelta is one metric's baseline-vs-current comparison.
type MetricDelta struct {
	// Experiment and Name identify the metric.
	Experiment string `json:"experiment"`
	Name       string `json:"name"`
	// Base and Cur are the merged totals on each side.
	Base uint64 `json:"base"`
	Cur  uint64 `json:"cur"`
	// DeltaPct is the relative change of the total in percent
	// (null when the baseline total is 0).
	DeltaPct Ratio `json:"deltaPct"`
	// MeanRelPct and CIHalfPct are the mean per-cell relative delta and
	// its confidence half-width in percent, over the N cells present on
	// both sides (the per-cell values are the samples the interval is
	// computed from).
	MeanRelPct Ratio `json:"meanRelPct"`
	CIHalfPct  Ratio `json:"ciHalfPct"`
	N          int   `json:"n"`
	// Gated marks metrics the verdict gates on (cycle accounts, where
	// higher is worse); ungated metrics are informational.
	Gated bool `json:"gated"`
	// Verdict is pass/improved/regressed for gated metrics, "info" for
	// the rest.
	Verdict string `json:"verdict"`
}

// Regression is the full baseline comparison.
type Regression struct {
	// Verdict is the overall outcome (the worst per-metric verdict).
	Verdict Verdict `json:"verdict"`
	// TolerancePct and Z echo the comparison parameters.
	TolerancePct float64 `json:"tolerancePct"`
	Z            float64 `json:"z"`
	// Metrics holds every compared metric, gated first, then by
	// (experiment, name).
	Metrics []MetricDelta `json:"metrics"`
}

// gatedMetric reports whether drift in the metric should gate CI: the
// cycle accounts are the paper's overhead currency, and more cycles is
// strictly worse.
func gatedMetric(name string) bool {
	return strings.HasPrefix(name, "sim/cycles/")
}

// relPct is the relative change from base to cur in percent (NaN when
// base is 0).
func relPct(cur, base float64) Ratio {
	if base == 0 {
		return Ratio(math.NaN())
	}
	return Ratio(100 * (cur - base) / base)
}

// classify is the one verdict rule both gates share. base and cur are
// the two sides of a metric (baseline vs current totals in Compare,
// prior-history vs trailing-window means in Trend) and shift ± half is
// the confidence interval of the change (NaN when there is none). A
// gated metric regresses or improves only when it drifts beyond the
// tolerance AND the interval excludes zero; ungated metrics are "info".
func classify(gated bool, base, cur, shift, half, tolerancePct float64) string {
	if !gated {
		return "info"
	}
	if base == 0 {
		// Cycles appearing from nowhere regress; zero staying zero passes.
		if cur > 0 {
			return string(Regressed)
		}
		return string(Pass)
	}
	delta := float64(relPct(cur, base))
	switch {
	case math.Abs(delta) <= tolerancePct:
		return string(Pass)
	case math.Abs(shift) <= half:
		return string(Pass) // interval includes zero: not significant
	case delta > 0:
		return string(Regressed)
	default:
		return string(Improved)
	}
}

// worse folds one metric's verdict into the overall verdict: any
// regression wins, then any improvement; "info" and "insufficient"
// never move it.
func worse(overall Verdict, metric string) Verdict {
	switch {
	case metric == string(Regressed):
		return Regressed
	case metric == string(Improved) && overall == Pass:
		return Improved
	}
	return overall
}

// ExitCode maps a verdict to a process exit code: 0 for pass and
// improved, 3 for regressed (distinct from 1, which commands use for
// operational errors).
func (v Verdict) ExitCode() int {
	if v == Regressed {
		return 3
	}
	return 0
}

// Compare runs the regression analysis of current against baseline.
// Grids pair by experiment name; within a pair, every counter present on
// either side is compared: totals for the headline delta, and matched
// per-cell values (paired by cell name) for the confidence interval. It
// returns nil when the documents share no experiment.
func Compare(current, baseline []BenchGrid, opt RegressOpts) *Regression {
	if opt.TolerancePct == 0 {
		opt.TolerancePct = DefaultTolerancePct
	}
	baseByName := make(map[string]BenchGrid)
	for _, g := range baseline {
		baseByName[g.Name] = g
	}
	out := &Regression{Verdict: Pass, TolerancePct: opt.TolerancePct, Z: ciZ}
	matched := false
	for _, cur := range current {
		base, ok := baseByName[cur.Name]
		if !ok || cur.Obs == nil || base.Obs == nil {
			continue
		}
		matched = true
		out.Metrics = append(out.Metrics, compareGrids(cur, base, opt.TolerancePct)...)
	}
	if !matched {
		return nil
	}
	for _, m := range out.Metrics {
		out.Verdict = worse(out.Verdict, m.Verdict)
	}
	// Gated metrics lead, then lexical (experiment, name): the order is a
	// deterministic function of the inputs.
	sortMetricDeltas(out.Metrics)
	return out
}

func compareGrids(cur, base BenchGrid, tolerancePct float64) []MetricDelta {
	var out []MetricDelta
	baseCells := make(map[string]*obs.Snapshot)
	for _, c := range base.Obs.Cells {
		baseCells[c.Cell] = c.Metrics
	}
	for _, name := range sortedCounterNames(cur.Obs.Totals, base.Obs.Totals) {
		d := MetricDelta{
			Experiment: cur.Name,
			Name:       name,
			Base:       base.Obs.Totals.Get(name),
			Cur:        cur.Obs.Totals.Get(name),
			Gated:      gatedMetric(name),
		}
		d.DeltaPct = relPct(float64(d.Cur), float64(d.Base))
		// Per-cell paired relative deltas feed the confidence interval.
		var rel []float64
		for _, c := range cur.Obs.Cells {
			bm, ok := baseCells[c.Cell]
			if !ok || bm == nil || c.Metrics == nil {
				continue
			}
			if r := relPct(float64(c.Metrics.Get(name)), float64(bm.Get(name))); r.Valid() {
				rel = append(rel, float64(r))
			}
		}
		d.N = len(rel)
		mean, half := math.NaN(), math.NaN()
		if d.N > 0 {
			mean, half = stats.MeanCI(rel, ciZ)
		}
		d.MeanRelPct, d.CIHalfPct = Ratio(mean), Ratio(half)
		if d.N < 2 {
			// A single pair carries no spread: the deterministic totals
			// speak for themselves.
			mean, half = math.NaN(), math.NaN()
		}
		d.Verdict = classify(d.Gated, float64(d.Base), float64(d.Cur), mean, half, tolerancePct)
		out = append(out, d)
	}
	return out
}

func sortMetricDeltas(ms []MetricDelta) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.Gated != b.Gated {
			return a.Gated
		}
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		return a.Name < b.Name
	})
}
