package report

import (
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// multiDoc builds a one-experiment bench document from per-metric,
// per-cell counter values (cells in the listed order).
func multiDoc(cells []string, metrics map[string][]uint64) []BenchGrid {
	o := &BenchObs{Totals: obs.NewSnapshot()}
	for i, cell := range cells {
		s := obs.NewSnapshot()
		for name, vals := range metrics {
			s.Add(name, vals[i])
			o.Totals.Add(name, vals[i])
		}
		o.Cells = append(o.Cells, BenchCell{Cell: cell, Metrics: s})
	}
	return []BenchGrid{{Name: "exp", Obs: o}}
}

// TestGoldenVerdictJSON pins the exact bytes of the verdict documents:
// the `terpreport -baseline/-trend -verdict` files and the
// /v1/compare and /v1/history/trend bodies all marshal these types
// with two-space indentation.
func TestGoldenVerdictJSON(t *testing.T) {
	cells := []string{"a", "b", "c", "d"}
	base := multiDoc(cells, map[string][]uint64{
		"sim/cycles/base": {1000, 1000, 1000, 1000},
		"sim/cycles/rand": {0, 0, 0, 0},
		"expo/ew_closed":  {10, 20, 30, 40},
	})
	docs := map[string]any{
		// Identical except an ungated metric and cell noise that
		// straddles zero: pass, with info and a non-trivial interval.
		"verdict_compare_pass.json": Compare(multiDoc(cells, map[string][]uint64{
			"sim/cycles/base": {1500, 600, 1400, 700},
			"sim/cycles/rand": {0, 0, 0, 0},
			"expo/ew_closed":  {90, 20, 30, 40},
		}), base, RegressOpts{}),
		"verdict_compare_regressed.json": Compare(multiDoc(cells, map[string][]uint64{
			"sim/cycles/base": {1100, 1110, 1090, 1100},
			"sim/cycles/rand": {0, 0, 0, 0},
			"expo/ew_closed":  {10, 20, 30, 40},
		}), base, RegressOpts{}),
		// Cycles appearing from a zero baseline: NaN deltas marshal as
		// null and the verdict is regressed.
		"verdict_compare_zero_base.json": Compare(multiDoc(cells, map[string][]uint64{
			"sim/cycles/base": {1000, 1000, 1000, 1000},
			"sim/cycles/rand": {5, 0, 7, 0},
			"expo/ew_closed":  {10, 20, 30, 40},
		}), base, RegressOpts{}),
		"verdict_trend_pass.json": Trend([]TrendSeries{
			series("sim/cycles/app", 100, 101, 99, 100, 100, 101),
			series("sim/cycles/flush", 60, 140, 70, 130, 110, 110, 110),
			series("expo/tt/tew_us/mean", 1, 2, 3, 4, 5, 6),
		}, TrendOpts{}),
		// The worst verdict wins over an improving series; cycles
		// appearing from a zero base regress with null deltas.
		"verdict_trend_regressed.json": Trend([]TrendSeries{
			series("sim/cycles/app", 130, 130, 130, 130, 100, 100, 100),
			series("sim/cycles/flush", 100, 100, 100, 100, 130, 130, 130),
			series("sim/cycles/rand", 0, 0, 0, 0, 0, 4, 4),
		}, TrendOpts{Window: 2, MinRuns: 4}),
		"verdict_trend_insufficient.json": Trend([]TrendSeries{
			series("sim/cycles/app", 100, 130),
			series("sim/cycles/base"),
		}, TrendOpts{}),
	}
	for name, doc := range docs {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, append(buf, '\n'))
	}
}
