package terp

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// runReport runs the experiments instrumented at the given worker count
// and renders every report artifact.
func runReport(t *testing.T, names []string, parallel int) (grids []*Grid, html, text []byte) {
	t.Helper()
	for _, name := range names {
		g, err := Run(ExperimentSpec{
			Name:     name,
			Opts:     ExpOpts{Ops: 300, Scale: 1, Seed: 7},
			Parallel: parallel,
			Obs:      obs.Config{Trace: true, Metrics: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
	}
	r := report.Build(ReportInput("determinism check", grids))
	return grids, report.HTML(r), []byte(report.Text(r))
}

// TestReportByteIdenticalAcrossParallel extends the determinism contract
// to the analysis layer: the full HTML report, its text rendering and
// the regression verdict JSON are byte-identical at -parallel 1 and 8.
func TestReportByteIdenticalAcrossParallel(t *testing.T) {
	names := []string{"table3", "table5", "fig8"}
	grids1, html1, text1 := runReport(t, names, 1)
	grids8, html8, text8 := runReport(t, names, 8)

	if !bytes.Equal(html1, html8) {
		t.Error("HTML report differs between -parallel 1 and 8")
	}
	if !bytes.Equal(text1, text8) {
		t.Error("text report differs between -parallel 1 and 8")
	}
	if len(html1) == 0 || !bytes.Contains(html1, []byte("<svg")) {
		t.Fatal("HTML report is empty or chartless")
	}

	// The regression verdict from comparing the two sides must be a clean
	// pass — and its JSON must render identically built from either side.
	// The baseline is compared as parsed back from its saved document,
	// the form `terpreport -baseline` reads.
	verdict := func(cur, base []*Grid) []byte {
		t.Helper()
		bb, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		saved, err := ParseGrids(bb)
		if err != nil {
			t.Fatal(err)
		}
		reg := report.Compare(ReportInput("", cur).Experiments, ReportInput("", saved).Experiments,
			report.RegressOpts{})
		if reg == nil {
			t.Fatal("no comparable experiments")
		}
		if reg.Verdict != report.Pass || reg.Verdict.ExitCode() != 0 {
			t.Fatalf("identical runs produced verdict %s", reg.Verdict)
		}
		buf, err := json.MarshalIndent(reg, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if !bytes.Equal(verdict(grids1, grids8), verdict(grids8, grids1)) {
		t.Error("verdict JSON differs by comparison direction despite identical runs")
	}
}

// TestFormatRollupByteIdenticalAcrossParallel pins the terminal metric
// renders: the cycle-account rollup and the merged counter table are
// byte-identical at -parallel 1 and 8.
func TestFormatRollupByteIdenticalAcrossParallel(t *testing.T) {
	render := func(parallel int) (rollup, table string) {
		g, err := Run(ExperimentSpec{
			Name:     "table3",
			Opts:     ExpOpts{Ops: 300, Scale: 1, Seed: 7},
			Parallel: parallel,
			Obs:      obs.Config{Metrics: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return obs.FormatRollup(g.Obs.Totals, "sim/cycles"), obs.FormatMetrics(g.Obs.Totals)
	}
	r1, m1 := render(1)
	r8, m8 := render(8)
	if r1 != r8 {
		t.Error("FormatRollup differs between -parallel 1 and 8")
	}
	if m1 != m8 {
		t.Error("FormatMetrics differs between -parallel 1 and 8")
	}
	if len(r1) == 0 || len(m1) == 0 {
		t.Fatal("empty rollup or metrics render")
	}
}

// TestAnalysisExperimentsCarryObs: fig8 and table5 are analysis-only
// (no runner cells) but still attach an observability payload the report
// layer consumes — dead-time instants for fig8, probe windows for table5.
func TestAnalysisExperimentsCarryObs(t *testing.T) {
	for _, tc := range []struct {
		name, counter string
	}{
		{"fig8", "attack/deadtime/samples"},
		{"table5", "attack/probe/trials"},
	} {
		g, err := Run(ExperimentSpec{
			Name:     tc.name,
			Opts:     ExpOpts{Ops: 300, Seed: 7},
			Parallel: 2,
			Obs:      obs.Config{Trace: true, Metrics: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if g.Obs == nil || len(g.Obs.Cells) != 1 {
			t.Fatalf("%s: obs payload = %+v, want one analysis cell", tc.name, g.Obs)
		}
		c := g.Obs.Cells[0]
		if c.Metrics.Get(tc.counter) == 0 {
			t.Errorf("%s: counter %s missing", tc.name, tc.counter)
		}
		if len(c.Events) == 0 {
			t.Errorf("%s: no trace events attached", tc.name)
		}
		in := ReportInput("t", []*Grid{g})
		if len(in.Experiments) != 1 || in.Experiments[0].Obs != g.Obs || len(in.Experiments[0].Obs.Cells) != 1 {
			t.Fatalf("%s: ReportInput = %+v", tc.name, in)
		}
	}
}

// TestReportExperimentNilWithoutObs: grids from uninstrumented runs carry
// no observability payload and are skipped by ReportInput.
func TestReportExperimentNilWithoutObs(t *testing.T) {
	g, err := Run(ExperimentSpec{Name: "table5", Opts: ExpOpts{Ops: 300, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Obs != nil {
		t.Fatalf("uninstrumented grid produced %+v", g.Obs)
	}
	in := ReportInput("t", []*Grid{g})
	if len(in.Experiments) != 0 {
		t.Fatalf("ReportInput kept %d experiments, want 0", len(in.Experiments))
	}
}

// TestBarZeroBaselineMarshals pins the NaN guard in bar(): a zero-cycle
// baseline cell must yield a marshalable all-zero bar, not the NaN that
// encoding/json rejects.
func TestBarZeroBaselineMarshals(t *testing.T) {
	b := bar("prog", "TT", core.Result{Cycles: 100}, core.Result{})
	if b.Total != 0 || b.Attach != 0 {
		t.Fatalf("zero-baseline bar = %+v, want all zero", b)
	}
	if _, err := json.Marshal(Grid{Name: "fig9", Bars: []OverheadBar{b}}); err != nil {
		t.Fatalf("zero-baseline bar failed to marshal: %v", err)
	}
}
