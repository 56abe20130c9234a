package terp

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
)

// obsSpec builds a small instrumented table3 spec.
func obsSpec(parallel int, cfg obs.Config) ExperimentSpec {
	return ExperimentSpec{
		Name:     "table3",
		Opts:     ExpOpts{Ops: 300, Scale: 1, Seed: 7},
		Parallel: parallel,
		Obs:      cfg,
	}
}

// TestObsOutputByteIdenticalAcrossParallel is the determinism contract:
// with tracing and metrics on, both the Grid JSON (which embeds every
// cell's metrics) and the exported Chrome trace are byte-identical at
// -parallel 1 and -parallel 8.
func TestObsOutputByteIdenticalAcrossParallel(t *testing.T) {
	cfg := obs.Config{Trace: true, Metrics: true}
	render := func(parallel int) (grid, trace []byte) {
		g, err := Run(obsSpec(parallel, cfg))
		if err != nil {
			t.Fatal(err)
		}
		grid, err = g.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, g.Traces()); err != nil {
			t.Fatal(err)
		}
		return grid, buf.Bytes()
	}
	g1, t1 := render(1)
	g8, t8 := render(8)
	if !bytes.Equal(g1, g8) {
		t.Error("instrumented Grid JSON differs between -parallel 1 and 8")
	}
	if !bytes.Equal(t1, t8) {
		t.Error("Chrome trace differs between -parallel 1 and 8")
	}
	if len(t1) == 0 {
		t.Fatal("empty trace")
	}
}

// TestDisabledObsLeavesGridUntouched: a run with the zero obs.Config
// must marshal without any "obs" key — exactly the pre-observability
// output — and repeat-run identical.
func TestDisabledObsLeavesGridUntouched(t *testing.T) {
	g, err := Run(obsSpec(4, obs.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf, []byte(`"obs"`)) {
		t.Fatal("disabled run marshaled an obs payload")
	}
	g2, err := Run(obsSpec(1, obs.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := g2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("disabled runs are not byte-identical")
	}
}

// TestMetricsOnlyGridHasNoTraceEvents: metrics without tracing collects
// counter snapshots but no event streams.
func TestMetricsOnlyGridHasNoTraceEvents(t *testing.T) {
	g, err := Run(obsSpec(2, obs.Config{Metrics: true}))
	if err != nil {
		t.Fatal(err)
	}
	if g.Obs == nil || g.Obs.Totals == nil {
		t.Fatal("metrics run produced no totals")
	}
	if g.Obs.Totals.Get("sim/cycles/base") == 0 {
		t.Error("totals missing base cycles")
	}
	if got := g.Traces(); len(got) != 0 {
		t.Errorf("metrics-only run carried %d trace streams", len(got))
	}
	for _, c := range g.Obs.Cells {
		if c.TraceEvents != 0 {
			t.Errorf("cell %s reports %d trace events", c.Cell, c.TraceEvents)
		}
	}
}

// TestTraceRingOverflowIsReported runs real cells whose per-thread trace
// rings (16 events) overflow: every cell of a whisper, a SPEC and both
// analysis experiments must carry a payload that counts its drops and
// accounts for every event it observed, and the report layer must flag
// each of them.
func TestTraceRingOverflowIsReported(t *testing.T) {
	var grids []*Grid
	for _, name := range []string{"table3", "fig11", "fig8", "table5"} {
		spec := ExperimentSpec{
			Name:     name,
			Opts:     ExpOpts{Ops: 300, Scale: 1, Seed: 7},
			Parallel: 2,
			Obs:      obs.Config{Trace: true, TraceCap: 16},
		}
		g, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 // an analysis experiment reports one synthetic cell
		if e, _ := findExperiment(name); e.cells != nil {
			want = len(e.cells(spec))
		}
		got := 0
		if g.Obs != nil {
			got = len(g.Obs.Cells)
		}
		if got != want {
			t.Fatalf("%s: payloads for %d cells, want %d", name, got, want)
		}
		for _, c := range g.Obs.Cells {
			if c.TraceDropped == 0 {
				t.Errorf("%s: no dropped events behind a 16-event ring (%d observed)", c.Cell, c.TraceEvents)
			}
			if kept := uint64(len(c.Events)); c.TraceEvents != kept+c.TraceDropped {
				t.Errorf("%s: %d events observed, %d kept + %d dropped", c.Cell, c.TraceEvents, kept, c.TraceDropped)
			}
		}
		grids = append(grids, g)
	}
	r := report.Build(ReportInput("ring overflow", grids))
	for i, e := range r.Experiments {
		flagged := map[string]bool{}
		for _, d := range e.Dropped {
			flagged[d.Cell] = true
		}
		for _, c := range grids[i].Obs.Cells {
			if !flagged[c.Cell] {
				t.Errorf("%s: report does not flag the cell's dropped events", c.Cell)
			}
		}
	}
}
