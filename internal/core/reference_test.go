package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	terp "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/speckit"
	"repro/internal/whisper"
)

// metricsOn collects each cell's metrics snapshot alongside its Result.
var metricsOn = obs.Config{Metrics: true}

// TestCellsMatchReference is the determinism contract of the hot-path
// engine. Every table3, table4 and fig11 cell, plus a 2-thread lbm TT
// cell, runs once through the production engine (runner.RunCellCtx: the
// linked interpreter over the translation-cached access path) and once
// through the references (speckit.RunProgram's block interpreter, or
// whisper.Run, over the uncached access path). Result and metrics must
// match exactly.
func TestCellsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-vs-reference cells are not a -short test")
	}
	var cells []runner.Cell
	for _, exp := range []string{"table3", "table4", "fig11"} {
		c, err := terp.ExperimentSpec{Name: exp, Opts: terp.ExpOpts{Ops: 600, Seed: 7}}.Cells()
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c...)
	}
	cells = append(cells, runner.Cell{
		Exp: "reference", Kind: runner.Spec, Workload: "lbm", Scheme: params.TT,
		EWMicros: params.DefaultEWMicros, Seed: 3, Scale: 1, Threads: 2,
	})

	cache := runner.NewProgCache()
	for _, c := range cells {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			got, err := runner.RunCellCtx(context.Background(), c, cache, metricsOn)
			if err != nil {
				t.Fatal(err)
			}
			want, wantMetrics, err := runReference(c)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := mustJSON(t, got.Result), mustJSON(t, want); g != w {
				t.Errorf("result differs from the reference:\ngot  %s\nwant %s", g, w)
			}
			if g, w := mustJSON(t, got.Obs.Metrics), mustJSON(t, wantMetrics); g != w {
				t.Errorf("metrics differ from the reference:\ngot  %s\nwant %s", g, w)
			}
		})
	}
}

// runReference runs c on the reference engines and returns its result
// and metrics snapshot.
func runReference(c runner.Cell) (core.Result, *obs.Snapshot, error) {
	var rt *core.Runtime
	onRuntime := func(r *core.Runtime) {
		core.UseReferenceAccessPath(r)
		r.EnableObs(metricsOn)
		rt = r
	}
	cfg := c.Config()
	var res core.Result
	switch c.Kind {
	case runner.Whisper:
		mk, err := whisper.ByName(c.Workload)
		if err != nil {
			return res, nil, err
		}
		if res, err = whisper.Run(cfg, mk, whisper.RunOpts{Ops: c.Ops, OnRuntime: onRuntime}); err != nil {
			return res, nil, err
		}
	case runner.Spec:
		k, err := speckit.ByName(c.Workload)
		if err != nil {
			return res, nil, err
		}
		opt, insert := speckit.InsertOptions(cfg)
		prog, err := speckit.Build(k, c.Scale, insert, opt)
		if err != nil {
			return res, nil, err
		}
		ropts := speckit.RunOpts{Threads: c.Threads, Scale: c.Scale, OnRuntime: onRuntime}
		if res, err = speckit.RunProgram(cfg, k, prog, ropts); err != nil {
			return res, nil, err
		}
	default:
		return res, nil, fmt.Errorf("no reference engine for %v cells", c.Kind)
	}
	return res, rt.ObsSnapshot(), nil
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}
