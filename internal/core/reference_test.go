package core_test

import (
	"context"
	"encoding/json"
	"testing"

	terp "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/speckit"
)

// metricsOn collects each cell's metrics snapshot alongside its Result.
var metricsOn = obs.Config{Metrics: true}

// TestCellsMatchReference is the determinism contract of the hot-path
// engine. Every table4 and fig11 cell, plus a 2-thread lbm TT cell, runs
// once through the production engine (runner.RunCellCtx: the linked
// interpreter) and once through the reference (speckit.RunProgram's
// block interpreter). Result and metrics must match exactly.
func TestCellsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-vs-reference cells are not a -short test")
	}
	var cells []runner.Cell
	for _, exp := range []string{"table4", "fig11"} {
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

// runReference runs SPEC cell c on the block interpreter and returns its
// result and metrics snapshot.
func runReference(c runner.Cell) (core.Result, *obs.Snapshot, error) {
	cfg := c.Config()
	k, err := speckit.ByName(c.Workload)
	if err != nil {
		return core.Result{}, nil, err
	}
	opt, insert := speckit.InsertOptions(cfg)
	prog, err := speckit.Build(k, c.Scale, insert, opt)
	if err != nil {
		return core.Result{}, nil, err
	}
	res, err := speckit.RunProgram(cfg, k, prog, speckit.RunOpts{Threads: c.Threads, Obs: metricsOn})
	if err != nil {
		return res, nil, err
	}
	return res, res.Obs.Metrics, nil
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}
