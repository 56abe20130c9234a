package terp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := ExperimentSpec{
		Name:     "table3",
		Opts:     ExpOpts{Ops: 500, Scale: 2, Seed: 7},
		Parallel: 3,
		EWMicros: []float64{40, 80},
		Obs:      obs.Config{Trace: true, Metrics: true},
	}
	buf, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := spec
	want.Version = WireVersion // JSON stamps the current version
	if got.Name != want.Name || got.Opts != want.Opts || got.Parallel != want.Parallel ||
		got.Version != want.Version || got.Obs != want.Obs ||
		len(got.EWMicros) != len(want.EWMicros) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseSpecRejectsUnknownVersion(t *testing.T) {
	_, err := ParseSpec([]byte(`{"version": 99, "name": "table3"}`))
	if err == nil || !strings.Contains(err.Error(), "unsupported spec version 99") {
		t.Fatalf("err = %v, want unsupported-version error", err)
	}
}

func TestParseSpecRejectsUnknownExperiment(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name": "tableX"}`))
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "tableX"`) {
		t.Fatalf("err = %v, want unknown-experiment error", err)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name": "table3", "opz": {"ops": 10}}`))
	if err == nil {
		t.Fatal("want error for unknown field, got nil")
	}
}

func TestRunStampsGridVersion(t *testing.T) {
	g, err := Run(ExperimentSpec{Name: "table3", Opts: ExpOpts{Ops: 200}, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.Version != WireVersion {
		t.Fatalf("grid version = %d, want %d", g.Version, WireVersion)
	}
	buf, err := json.Marshal([]*Grid{g})
	if err != nil {
		t.Fatal(err)
	}
	grids, err := ParseGrids(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 1 || grids[0].Version != WireVersion {
		t.Fatalf("ParseGrids round trip lost the version: %+v", grids)
	}

	// A grid from a future schema generation is rejected loudly.
	doctored := bytes.Replace(buf, []byte(`"version":1`), []byte(`"version":42`), 1)
	if bytes.Equal(doctored, buf) {
		t.Fatal("test bug: version field not found in grid JSON")
	}
	if _, err := ParseGrids(doctored); err == nil ||
		!strings.Contains(err.Error(), "unsupported version 42") {
		t.Fatalf("ParseGrids(version 42) err = %v, want unsupported-version error", err)
	}
	single, _ := json.Marshal(g)
	single = bytes.Replace(single, []byte(`"version":1`), []byte(`"version":42`), 1)
	if _, err := ParseGrid(single); err == nil {
		t.Fatalf("ParseGrid(version 42) accepted a future grid")
	}
}

// TestParseGridsRejectsGarbage: the grids parser that `terpreport -in`
// and `-baseline` both read through rejects malformed JSON and accepts a
// minimal document carrying an observability payload.
func TestParseGridsRejectsGarbage(t *testing.T) {
	if _, err := ParseGrids([]byte("{not json")); err == nil {
		t.Fatal("expected a parse error")
	}
	grids, err := ParseGrids([]byte(`[{"name":"exp","obs":{"cells":[],"totals":{}}}]`))
	if err != nil || len(grids) != 1 || grids[0].Name != "exp" || grids[0].Obs == nil || grids[0].Obs.Totals == nil {
		t.Fatalf("parse = %+v, %v", grids, err)
	}
}

func TestRunRejectsUnknownSpecVersion(t *testing.T) {
	_, err := Run(ExperimentSpec{Version: 9, Name: "table3", Opts: ExpOpts{Ops: 100}})
	if err == nil || !strings.Contains(err.Error(), "unsupported spec version 9") {
		t.Fatalf("err = %v, want unsupported-version error", err)
	}
}

// TestRunContextCancelMidGrid: cancelling after the first completed
// cell aborts the grid with context.Canceled instead of running the
// remaining cells.
func TestRunContextCancelMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen int
	spec := ExperimentSpec{
		Name:     "table3",
		Opts:     ExpOpts{Ops: 20_000},
		Parallel: 2,
		Progress: func(done, total int, cell string) {
			seen = done
			if done == 1 {
				cancel()
			}
		},
	}
	g, err := RunContext(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if g != nil {
		t.Fatal("cancelled RunContext returned a grid")
	}
	if cells, _ := spec.Cells(); seen >= len(cells) {
		t.Fatalf("all %d cells ran despite cancellation", len(cells))
	}
}

// TestRunOnPoolByteIdentical: the same spec run offline and on a shared
// pool (the terpd path) marshals to identical bytes.
func TestRunOnPoolByteIdentical(t *testing.T) {
	spec := ExperimentSpec{
		Name: "table3",
		Opts: ExpOpts{Ops: 300},
		Obs:  obs.Config{Trace: true, Metrics: true},
	}
	off := spec
	off.Parallel = 1
	want, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}

	pool := runner.NewPool(4)
	defer pool.Close()
	got, err := RunOn(context.Background(), pool, spec)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("pool-run grid differs from offline grid")
	}
}
