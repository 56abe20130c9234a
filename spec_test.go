package terp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

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

// TestParseSpecRejectsSubStallWindows: a sweep point below the 2 us
// floor is rejected. At 1.9 us one expired window's randomization stall
// (about 1.94 us) already passes the next deadline, and the cell never
// finishes. A point past params.MaxEWMicros is rejected too.
func TestParseSpecRejectsSubStallWindows(t *testing.T) {
	for _, ews := range []string{"[1]", "[1.9]", "[40, 1]", "[0]", "[-3]", "[1e300]"} {
		doc := `{"name":"ewsweep","opts":{"ops":50},"ewMicros":` + ews + `}`
		if _, err := ParseSpec([]byte(doc)); err == nil || !strings.Contains(err.Error(), "at least 2 us") {
			t.Fatalf("ParseSpec(%s) err = %v, want the 2 us floor", ews, err)
		}
	}
	// The floor itself is accepted, and its cells finish.
	spec, err := ParseSpec([]byte(`{"name":"ewsweep","opts":{"ops":50},"ewMicros":[2]}`))
	if err != nil {
		t.Fatalf("ParseSpec([2]): %v", err)
	}
	if _, err := Run(spec); err != nil {
		t.Fatalf("Run at the floor: %v", err)
	}
	// Run validates too, so an in-process caller cannot reach the livelock.
	spec.EWMicros = []float64{1}
	if _, err := Run(spec); err == nil {
		t.Fatal("Run accepted a 1 us sweep point")
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
// remaining cells, also on the one-off pool RunOn starts for a nil one.
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
	g, err := RunOn(ctx, nil, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunOn error = %v, want context.Canceled", err)
	}
	if g != nil {
		t.Fatal("cancelled RunOn returned a grid")
	}
	if cells, _ := spec.Cells(); seen >= len(cells) {
		t.Fatalf("all %d cells ran despite cancellation", len(cells))
	}
}

// TestRunContextCancelStopsSpecCells: a SPEC grid far too large to
// finish returns the context error soon after its deadline, since every
// thread's interpreter polls ctx. fig11 runs 4-thread cells and table4
// single-thread ones. Without the poll each ran on for seconds (fig11
// 9.4 s, table4 3.8 s); with it both return within a few milliseconds,
// so the bound leaves headroom for the race detector.
func TestRunContextCancelStopsSpecCells(t *testing.T) {
	const bound = time.Second
	for _, name := range []string{"fig11", "table4"} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_, err := RunOn(ctx, nil, ExperimentSpec{Name: name, Opts: ExpOpts{Scale: 200}, Parallel: 1})
			deadline, _ := ctx.Deadline()
			late := time.Since(deadline)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("RunOn error = %v, want context.DeadlineExceeded", err)
			}
			t.Logf("returned %v after the deadline", late)
			if late > bound {
				t.Fatalf("RunOn returned %v after the deadline, want at most %v", late, bound)
			}
		})
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
