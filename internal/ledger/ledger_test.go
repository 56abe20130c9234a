package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	terp "repro"
	"repro/internal/obs"
)

func testRecord(i int) Record {
	return Record{
		Source:     "test",
		SpecHash:   fmt.Sprintf("hash%02d", i%3),
		Experiment: "table3",
		Seed:       int64(i),
		Metrics:    map[string]uint64{"sim/cycles/app": uint64(1000 + i)},
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	recs, skipped, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != 5 {
		t.Fatalf("got %d records, %d skipped; want 5, 0", len(recs), skipped)
	}
	for i, r := range recs {
		if r.Seed != int64(i) {
			t.Fatalf("record %d out of append order: seed %d", i, r.Seed)
		}
		if r.Schema != SchemaVersion || r.Time == "" || r.Build == "" {
			t.Fatalf("record %d not stamped: %+v", i, r)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Package-level Read sees the same history after the writer is gone.
	recs2, skipped2, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped2 != 0 || !reflect.DeepEqual(recs, recs2) {
		t.Fatalf("Read disagrees with Records: %d records, %d skipped", len(recs2), skipped2)
	}
}

func TestReadMissingFile(t *testing.T) {
	_, _, err := Read(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err == nil {
		t.Fatal("Read of a missing ledger should error")
	}
}

func TestTornAndMalformedLinesSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	// A torn trailing write (crash mid-append) and a hand-mangled line.
	if _, err := l.f.WriteString("not json at all\n{\"schema\":1,\"trunc"); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || skipped != 2 {
		t.Fatalf("got %d records, %d skipped; want 1 record, 2 skipped", len(recs), skipped)
	}
	l.Close()
}

func TestFutureSchemaSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	future := testRecord(1)
	future.Schema = SchemaVersion + 1
	if err := l.Append(future); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || skipped != 1 {
		t.Fatalf("got %d records, %d skipped; want the future-schema record skipped", len(recs), skipped)
	}
	l.Close()
}

func TestRotationPreservesHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := Open(path, Options{MaxBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("expected a rotated generation: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 400 {
		t.Fatalf("active file %d bytes exceeds MaxBytes", st.Size())
	}
	recs, _, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	// One rotated generation is kept, so the tail must be intact and in
	// order even though the oldest records may have aged out.
	if len(recs) == 0 || len(recs) == n {
		t.Fatalf("got %d records; want a rotated subset of %d", len(recs), n)
	}
	last := recs[len(recs)-1]
	if last.Seed != n-1 {
		t.Fatalf("latest record lost: seed %d, want %d", last.Seed, n-1)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seed != recs[i-1].Seed+1 {
			t.Fatalf("append order broken at %d: %d after %d", i, recs[i].Seed, recs[i-1].Seed)
		}
	}
	l.Close()
}

func TestCompactKeepsLastPerSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	// Seed a rotated generation by hand so compaction has one to fold in.
	const n = 12 // spec hashes cycle over 3 keys → 4 records each
	var rotated []byte
	for i := 0; i < n/2; i++ {
		r := testRecord(i)
		r.Schema = SchemaVersion
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		rotated = append(append(rotated, line...), '\n')
	}
	if err := os.WriteFile(path+".1", rotated, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Fatalf("compaction should fold the rotated generation away: %v", err)
	}
	recs, skipped, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != 6 {
		t.Fatalf("got %d records, %d skipped; want 2 per spec hash = 6", len(recs), skipped)
	}
	perKey := map[string]int{}
	for i, r := range recs {
		perKey[r.SpecHash]++
		if i > 0 && recs[i].Seed < recs[i-1].Seed {
			t.Fatalf("compaction broke append order at %d", i)
		}
	}
	for k, c := range perKey {
		if c != 2 {
			t.Fatalf("spec %s kept %d records, want 2", k, c)
		}
	}
	// The ledger stays appendable after compaction.
	if err := l.Append(testRecord(n)); err != nil {
		t.Fatal(err)
	}
	recs, _, err = l.Records()
	if err != nil || len(recs) != 7 {
		t.Fatalf("append after compact: %d records, err %v", len(recs), err)
	}
	l.Close()
}

func TestSpecHashIdentity(t *testing.T) {
	base := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 500, Scale: 1, Seed: 7}}

	// Defaulted and explicit option spellings of the same run hash equal.
	zeroOpts := terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: 500, Seed: 7}}
	if SpecHash(base) != SpecHash(zeroOpts) {
		t.Fatal("defaulted Scale should hash like the explicit default")
	}

	// Parallelism and progress callbacks never change results, so they
	// never change the hash.
	par := base
	par.Parallel = 8
	par.Progress = func(done, total int, cell string) {}
	if SpecHash(base) != SpecHash(par) {
		t.Fatal("Parallel/Progress must not perturb the spec hash")
	}

	// Anything that changes the grid changes the hash.
	for _, mut := range []terp.ExperimentSpec{
		{Name: "fig8", Opts: base.Opts},
		{Name: "table3", Opts: terp.ExpOpts{Ops: 501, Seed: 7}},
		{Name: "table3", Opts: terp.ExpOpts{Ops: 500, Seed: 8}},
		{Name: "table3", Opts: terp.ExpOpts{Ops: 500, Scale: 2, Seed: 7}},
	} {
		if SpecHash(base) == SpecHash(mut) {
			t.Fatalf("spec %+v should hash differently from the base", mut)
		}
	}

	// Stable across calls and round-trippable as a hex key.
	h := SpecHash(base)
	if h != SpecHash(base) || len(h) != 16 {
		t.Fatalf("hash %q not stable 16-hex", h)
	}
}

func TestFromGridDeterministic(t *testing.T) {
	spec := terp.ExperimentSpec{
		Name: "table3",
		Opts: terp.ExpOpts{Ops: 300, Seed: 7},
		Obs:  obs.Config{Metrics: true},
	}
	g, err := terp.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	a := FromGrid("terpbench", spec, g)
	b := FromGrid("terpbench", spec, g)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("FromGrid over the same grid must return equal records")
	}
	if a.Time != "" || a.Build != "" || a.WallMS != 0 || a.JobID != "" {
		t.Fatalf("FromGrid must leave host-dependent fields zero: %+v", a)
	}
	if a.SpecHash == "" || a.Experiment != "table3" || a.Cells == 0 {
		t.Fatalf("identity fields missing: %+v", a)
	}
	if len(a.Metrics) == 0 {
		t.Fatal("a metrics-collecting run should roll up obs counters")
	}
	if len(a.Values) == 0 {
		t.Fatal("table3 should roll up exposure values")
	}
	for _, key := range []string{"expo/tt/tew_us/mean", "expo/tt/tew_us/p99", "expo/tt/ter/mean"} {
		if _, ok := a.Values[key]; !ok {
			t.Fatalf("missing exposure rollup %s (have %v)", key, a.Values)
		}
	}
	// The record survives a JSONL round-trip intact.
	line, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatal("record changed across a JSON round-trip")
	}
}

// TestRollupsCountEachResultOnce: a crash or litmus record carries the
// same crash/* and litmus/* row sums whether or not the run collected
// metrics, although the obs totals of a metrics run already hold some of
// those names.
func TestRollupsCountEachResultOnce(t *testing.T) {
	for _, name := range []string{"crash", "litmus"} {
		var recs []Record
		for _, metrics := range []bool{false, true} {
			spec := terp.ExperimentSpec{
				Name: name,
				Opts: terp.ExpOpts{Ops: 300, Seed: 1},
				Obs:  obs.Config{Metrics: metrics},
			}
			g, err := terp.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, FromGrid("test", spec, g))
		}
		off, on := recs[0].Metrics, recs[1].Metrics
		if len(off) == 0 {
			t.Fatalf("%s: no row sums in a record without metrics", name)
		}
		for key, want := range off {
			if got := on[key]; got != want {
				t.Errorf("%s: %s = %d with metrics, %d without", name, key, got, want)
			}
		}
	}
}

func TestSeriesGroupsBySpecHash(t *testing.T) {
	var recs []Record
	for i := 0; i < 6; i++ {
		r := testRecord(i)
		r.SpecHash = fmt.Sprintf("hash%d", i%2)
		r.WallMS = float64(10 + i)
		recs = append(recs, r)
	}
	series := Series(recs)
	if len(series) == 0 {
		t.Fatal("no series built")
	}
	for _, s := range series {
		if s.Metric == "sim/cycles/app" && len(s.Points) != 3 {
			t.Fatalf("series %s/%s has %d points, want 3", s.SpecHash, s.Metric, len(s.Points))
		}
		for i, p := range s.Points {
			if i > 0 && p.Run <= s.Points[i-1].Run {
				t.Fatalf("series %s/%s runs not increasing", s.SpecHash, s.Metric)
			}
		}
	}
	// Wall-clock series appear under wall/run_ms.
	found := false
	for _, s := range series {
		if s.Metric == "wall/run_ms" {
			found = true
		}
	}
	if !found {
		t.Fatal("missing wall/run_ms series")
	}
}
