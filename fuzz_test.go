package terp

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/params"
)

// FuzzParseSpec checks the spec half of the wire boundary: ParseSpec
// never panics; an accepted spec survives JSON and a second ParseSpec
// with its Canonical form intact; a document of any version other than
// absent or WireVersion is rejected; and no accepted spec carries a sweep
// point below params.MinEWMicros.
func FuzzParseSpec(f *testing.F) {
	for _, doc := range []string{
		`{"version": 99, "name": "table3"}`,
		`{"name": "tableX"}`,
		`{"name": "table3", "opz": {"ops": 10}}`,
		`{"name": "table3", "bogus": 1}`,
		`{"name":"ewsweep","opts":{"ops":50},"ewMicros":[1]}`,
		`{"name":"ewsweep","opts":{"ops":50},"ewMicros":[2]}`,
		`{"name":"table3","opts":{"ops":2000,"scale":0,"seed":1},"obs":{"trace":true,"metrics":true}}`,
	} {
		f.Add([]byte(doc))
	}
	for _, name := range Experiments() {
		buf, err := ExperimentSpec{Name: name, Opts: ExpOpts{Ops: 500}}.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	buf, err := ExperimentSpec{
		Name: "ewsweep", Opts: ExpOpts{Ops: 500, Scale: 2, Seed: 7}, Parallel: 3,
		EWMicros: []float64{40, 80}, Obs: obs.Config{Trace: true, Metrics: true, TraceCap: 64},
	}.JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		if spec.Version != 0 && spec.Version != WireVersion {
			t.Fatalf("accepted spec version %d", spec.Version)
		}
		for _, ew := range spec.EWMicros {
			if math.IsNaN(ew) || ew < params.MinEWMicros {
				t.Fatalf("accepted sweep point %v below the %v us floor", ew, params.MinEWMicros)
			}
		}
		buf, err := spec.JSON()
		if err != nil {
			t.Fatalf("JSON of an accepted spec: %v", err)
		}
		again, err := ParseSpec(buf)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", buf, err)
		}
		if !reflect.DeepEqual(again.Canonical(), spec.Canonical()) {
			t.Fatalf("canonical form changed across JSON:\n%+v\n%+v", spec.Canonical(), again.Canonical())
		}
		for _, v := range []int{-1, WireVersion + 1, WireVersion + 1 + len(data)} {
			spec.Version = v
			buf, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseSpec(buf); err == nil {
				t.Fatalf("accepted a version %d spec: %s", v, buf)
			}
		}
	})
}

// FuzzParseGrids checks the grid half of the wire boundary: ParseGrids
// never panics; an accepted document, marshalled and parsed again,
// marshals to identical bytes; and a grid of another version is
// rejected.
func FuzzParseGrids(f *testing.F) {
	bench, err := os.ReadFile("BENCH_obs.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bench)
	f.Add([]byte(`[{"name":"exp","obs":{"cells":[],"totals":{}}}]`))
	f.Add([]byte(`[{"version":42,"name":"table3"}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		grids, err := ParseGrids(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(grids)
		if err != nil {
			t.Fatalf("marshalling accepted grids: %v", err)
		}
		again, err := ParseGrids(first)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", first, err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("grids changed across a round trip:\n%s\n%s", first, second)
		}
		if len(again) == 0 {
			return
		}
		again[len(again)-1].Version = WireVersion + 1
		doc, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseGrids(doc); err == nil {
			t.Fatalf("accepted a grid of version %d", WireVersion+1)
		}
	})
}
