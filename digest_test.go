package terp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"repro/internal/obs"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/grid_digests.json")

// digestFile holds one SHA-256 of Grid.JSON() per experiment, plus one of
// fig9's Chrome trace under "fig9/trace", keyed by GOARCH because Go may
// fuse floating-point multiply-adds on some architectures, which can move
// the low bits of a derived float.
const digestFile = "testdata/grid_digests.json"

// digestOpts is the small fixed spec every digest is taken at.
var digestOpts = ExpOpts{Ops: 600, Seed: 7}

// TestGridDigests pins every experiment's grid bytes (metrics on) against
// the committed digests, so any change that moves a simulated result —
// an engine rewrite, a scheduler change, a cost-model edit — fails here
// unless the digests are deliberately regenerated with -update. fig9's
// Chrome trace is pinned too: grids carry no event timestamps, so a change
// that only moves where an attach or window begins shows up there alone.
func TestGridDigests(t *testing.T) {
	got := make(map[string]string)
	for _, name := range Experiments() {
		g, err := Run(ExperimentSpec{Name: name, Opts: digestOpts, Obs: obs.Config{Metrics: true}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf, err := g.JSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf)
		got[name] = hex.EncodeToString(sum[:])
	}
	g, err := Run(ExperimentSpec{Name: "fig9", Opts: digestOpts, Obs: obs.Config{Trace: true, Metrics: true}})
	if err != nil {
		t.Fatalf("fig9 traced: %v", err)
	}
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, g.Traces()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(trace.Bytes())
	got["fig9/trace"] = hex.EncodeToString(sum[:])

	all := make(map[string]map[string]string)
	raw, err := os.ReadFile(digestFile)
	if err == nil {
		err = json.Unmarshal(raw, &all)
	}
	if *updateDigests {
		all[runtime.GOARCH] = got
		out, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", digestFile, err)
	}
	want, ok := all[runtime.GOARCH]
	if !ok {
		t.Skipf("%s has no digests for GOARCH=%s; record them with -update", digestFile, runtime.GOARCH)
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s digest %s, want %s: a simulated result moved; rerun with -update only if that is intended",
				name, sum, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s has a digest but is no longer an experiment", name)
		}
	}
}
