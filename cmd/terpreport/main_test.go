package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	terp "repro"
)

// buildTerpreport builds the command into a temporary directory: the
// gates read exit codes, which `go run` collapses to 1.
func buildTerpreport(t *testing.T) (bin, dir string) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "terpreport")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin, dir
}

// runTerpreport runs the binary and returns its exit code and stderr.
func runTerpreport(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestRejectsBadGateFlags builds terpreport and checks that gate
// parameters no gate can use exit 2 (usage error) before any work: a
// negative tolerance would turn an identical metric into "improved".
func TestRejectsBadGateFlags(t *testing.T) {
	bin, dir := buildTerpreport(t)
	ledgerPath := filepath.Join(dir, "runs.jsonl")
	if err := os.WriteFile(ledgerPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	exitCode := func(args ...string) int {
		t.Helper()
		code, _ := runTerpreport(t, bin, append([]string{"-trend", "-ledger", ledgerPath}, args...)...)
		return code
	}
	if code := exitCode(); code != 0 {
		t.Fatalf("valid flags over an empty ledger exit %d, want 0", code)
	}
	for _, bad := range [][]string{
		{"-tolerance", "-1"},
		{"-tolerance", "NaN"},
		{"-tolerance", "+Inf"},
		{"-trend-window", "0"},
		{"-trend-window", "-2"},
		{"-trend-min", "0"},
	} {
		if code := exitCode(bad...); code != 2 {
			t.Errorf("%v exits %d, want 2", bad, code)
		}
	}
}

// TestBaselineWireVersionChecked: -baseline reads through the same
// version-checked parser as -in, so a baseline from another wire
// version is an operational error (exit 1, naming the version) rather
// than a silent "pass".
func TestBaselineWireVersionChecked(t *testing.T) {
	bin, dir := buildTerpreport(t)
	doc := func(version int) string {
		path := filepath.Join(dir, fmt.Sprintf("grids_v%d.json", version))
		grids := fmt.Sprintf(`[{"version":%d,"name":"table3","opts":{"ops":1,"scale":1,"seed":1},
"obs":{"cells":[{"cell":"table3/echo/MM(40us)","metrics":{"counters":{"sim/cycles/base":1000}}}],
"totals":{"counters":{"sim/cycles/base":1000}}}}]`, version)
		if err := os.WriteFile(path, []byte(grids), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	current, future := doc(terp.WireVersion), doc(42)

	code, stderr := runTerpreport(t, bin, "-in", current, "-baseline", future)
	if code != 1 || !strings.Contains(stderr, "version 42") {
		t.Fatalf("version-42 baseline: exit %d, stderr %q; want exit 1 naming the version", code, stderr)
	}
	if code, stderr := runTerpreport(t, bin, "-in", current, "-baseline", current); code != 0 {
		t.Fatalf("same-version baseline: exit %d, stderr %q; want 0", code, stderr)
	}
}

// TestRequiresSavedInput: terpreport runs no experiment, so a call with
// nothing to read, or a ledger with no mode that reads it, is a usage
// error (exit 2) that points at terpbench.
func TestRequiresSavedInput(t *testing.T) {
	bin, dir := buildTerpreport(t)
	ledgerPath := filepath.Join(dir, "runs.jsonl")
	for _, args := range [][]string{
		nil,
		{"-html", filepath.Join(dir, "run.html")},
		{"-ledger", ledgerPath},
	} {
		code, stderr := runTerpreport(t, bin, args...)
		if code != 2 || !strings.Contains(stderr, "terpbench") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming terpbench", args, code, stderr)
		}
	}
}
