package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestRejectsBadGateFlags builds terpreport and checks that gate
// parameters no gate can use exit 2 (usage error) before any work: a
// negative tolerance would turn an identical metric into "improved".
func TestRejectsBadGateFlags(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "terpreport")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	ledgerPath := filepath.Join(dir, "runs.jsonl")
	if err := os.WriteFile(ledgerPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	exitCode := func(args ...string) int {
		t.Helper()
		err := exec.Command(bin, append([]string{"-trend", "-ledger", ledgerPath}, args...)...).Run()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0
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
