package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTerpc builds the command into a temporary directory: the tests
// read exit codes, which `go run` collapses to 1.
func buildTerpc(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "terpc")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// runTerpc compiles testdata/loop.tpl under a deadline and returns the
// exit code, stdout and stderr.
func runTerpc(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, append(args, filepath.Join("testdata", "loop.tpl"))...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("terpc %v did not exit within the deadline", args)
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

// TestGoldenOutput pins terpc's stdout for a two-function PMO loop
// program under the default flags, -merr, -dump and -dot.
func TestGoldenOutput(t *testing.T) {
	bin := buildTerpc(t)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"loop_default", nil},
		{"loop_merr", []string{"-merr"}},
		{"loop_dump", []string{"-dump"}},
		{"loop_dot", []string{"-dot"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runTerpc(t, bin, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if stdout != string(want) {
				t.Errorf("stdout differs from testdata/%s.golden:\n--- got\n%s--- want\n%s", tc.golden, stdout, want)
			}
		})
	}
}

// TestErrorExits: an EW target that params.CheckEW rejects, or a TEW
// target that params.CheckTEW rejects, exits 1 with a message and no
// output, and -O, the optimizer flag terpc no longer has, exits 2 as an
// unknown flag. The bounds themselves compile.
func TestErrorExits(t *testing.T) {
	bin := buildTerpc(t)
	for _, tc := range []struct {
		args    []string
		code    int
		message string
	}{
		{[]string{"-ew", "-5"}, 1, "-ew -5 is below the 2 us minimum"},
		{[]string{"-ew", "1.9"}, 1, "-ew 1.9 is below the 2 us minimum"},
		{[]string{"-ew", "NaN"}, 1, "-ew NaN is not a finite number"},
		{[]string{"-ew", "NaN", "-tew", "-3"}, 1, "-ew NaN is not a finite number"},
		{[]string{"-ew", "Inf"}, 1, "-ew +Inf is not a finite number"},
		{[]string{"-ew", "-Inf"}, 1, "-ew -Inf is not a finite number"},
		{[]string{"-ew", "2e9"}, 1, "-ew 2e+09 is above the 1e+09 us maximum"},
		{[]string{"-ew", "1e300"}, 1, "-ew 1e+300 is above the 1e+09 us maximum"},
		{[]string{"-tew", "-3"}, 1, "-tew -3 is negative"},
		{[]string{"-tew", "NaN"}, 1, "-tew NaN is not a finite number"},
		{[]string{"-ew", "10", "-tew", "20"}, 1, "-tew 20 exceeds the 10 us EW target"},
		{[]string{"-O"}, 2, "flag provided but not defined: -O"},
	} {
		code, stdout, stderr := runTerpc(t, bin, tc.args...)
		if code != tc.code || stdout != "" || !strings.Contains(stderr, tc.message) {
			t.Errorf("terpc %v: exit %d, stdout %q, stderr %q; want exit %d, no output and %q",
				tc.args, code, stdout, stderr, tc.code, tc.message)
		}
	}
	for _, args := range [][]string{{"-ew", "2"}, {"-ew", "2", "-tew", "2"}, {"-ew", "1e9"}} {
		if code, _, stderr := runTerpc(t, bin, args...); code != 0 {
			t.Errorf("terpc %v: exit %d (%s), want 0", args, code, stderr)
		}
	}
}
