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

// buildTerpsim builds the command into a temporary directory: the tests
// read exit codes, which `go run` collapses to 1.
func buildTerpsim(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "terpsim")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// runTerpsim runs the binary under a deadline and returns its exit code,
// stdout and stderr. A run the deadline kills fails the test.
func runTerpsim(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("terpsim %v did not exit within the deadline", args)
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

// TestGoldenOutput pins terpsim's stdout for a traced WHISPER run, a
// traced 4-thread SPEC run and an unprotected SPEC run.
func TestGoldenOutput(t *testing.T) {
	bin := buildTerpsim(t)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"whisper_hashmap_trace", []string{"-suite", "whisper", "-workload", "hashmap", "-ops", "2000", "-trace", "20"}},
		{"spec_lbm_tm4_trace", []string{"-suite", "spec", "-workload", "lbm", "-scheme", "TM", "-threads", "4", "-trace", "15"}},
		{"spec_mcf_base", []string{"-suite", "spec", "-workload", "mcf", "-scheme", "base"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runTerpsim(t, bin, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if stdout != string(want) {
				t.Errorf("stdout differs from testdata/%s.golden:\n--- got\n%s--- want\n%s", tc.golden, stdout, want)
			}
		})
	}
}

// TestErrorExits: an unknown suite, an EW target below the 2 us floor,
// above the 1e9 us ceiling or not a finite number, -threads below 1 and a
// negative -ops or -scale each exit 1 with a message and no output. A
// 1 us EW that got past the check would run forever in an expired
// window's sweep loop, hence the deadline on every run.
func TestErrorExits(t *testing.T) {
	bin := buildTerpsim(t)
	for _, tc := range []struct {
		args    []string
		message string
	}{
		{[]string{"-suite", "bogus"}, `unknown suite "bogus"`},
		{[]string{"-suite", "whisper", "-workload", "echo", "-scheme", "TT", "-ew", "1", "-ops", "50"}, "below the 2 us minimum"},
		{[]string{"-suite", "whisper", "-scheme", "MM", "-ew", "NaN", "-ops", "10"}, "-ew NaN is not a finite number"},
		{[]string{"-suite", "whisper", "-scheme", "MM", "-ew", "Inf", "-ops", "10"}, "-ew +Inf is not a finite number"},
		{[]string{"-suite", "whisper", "-scheme", "TT", "-ew", "1e300", "-ops", "10"}, "-ew 1e+300 is above the 1e+09 us maximum"},
		{[]string{"-suite", "spec", "-workload", "lbm", "-threads", "-1"}, "-threads -1 is below 1"},
		{[]string{"-suite", "whisper", "-workload", "ctree", "-ops", "-1"}, "-ops -1 is negative"},
		{[]string{"-suite", "spec", "-workload", "lbm", "-scale", "-2"}, "-scale -2 is negative"},
	} {
		code, stdout, stderr := runTerpsim(t, bin, tc.args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.message) {
			t.Errorf("terpsim %v: exit %d, stdout %q, stderr %q; want exit 1, no output and %q",
				tc.args, code, stdout, stderr, tc.message)
		}
	}
}
