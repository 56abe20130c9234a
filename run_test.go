package terp

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestRunParallelGridIsByteIdenticalToSerial is the engine's determinism
// contract: the structured Grid of a parallel run marshals to exactly
// the bytes of a serial run, per experiment and per seed.
func TestRunParallelGridIsByteIdenticalToSerial(t *testing.T) {
	for _, name := range []string{"table3", "table4"} {
		for _, seed := range []int64{1, 7} {
			opts := ExpOpts{Ops: 300, Scale: 1, Seed: seed}
			serial, err := Run(ExperimentSpec{Name: name, Opts: opts, Parallel: 1})
			if err != nil {
				t.Fatalf("%s seed %d serial: %v", name, seed, err)
			}
			par, err := Run(ExperimentSpec{Name: name, Opts: opts, Parallel: 4})
			if err != nil {
				t.Fatalf("%s seed %d parallel: %v", name, seed, err)
			}
			sj, err := serial.JSON()
			if err != nil {
				t.Fatal(err)
			}
			pj, err := par.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sj, pj) {
				t.Fatalf("%s seed %d: parallel grid differs from serial:\n--- serial\n%s\n--- parallel\n%s",
					name, seed, sj, pj)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	_, err := Run(ExperimentSpec{Name: "table99"})
	if err == nil || !strings.Contains(err.Error(), "table99") {
		t.Fatalf("err = %v", err)
	}
}

func TestExperimentsListsEveryRegisteredName(t *testing.T) {
	names := Experiments()
	want := []string{"fig8", "table3", "fig9", "table4", "fig10", "fig11",
		"table5", "semantics", "ewsweep", "table6", "crash", "litmus"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestRunProgressCoversEveryCell(t *testing.T) {
	var mu sync.Mutex
	var last, total int
	calls := 0
	_, err := Run(ExperimentSpec{
		Name: "table3",
		Opts: ExpOpts{Ops: 200},
		Progress: func(done, tot int, cell string) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			last, total = done, tot
			if cell == "" {
				t.Error("empty cell label")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// table3 = 6 workloads x 2 schemes.
	if calls != 12 || last != 12 || total != 12 {
		t.Fatalf("calls/last/total = %d/%d/%d, want 12/12/12", calls, last, total)
	}
}

// TestRunGridFormatMatchesWrapperFormat: Grid.Format renders exactly
// what the experiment's formatter makes of the payload of a second,
// independent run.
func TestRunGridFormatMatchesWrapperFormat(t *testing.T) {
	o := ExpOpts{Ops: 200}
	g := runGrid(t, "table3", o)
	rows := runGrid(t, "table3", o).Whisper
	if g.Format() != FormatTable3(rows) {
		t.Fatal("Grid.Format differs from FormatTable3's rendering")
	}
}

// --- Options.Validate -------------------------------------------------------

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{EWMicros: -1},
		{EWMicros: nan()},
		{TEWMicros: -2},
		{TEWMicros: nan()},
		{TEWMicros: 80},                           // above the 40us EW default
		{EWMicros: 10, TEWMicros: 20},             // TEW above explicit EW
		{NVMBytes: 1 << 10},                       // undersized device
		{Scheme: TT, EWMicros: 1.9, TEWMicros: 1}, // EW shorter than a randomization stall
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad[%d] (%+v): Validate accepted", i, o)
		}
		if _, err := NewSystem(o); err == nil {
			t.Errorf("bad[%d] (%+v): NewSystem accepted", i, o)
		}
	}
	good := []Options{
		{},
		{Scheme: MM},
		{EWMicros: 80, TEWMicros: 4},
		{EWMicros: 2, TEWMicros: 1}, // the shortest accepted EW
		{NVMBytes: MinNVMBytes},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestParallelQuantumOptionAndJoinedErrors(t *testing.T) {
	// A custom quantum is honored (the run still completes and advances
	// time deterministically).
	sys, err := NewSystem(Options{Scheme: TT, QuantumCycles: 50})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sys.Create("q", 1<<20)
	o, _ := p.Alloc(8)
	end, err := sys.Parallel(2, func(tid int, ctx *core.ThreadCtx) error {
		if err := ctx.Attach(p, ReadWrite); err != nil {
			return err
		}
		if err := ctx.Store(o, uint64(tid)); err != nil {
			return err
		}
		return ctx.Detach(p)
	})
	if err != nil || end == 0 {
		t.Fatalf("end=%d err=%v", end, err)
	}

	// Every failing thread is reported, not just the first.
	sys2, _ := NewSystem(Options{Scheme: TT})
	_, err = sys2.Parallel(3, func(tid int, ctx *core.ThreadCtx) error {
		if tid == 0 {
			return nil
		}
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("want error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "thread 1") || !strings.Contains(msg, "thread 2") {
		t.Fatalf("joined error lost a thread: %v", msg)
	}
}

// TestCrashMatrixRecoversAndIsDeterministic runs the crash-consistency
// experiment at test scale and checks its contract: every cell injects
// points, every image recovers, and the parallel grid marshals to
// exactly the serial bytes.
func TestCrashMatrixRecoversAndIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("whisper setups are heavy; covered by the crash package's short tests")
	}
	opts := ExpOpts{Ops: 300, Seed: 3} // crashOps clamps this to its floor
	serial, err := Run(ExperimentSpec{Name: "crash", Opts: opts, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(ExperimentSpec{Name: "crash", Opts: opts, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := serial.JSON()
	pj, _ := par.JSON()
	if !bytes.Equal(sj, pj) {
		t.Fatalf("parallel crash grid differs from serial:\n--- serial\n%s\n--- parallel\n%s", sj, pj)
	}
	if len(serial.Crash) != 14 { // (txnpairs + 6 WHISPER) x 2 policies
		t.Fatalf("rows = %d, want 14", len(serial.Crash))
	}
	for _, r := range serial.Crash {
		if r.Points == 0 {
			t.Errorf("%s/%s: no crash points injected", r.Prog, r.Policy)
		}
		if r.Failures != 0 {
			t.Errorf("%s/%s: %d of %d images failed recovery", r.Prog, r.Policy, r.Failures, r.Points)
		}
	}
	if !strings.Contains(serial.Format(), "Crash matrix") {
		t.Fatal("Format did not render the crash table")
	}
}

// TestLitmusMatrixIsCleanAndDeterministic runs the litmus experiment at
// test scale and checks its contract: exhaustive enumeration finds
// states in every suite, the oracle diff reports zero violations, and
// the parallel grid marshals to exactly the serial bytes.
func TestLitmusMatrixIsCleanAndDeterministic(t *testing.T) {
	opts := ExpOpts{Ops: 300, Seed: 5} // litmusProgs clamps this to its floor
	serial, err := Run(ExperimentSpec{Name: "litmus", Opts: opts, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(ExperimentSpec{Name: "litmus", Opts: opts, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := serial.JSON()
	pj, _ := par.JSON()
	if !bytes.Equal(sj, pj) {
		t.Fatalf("parallel litmus grid differs from serial:\n--- serial\n%s\n--- parallel\n%s", sj, pj)
	}
	if len(serial.Litmus) != 1+litmusGenCells {
		t.Fatalf("rows = %d, want %d", len(serial.Litmus), 1+litmusGenCells)
	}
	for _, r := range serial.Litmus {
		if r.Programs == 0 || r.ModelStates == 0 {
			t.Errorf("%s: empty suite (%d programs, %d states)", r.Suite, r.Programs, r.ModelStates)
		}
		if r.ModelOnly != 0 {
			t.Errorf("%s: %d spec-forbidden model states", r.Suite, r.ModelOnly)
		}
		if r.Violations != 0 {
			t.Errorf("%s: %d non-allowlisted divergences", r.Suite, r.Violations)
		}
	}
	if !strings.Contains(serial.Format(), "Litmus matrix") {
		t.Fatal("Format did not render the litmus table")
	}
}
