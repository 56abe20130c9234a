package interp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nvm"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
	"repro/internal/terpc"
)

func newCtx(t *testing.T, scheme params.Scheme) *core.ThreadCtx {
	t.Helper()
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<32))
	rt := core.NewRuntime(params.NewConfig(scheme, params.DefaultEWMicros), mgr)
	return rt.NewThread(sim.SingleThread())
}

// compileTPL compiles source and runs the TERP insertion pass.
func compileTPL(t *testing.T, src string, insert bool) *Machine {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if insert {
		if _, err := terpc.Insert(prog, terpc.Options{
			EWThreshold:  params.Micros(params.DefaultEWMicros),
			TEWThreshold: params.Micros(params.DefaultTEWMicros),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := newCtx(t, params.TT)
	m, err := New(prog, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmeticEndToEnd(t *testing.T) {
	m := compileTPL(t, `
func main() {
  var s; var i;
  s = 0;
  for (i = 1; i <= 10; i = i + 1) { s = s + i; }
  return s;
}
`, false)
	v, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 55 {
		t.Fatalf("sum = %d", v)
	}
}

func TestFunctionCalls(t *testing.T) {
	m := compileTPL(t, `
func fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
func main() { return fib(12); }
`, false)
	v, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 144 {
		t.Fatalf("fib(12) = %d", v)
	}
}

func TestPMOAccessRequiresInsertion(t *testing.T) {
	// Without the compiler pass, a PMO access has no attach and must
	// fault (segfault: the PMO was never mapped).
	m := compileTPL(t, `
pmo d[16];
func main() { d[0] = 1; return d[0]; }
`, false)
	_, err := m.Run("main")
	if !core.IsFault(err, core.SegFault) {
		t.Fatalf("uninstrumented PMO access: %v", err)
	}
}

func TestInstrumentedPMOProgramRuns(t *testing.T) {
	m := compileTPL(t, `
pmo d[64];
func main() {
  var i;
  for (i = 0; i < 64; i = i + 1) { d[i] = i * 2; }
  var s; s = 0;
  for (i = 0; i < 64; i = i + 1) { s = s + d[i]; }
  return s;
}
`, true)
	v, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 64*63 {
		t.Fatalf("sum = %d, want %d", v, 64*63)
	}
	res := m.ctx.Runtime().Finish(m.ctx.Now())
	if res.Counts.CondOps == 0 {
		t.Fatal("no conditional attach/detach executed")
	}
	if res.Counts.Faults != 0 {
		t.Fatalf("faults = %d", res.Counts.Faults)
	}
}

func TestPersistenceAcrossRuns(t *testing.T) {
	src := `
pmo store[16];
func set(v) { store[3] = v; return 0; }
func get() { return store[3]; }
`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := terpc.Insert(prog, terpc.Options{}); err != nil {
		t.Fatal(err)
	}
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
	rt1 := core.NewRuntime(params.NewConfig(params.TT, 40), mgr)
	m1, err := New(prog, rt1.NewThread(sim.SingleThread()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Run("set", 777); err != nil {
		t.Fatal(err)
	}
	// Second run, same manager (same NVM): the PMO is reopened.
	rt2 := core.NewRuntime(params.NewConfig(params.TT, 40), mgr)
	m2, err := New(prog, rt2.NewThread(sim.SingleThread()))
	if err != nil {
		t.Fatal(err)
	}
	v, err := m2.Run("get")
	if err != nil {
		t.Fatal(err)
	}
	if v != 777 {
		t.Fatalf("persisted value = %d", v)
	}
}

func TestBoundsChecked(t *testing.T) {
	m := compileTPL(t, `
pmo d[4];
func main() { return d[100]; }
`, true)
	_, err := m.Run("main")
	if err == nil || !errors.Is(err, ErrBounds) {
		t.Fatalf("oob access: %v", err)
	}
	m2 := compileTPL(t, `
var v[4];
func main() { v[9] = 1; return 0; }
`, false)
	if _, err := m2.Run("main"); !errors.Is(err, ErrBounds) {
		t.Fatalf("oob dram: %v", err)
	}
}

func TestStepBudget(t *testing.T) {
	m := compileTPL(t, `
func main() {
  var i;
  while (1) { i = i + 1; }
  return i;
}
`, false)
	m.MaxSteps = 10000
	if _, err := m.Run("main"); !errors.Is(err, ErrSteps) {
		t.Fatalf("runaway loop: %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	m := compileTPL(t, `
func r(n) { return r(n + 1); }
func main() { return r(0); }
`, false)
	if _, err := m.Run("main"); !errors.Is(err, ErrDepth) {
		t.Fatalf("infinite recursion: %v", err)
	}
}

func TestUnknownFunction(t *testing.T) {
	m := compileTPL(t, `func main() { return 0; }`, false)
	if _, err := m.Run("nope"); !errors.Is(err, ErrNoFunc) {
		t.Fatalf("missing function: %v", err)
	}
}

// TestDRAMSharedBetweenThreads: a worker machine aliases its first
// machine's volatile arrays (OpenMP-style shared memory), on either
// engine and in either direction.
func TestDRAMSharedBetweenThreads(t *testing.T) {
	src := `
var pad[5];
var shared[8];
func put(i, v) { shared[i] = v; return 0; }
func get(i) { return shared[i]; }
`
	for _, linked := range []bool{false, true} {
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<28))
		rt := core.NewRuntime(params.NewConfig(params.Unprotected, 40), mgr)
		m1 := newMachine(t, prog, rt.NewThread(sim.SingleThread()), linked)
		m2 := m1.Worker(rt.NewThread(sim.SingleThread()))
		if _, err := m1.Run("put", 2, 99); err != nil {
			t.Fatal(err)
		}
		if v, err := m2.Run("get", 2); err != nil || v != 99 {
			t.Fatalf("linked=%v: worker read = %d, %v; want 99", linked, v, err)
		}
		if _, err := m2.Run("put", 7, 41); err != nil {
			t.Fatal(err)
		}
		if v, err := m1.Run("get", 7); err != nil || v != 41 {
			t.Fatalf("linked=%v: first read = %d, %v; want 41", linked, v, err)
		}
	}
}

// TestWorkerKeepsItsOwnThreadState: a worker shares its first machine's
// PMO handles and runs its engine, but counts its own Steps, keeps its
// own frame stack and has its own step budget.
func TestWorkerKeepsItsOwnThreadState(t *testing.T) {
	prog, err := lang.Compile(`
pmo a[4];
pmo b[2];
func inc(x) { return x + 1; }
func main() { var i; var s; for (i = 0; i < 20; i = i + 1) { s = inc(s); } return s; }
`)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ir.Link(prog)
	if err != nil {
		t.Fatal(err)
	}
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<28))
	rt := core.NewRuntime(params.NewConfig(params.Unprotected, 40), mgr)
	first, err := NewLinked(l, rt.NewThread(sim.SingleThread()))
	if err != nil {
		t.Fatal(err)
	}
	first.MaxSteps = 50
	if _, err := first.Run("main"); !errors.Is(err, ErrSteps) {
		t.Fatalf("first machine under a 50-step budget: %v, want ErrSteps", err)
	}
	spent, frames := first.Steps, len(first.stack)
	w := first.Worker(rt.NewThread(sim.SingleThread()))
	if w.Steps != 0 || len(w.stack) != 0 || w.linked != l {
		t.Fatalf("fresh worker: %d steps, %d frames, linked form shared %v; want 0, 0, true",
			w.Steps, len(w.stack), w.linked == l)
	}
	if len(w.PMOs()) != 2 || w.PMOs()[0] != first.PMOs()[0] || w.PMOs()[1] != first.PMOs()[1] {
		t.Fatal("worker does not share the first machine's PMO handles in declaration order")
	}
	v, err := w.Run("main")
	if err != nil || v != 20 {
		t.Fatalf("worker run = %d, %v; want 20 within its own budget", v, err)
	}
	if first.Steps != spent || len(first.stack) != frames {
		t.Fatalf("worker run moved the first machine's state: steps %d -> %d, frames %d -> %d",
			spent, first.Steps, frames, len(first.stack))
	}
	if w.Steps <= 50 || len(w.stack) == 0 {
		t.Fatalf("worker: %d steps, %d frames; want > 50 and > 0", w.Steps, len(w.stack))
	}
}

// newMachine makes a block-interpreter or linked machine for prog.
func newMachine(t *testing.T, prog *ir.Program, ctx *core.ThreadCtx, linked bool) *Machine {
	t.Helper()
	if !linked {
		m, err := New(prog, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	l, err := ir.Link(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewLinked(l, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTimeAdvancesWithWork(t *testing.T) {
	m := compileTPL(t, `
func main() {
  compute(100000);
  return 0;
}
`, false)
	if _, err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	if m.ctx.Now() < 100000 {
		t.Fatalf("clock = %d", m.ctx.Now())
	}
}

func TestErrorMentionsFunctionAndBlock(t *testing.T) {
	m := compileTPL(t, `
pmo d[4];
func main() { return d[100]; }
`, true)
	_, err := m.Run("main")
	if err == nil || !strings.Contains(err.Error(), "main") {
		t.Fatalf("error lacks location: %v", err)
	}
}

func TestBreakContinueSemantics(t *testing.T) {
	m := compileTPL(t, `
func main() {
  var i; var s;
  s = 0;
  for (i = 0; i < 100; i = i + 1) {
    if (i == 10) { break; }
    if (i % 2 == 0) { continue; }
    s = s + i;
  }
  return s;
}
`, false)
	v, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 3 + 5 + 7 + 9 = 25.
	if v != 25 {
		t.Fatalf("sum = %d, want 25", v)
	}
}

func TestContinueRunsPostStatement(t *testing.T) {
	// If continue skipped the post statement the loop would never end.
	m := compileTPL(t, `
func main() {
  var i; var n;
  for (i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) { continue; }
    n = n + 1;
  }
  return n;
}
`, false)
	v, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("n = %d, want 5", v)
	}
}

func TestBreakWithPMOAccessInstrumented(t *testing.T) {
	// A loop that exits early via break while holding a window: the
	// insertion must still keep every path balanced.
	m := compileTPL(t, `
pmo d[64];
func main() {
  var i; var s;
  for (i = 0; i < 64; i = i + 1) {
    d[i] = i;
    if (d[i] == 40) { break; }
    s = s + d[i];
  }
  return s;
}
`, true)
	v, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 40*39/2 {
		t.Fatalf("sum = %d, want %d", v, 40*39/2)
	}
	res := m.ctx.Runtime().Finish(m.ctx.Now())
	if res.Counts.Faults != 0 {
		t.Fatalf("faults = %d", res.Counts.Faults)
	}
}
