package interp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
	"repro/internal/terpc"
)

// runOutcome captures everything observable about one interpretation run
// that the linked engine must reproduce exactly.
type runOutcome struct {
	value    int64
	cycles   uint64
	costs    sim.Accounts
	steps    uint64
	counters core.Counters
}

// runEngine compiles src (instrumenting unless the scheme is Unprotected),
// runs main under either the block interpreter or the linked engine, and
// returns the outcome.
func runEngine(t *testing.T, src string, scheme params.Scheme, useLinked bool) runOutcome {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	if scheme != params.Unprotected {
		if _, err := terpc.Insert(prog, terpc.Options{
			EWThreshold:  params.Micros(params.DefaultEWMicros),
			TEWThreshold: params.Micros(params.DefaultTEWMicros),
		}); err != nil {
			t.Fatalf("insert: %v\n%s", err, src)
		}
	}
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<28))
	rt := core.NewRuntime(params.NewConfig(scheme, params.DefaultEWMicros), mgr)
	ctx := rt.NewThread(sim.SingleThread())
	var m *Machine
	if useLinked {
		l, err := ir.Link(prog)
		if err != nil {
			t.Fatalf("link: %v\n%s", err, src)
		}
		m, err = NewLinked(l, ctx)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		m, err = New(prog, ctx)
		if err != nil {
			t.Fatal(err)
		}
	}
	if scheme == params.Unprotected {
		for _, p := range m.PMOs() {
			if err := ctx.Attach(p, paging.ReadWrite); err != nil {
				t.Fatal(err)
			}
		}
	}
	v, err := m.Run("main")
	if err != nil {
		t.Fatalf("run (%v, linked=%v): %v\n%s", scheme, useLinked, err, src)
	}
	res := rt.Finish(ctx.Now())
	return runOutcome{
		value:    v,
		cycles:   ctx.Now(),
		costs:    ctx.Thread().Costs,
		steps:    m.Steps,
		counters: res.Counts,
	}
}

// TestLinkedMatchesLegacy: on random programs under every scheme, the
// linked engine must reproduce the block interpreter (the "legacy" of
// these tests' names) bit for bit — same value, same simulated clock,
// same per-account cycle tallies, same step count, same protection
// counters. This is the determinism contract of the hot-path engine, and
// genKernel's programs make it catch link errors on its own.
func TestLinkedMatchesLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	schemes := []params.Scheme{
		params.Unprotected, params.MM, params.TM, params.TT, params.PlusCond,
	}
	for trial := 0; trial < 12; trial++ {
		src := genKernel(r)
		for _, scheme := range schemes {
			block := runEngine(t, src, scheme, false)
			linked := runEngine(t, src, scheme, true)
			if block != linked {
				t.Fatalf("trial %d scheme %v: linked diverged\nblock:  %+v\nlinked: %+v\n%s",
					trial, scheme, block, linked, src)
			}
		}
	}
}

// TestLinkedErrorsMatchLegacy: runtime failures must carry the same error
// text in both engines (bounds violations, step exhaustion), so tooling
// that matches on messages behaves identically.
func TestLinkedErrorsMatchLegacy(t *testing.T) {
	runErr := func(src string, maxSteps uint64, useLinked bool) string {
		t.Helper()
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<28))
		rt := core.NewRuntime(params.NewConfig(params.Unprotected, params.DefaultEWMicros), mgr)
		ctx := rt.NewThread(sim.SingleThread())
		var m *Machine
		if useLinked {
			l, lerr := ir.Link(prog)
			if lerr != nil {
				t.Fatal(lerr)
			}
			m, err = NewLinked(l, ctx)
		} else {
			m, err = New(prog, ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		if maxSteps != 0 {
			m.MaxSteps = maxSteps
		}
		for _, p := range m.PMOs() {
			if err := ctx.Attach(p, paging.ReadWrite); err != nil {
				t.Fatal(err)
			}
		}
		_, err = m.Run("main")
		if err == nil {
			t.Fatalf("expected error (linked=%v)\n%s", useLinked, src)
		}
		return err.Error()
	}

	cases := []struct {
		name     string
		src      string
		maxSteps uint64
	}{
		{"bounds", "pmo a[4];\nfunc main() { var i; i = 9; a[i] = 1; return 0; }\n", 0},
		{"negative index", "pmo a[4];\nfunc main() { var i; i = 0 - 1; return a[i]; }\n", 0},
		{"steps", "pmo a[4];\nfunc main() { var i; for (i = 0; i < 1000; i = i + 1) { a[0] = i; } return 0; }\n", 50},
	}
	for _, tc := range cases {
		block := runErr(tc.src, tc.maxSteps, false)
		linked := runErr(tc.src, tc.maxSteps, true)
		if block != linked {
			t.Errorf("%s: error text diverged\nblock:  %s\nlinked: %s", tc.name, block, linked)
		}
	}
}

// TestLinkedFrameStackReuse: nested and repeated calls must reuse the
// register files of the frame stack without leaking state between
// invocations (frames are zeroed on reuse, exactly like a fresh
// allocation).
func TestLinkedFrameStackReuse(t *testing.T) {
	src := `pmo a[8];
func leaf(x) { var tmp; tmp = x * 2; return tmp; }
func mid(x) { var acc; acc = leaf(x) + leaf(x + 1); return acc; }
func main() {
  var i; var acc;
  acc = 0;
  for (i = 0; i < 16; i = i + 1) { acc = acc + mid(i); }
  a[0] = acc;
  return acc;
}
`
	block := runEngine(t, src, params.Unprotected, false)
	linked := runEngine(t, src, params.Unprotected, true)
	if block != linked {
		t.Fatalf("frame stack diverged\nblock:  %+v\nlinked: %+v", block, linked)
	}
}

// sharedSrc is a program whose threads increment one shared PMO word and
// one shared volatile word with no synchronization, and branch on what
// they read. Where a switch falls between an access's charge and its read
// or write decides which increments are lost, what each thread reads and
// so how long it runs.
const sharedSrc = `pmo cnt[1];
var hits[1];
func bump() { var v; v = cnt[0]; cnt[0] = v + 1; return v; }
func worker(tid, nthreads) {
  var i; var v; var w; var odd;
  for (i = 0; i < 300; i = i + 1) {
    v = bump();
    if (v % 3 == tid % 3) { compute(90); } else { compute(13); }
    w = hits[0];
    compute(150);
    hits[0] = w + 1;
    if (w % 2 == 0) { odd = odd + 1; compute(250); }
    if (i % 97 == tid) { compute(5000); }
  }
  return odd * 100000 + v;
}
`

// sharedRun is everything a run of sharedSrc shows: each thread's return
// value, Steps, clock and costs, the shared words' final values and the
// runtime's counters.
type sharedRun struct {
	values []int64
	steps  []uint64
	clocks []uint64
	costs  []sim.Accounts
	pm     uint64
	dram   int64
	counts core.Counters
}

// runShared runs sharedSrc on four threads of a machine under scheme: on
// the linked engine with stepper threads, or on the block interpreter
// with closure bodies.
func runShared(t *testing.T, scheme params.Scheme, linked bool) sharedRun {
	t.Helper()
	prog, err := lang.Compile(sharedSrc)
	if err != nil {
		t.Fatal(err)
	}
	if scheme != params.Unprotected {
		if _, err := terpc.Insert(prog, terpc.Options{
			EWThreshold:  params.Micros(params.DefaultEWMicros),
			TEWThreshold: params.Micros(params.DefaultTEWMicros),
		}); err != nil {
			t.Fatal(err)
		}
	}
	rt := core.NewRuntime(params.NewConfig(scheme, params.DefaultEWMicros), pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<28)))
	machine := sim.NewMachine(1, sim.DefaultQuantum)
	rt.AttachMachine(machine)
	ms := make([]*Machine, 4)
	for i := range ms {
		step := func() { ms[i].Step() }
		var th *sim.Thread
		if linked {
			th = machine.AddStepper(step)
		} else {
			th = machine.AddThread(func(*sim.Thread) { step() })
		}
		ctx := rt.NewThread(th)
		if i > 0 {
			ms[i] = ms[0].Worker(ctx)
		} else if ms[0] = newMachine(t, prog, ctx, linked); scheme == params.Unprotected {
			if err := ctx.Attach(ms[0].PMOs()[0], paging.ReadWrite); err != nil {
				t.Fatal(err)
			}
		}
		if err := ms[i].Start("worker", int64(i), int64(len(ms))); err != nil {
			t.Fatal(err)
		}
	}
	end := machine.Run()
	var r sharedRun
	for _, m := range ms {
		v, err := m.Result()
		if err != nil {
			t.Fatalf("%v, linked %v: %v", scheme, linked, err)
		}
		r.values = append(r.values, v)
		r.steps = append(r.steps, m.Steps)
		r.clocks = append(r.clocks, m.ctx.Now())
		r.costs = append(r.costs, m.ctx.Thread().Costs)
	}
	if r.pm, err = ms[0].PMOs()[0].Read8(pmo.DataStart); err != nil {
		t.Fatal(err)
	}
	r.dram = ms[0].dram[0][0]
	r.counts = rt.Finish(end).Counts
	return r
}

// TestSteppedEffectOrder: a stepper switches where a closure body does.
// Four threads race on shared words, so a PM or DRAM word read or written
// before the switch instead of after it changes what the threads read and
// how long they run. Under three schemes, the Basic one with attaches that
// block and wait off the stepper's stack, the stepped linked engine
// must match the block interpreter on closure bodies in every thread's
// return value, Steps, clock and costs, in the shared words and in the
// counters.
func TestSteppedEffectOrder(t *testing.T) {
	for _, scheme := range []params.Scheme{params.Unprotected, params.TT, params.BasicSem} {
		block := runShared(t, scheme, false)
		linked := runShared(t, scheme, true)
		if !reflect.DeepEqual(block, linked) {
			t.Errorf("%v: stepped linked engine diverged\nblock:  %+v\nlinked: %+v", scheme, block, linked)
		}
		if scheme == params.BasicSem {
			// Basic's attaches serialize the threads instead.
			if block.counts.Blocks == 0 {
				t.Errorf("Basic: no attach blocked")
			}
		} else if block.pm >= 4*300 || block.dram >= 4*300 {
			t.Errorf("%v: an increment of each word must be lost (PM %d, DRAM %d): the threads did not race", scheme, block.pm, block.dram)
		}
	}
}
