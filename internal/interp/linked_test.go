package interp

import (
	"math/rand"
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

// TestLinkedFramePoolReuse: nested and repeated calls must reuse pooled
// register files without leaking state between invocations (frames are
// zeroed on reuse, exactly like a fresh allocation).
func TestLinkedFramePoolReuse(t *testing.T) {
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
		t.Fatalf("frame pool diverged\nblock:  %+v\nlinked: %+v", block, linked)
	}
}
