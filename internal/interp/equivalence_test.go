package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
	"repro/internal/terpc"
)

// genKernel emits a random but deterministic TPL program whose main
// returns a value derived from all its array state, so any protection-
// induced corruption or divergence shows up in the result. It also
// exposes link errors on its own: its arrays differ in size, so an
// access bound to the wrong array runs past that array's end, and its
// helpers use their arguments asymmetrically, so arguments bound in the
// wrong order change the result.
func genKernel(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("pmo a[128];\npmo b[96];\nvar d[40];\n\n")
	b.WriteString("func mix(x, y) { return x * 3 - y; }\n")
	b.WriteString("func fold(i, k, v) { return (v * k + i) % 1009; }\n\n")
	b.WriteString("func main() {\n  var i; var acc;\n")
	seed := r.Intn(1000)
	fmt.Fprintf(&b, "  for (i = 0; i < 128; i = i + 1) { a[i] = (i * %d) %% 251; }\n", 17+seed)
	fmt.Fprintf(&b, "  for (i = 0; i < 40; i = i + 1) { d[i] = mix(i, %d); }\n", r.Intn(50))
	stmts := 2 + r.Intn(5)
	for s := 0; s < stmts; s++ {
		switch r.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "  for (i = 0; i < 96; i = i + 1) { b[i] = a[i] * %d + %d; }\n",
				1+r.Intn(7), r.Intn(100))
		case 1:
			fmt.Fprintf(&b, "  for (i = 1; i < 128; i = i + 1) { a[i] = a[i] + a[i - 1]; }\n")
		case 2:
			fmt.Fprintf(&b, "  for (i = 0; i < 128; i = i + 1) { if (a[i] %% %d == 0) { b[i %% 96] = b[i %% 96] + 1; } }\n",
				2+r.Intn(6))
		case 3:
			fmt.Fprintf(&b, "  for (i = 0; i < 96; i = i + 1) { b[i] = mix(b[i], a[i + 32]); }\n")
		case 4:
			fmt.Fprintf(&b, "  for (i = 0; i < 128; i = i + 1) { a[i] = fold(i, d[i %% 40], a[i]); }\n")
		default:
			fmt.Fprintf(&b, "  compute(%d);\n", 100+r.Intn(20000))
		}
	}
	b.WriteString("  acc = 0;\n  for (i = 0; i < 128; i = i + 1) { acc = acc + a[i] * 3; }\n")
	b.WriteString("  for (i = 0; i < 96; i = i + 1) { acc = acc + b[i] * 5; }\n")
	b.WriteString("  for (i = 0; i < 40; i = i + 1) { acc = acc + d[i]; }\n")
	b.WriteString("  return acc;\n}\n")
	return b.String()
}

// runProgram compiles src (optionally instrumenting it) and runs main
// under the scheme, returning the result value.
func runProgram(t *testing.T, src string, scheme params.Scheme, instrument bool) int64 {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	if instrument {
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
	m, err := New(prog, ctx)
	if err != nil {
		t.Fatal(err)
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
		t.Fatalf("run (%v, instrumented=%v): %v\n%s", scheme, instrument, err, src)
	}
	res := rt.Finish(ctx.Now())
	if res.Counts.Faults != 0 {
		t.Fatalf("faults = %d under %v\n%s", res.Counts.Faults, scheme, src)
	}
	return v
}

// TestProtectionPreservesResults: for random programs, the value computed
// under every protection scheme (with compiler insertion) equals the
// value computed unprotected — protection must never change semantics.
func TestProtectionPreservesResults(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		src := genKernel(r)
		want := runProgram(t, src, params.Unprotected, false)
		for _, scheme := range []params.Scheme{params.TT, params.TM, params.MM, params.PlusCond} {
			got := runProgram(t, src, scheme, true)
			if got != want {
				t.Fatalf("trial %d: %v computed %d, unprotected computed %d\n%s",
					trial, scheme, got, want, src)
			}
		}
	}
}

// TestProtectionTimingOrdering: on the same random program, TT must never
// be slower than TM (the architecture only removes work).
func TestProtectionTimingOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	timed := func(src string, scheme params.Scheme) uint64 {
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := terpc.Insert(prog, terpc.Options{
			EWThreshold:  params.Micros(params.DefaultEWMicros),
			TEWThreshold: params.Micros(params.DefaultTEWMicros),
		}); err != nil {
			t.Fatal(err)
		}
		mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<28))
		rt := core.NewRuntime(params.NewConfig(scheme, params.DefaultEWMicros), mgr)
		ctx := rt.NewThread(sim.SingleThread())
		m, err := New(prog, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
		return ctx.Now()
	}
	for trial := 0; trial < 10; trial++ {
		src := genKernel(r)
		tt := timed(src, params.TT)
		tm := timed(src, params.TM)
		if tt > tm {
			t.Fatalf("trial %d: TT (%d cycles) slower than TM (%d)\n%s", trial, tt, tm, src)
		}
	}
}
