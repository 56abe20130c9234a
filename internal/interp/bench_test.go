package interp

import (
	"math"
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

// benchMachine compiles src under the scheme and returns a ready machine
// (block interpreter or linked) whose main can be invoked repeatedly.
func benchMachine(b *testing.B, src string, scheme params.Scheme, useLinked bool) *Machine {
	b.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	if scheme != params.Unprotected {
		if _, err := terpc.Insert(prog, terpc.Options{
			EWThreshold:  params.Micros(params.DefaultEWMicros),
			TEWThreshold: params.Micros(params.DefaultTEWMicros),
		}); err != nil {
			b.Fatalf("insert: %v", err)
		}
	}
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<28))
	rt := core.NewRuntime(params.NewConfig(scheme, params.DefaultEWMicros), mgr)
	ctx := rt.NewThread(sim.SingleThread())
	var m *Machine
	if useLinked {
		l, err := ir.Link(prog)
		if err != nil {
			b.Fatalf("link: %v", err)
		}
		m, err = NewLinked(l, ctx)
		if err != nil {
			b.Fatal(err)
		}
	} else {
		m, err = New(prog, ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	// One benchmark run invokes main b.N times on one machine; lift the
	// per-machine step budget out of the way.
	m.MaxSteps = math.MaxUint64
	if scheme == params.Unprotected {
		for _, p := range m.PMOs() {
			if err := ctx.Attach(p, paging.ReadWrite); err != nil {
				b.Fatal(err)
			}
		}
	}
	return m
}

// alukernel is pure register arithmetic and control flow: it measures
// instruction dispatch with no memory-hierarchy model in the loop.
const aluKernel = `
func main() {
  var i; var x; var y;
  x = 1;
  y = 0;
  for (i = 0; i < 512; i = i + 1) {
    x = (x * 33 + i) % 65521;
    if (x % 3 == 0) { y = y + x; } else { y = y - 1; }
  }
  return y;
}
`

// pmKernel streams loads and stores through one PMO under the full
// protection path (TT: conditional attach/detach instrumentation).
const pmKernel = `
pmo a[256];

func main() {
  var i; var acc;
  for (i = 0; i < 256; i = i + 1) { a[i] = i * 3; }
  for (i = 0; i < 256; i = i + 1) { acc = acc + a[i]; }
  return acc;
}
`

func benchEngines(b *testing.B, src string, scheme params.Scheme) {
	for _, eng := range []struct {
		name   string
		linked bool
	}{{"block", false}, {"linked", true}} {
		b.Run(eng.name, func(b *testing.B) {
			m := benchMachine(b, src, scheme, eng.linked)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run("main"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecALU measures pure instruction dispatch (no PM accesses)
// on both engines.
func BenchmarkExecALU(b *testing.B) {
	benchEngines(b, aluKernel, params.Unprotected)
}

// BenchmarkLoadStorePM measures the PMO load/store path — interpreter
// dispatch plus the runtime's full protection and memory-hierarchy
// model — on both engines under the TT scheme.
func BenchmarkLoadStorePM(b *testing.B) {
	benchEngines(b, pmKernel, params.TT)
}
