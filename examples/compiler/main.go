// compiler: the full TERP compiler pipeline end to end — parse a TPL
// program, run the region-based attach/detach insertion (Algorithm 1),
// show what was inserted, and execute the instrumented program on the
// protected runtime.
//
//	go run ./examples/compiler
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nvm"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
	"repro/internal/terpc"
)

// A small image-smoothing program: one persistent grid (its own PMO), a
// short preparation loop that fits in a single window, and a long main
// loop that needs per-iteration windows.
const source = `
pmo grid[2048];

func prepare() {
  var i;
  for (i = 0; i < 2048; i = i + 1) {
    grid[i] = (i * 31) % 255;
  }
  return 0;
}

func smooth(rounds) {
  var r; var i; var acc;
  for (r = 0; r < rounds; r = r + 1) {
    for (i = 1; i < 2047; i = i + 1) {
      acc = grid[i - 1] + grid[i] + grid[i + 1];
      grid[i] = acc / 3;
      compute(40);
    }
    // non-persistent work between rounds
    compute(200000);
  }
  return grid[1024];
}

func main() {
  prepare();
  return smooth(4);
}
`

func main() {
	prog, err := lang.Compile(source)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := terpc.Insert(prog, terpc.Options{
		EWThreshold:  params.Micros(40),
		TEWThreshold: params.Micros(2),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== insertion report ===")
	names := make([]string, 0, len(rep.FuncLET))
	for name := range rep.FuncLET {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-10s estimated LET %.2f us\n", name, params.ToMicros(rep.FuncLET[name]))
	}
	for _, fr := range rep.Funcs {
		fmt.Printf("  %-10s %d graph(s), %d attach + %d detach inserted\n",
			fr.Func, fr.Graphs, fr.Attaches, fr.Detaches)
	}

	fmt.Println("\n=== instrumented IR for smooth ===")
	fmt.Print(prog.Funcs["smooth"].String())

	// Execute on the protected runtime under TT.
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<28))
	rt := core.NewRuntime(params.NewConfig(params.TT, 40), mgr)
	ctx := rt.NewThread(sim.SingleThread())
	linked, err := ir.Link(prog)
	if err != nil {
		log.Fatal(err)
	}
	m, err := interp.NewLinked(linked, ctx)
	if err != nil {
		log.Fatal(err)
	}
	v, err := m.Run("main")
	if err != nil {
		log.Fatal(err)
	}
	res := rt.Finish(ctx.Now())

	fmt.Println("\n=== run ===")
	fmt.Printf("  result grid[1024] = %d\n", v)
	fmt.Printf("  simulated time    = %.2f ms\n", params.ToMicros(res.Cycles)/1000)
	fmt.Printf("  exposure          = %s\n", res.Exposure)
	fmt.Printf("  cond ops          = %d (%.1f%% silent)\n",
		res.Counts.CondOps, res.Counts.SilentPercent())
	fmt.Printf("  real syscalls     = %d attach, %d detach\n",
		res.Counts.AttachSyscalls, res.Counts.DetachSyscalls)
}
