// Command terpc compiles a TPL source file through the TERP compiler
// pipeline and shows what the insertion pass did:
//
//	terpc -ew 40 -tew 2 prog.tpl        # TERP conditional insertion
//	terpc -merr prog.tpl                # MERR single-level insertion
//	terpc -dump prog.tpl                # print the instrumented IR
//	terpc -dot prog.tpl                 # print the CFGs for Graphviz
//
// The pipeline is lang.Compile followed by terpc.Insert, the one every
// SPEC cell compiles its kernel with. -ew must pass params.CheckEW and
// -tew params.CheckTEW (a finite number from 0 up to -ew); any other
// value exits 1. With no file argument it reads from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/lang"
	"repro/internal/params"
	"repro/internal/terpc"
)

func main() {
	ew := flag.Float64("ew", params.DefaultEWMicros, "exposure window target (us)")
	tew := flag.Float64("tew", params.DefaultTEWMicros, "thread exposure window target (us)")
	merr := flag.Bool("merr", false, "MERR-style single-level insertion (no TEW)")
	dump := flag.Bool("dump", false, "print the instrumented IR")
	dot := flag.Bool("dot", false, "print the instrumented CFGs in Graphviz format")
	flag.Parse()
	if err := params.CheckEW(*ew); err != nil {
		fail(fmt.Errorf("-ew %w", err))
	}
	if err := params.CheckTEW(*tew, *ew); err != nil {
		fail(fmt.Errorf("-tew %w", err))
	}

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fail(err)
	}

	prog, err := lang.Compile(string(src))
	if err != nil {
		fail(err)
	}
	iopt := terpc.Options{EWThreshold: params.Micros(*ew)}
	if !*merr {
		iopt.TEWThreshold = params.Micros(*tew)
	}
	rep, err := terpc.Insert(prog, iopt)
	if err != nil {
		fail(err)
	}

	fmt.Printf("compiled %d function(s), %d PMO(s), %d volatile array(s)\n",
		len(prog.Funcs), len(prog.PMOs), len(prog.DRAMs))
	names := make([]string, 0, len(rep.FuncLET))
	for n := range rep.FuncLET {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-16s LET %8.2f us\n", n, params.ToMicros(rep.FuncLET[n]))
	}
	fmt.Printf("insertion (EW %.0fus, TEW %s):\n", *ew, tewLabel(*merr, *tew))
	for _, fr := range rep.Funcs {
		fmt.Printf("  %-16s %d graph(s), %d attach, %d detach, max region LET %.2f us\n",
			fr.Func, fr.Graphs, fr.Attaches, fr.Detaches, params.ToMicros(fr.MaxRegionLET))
	}
	if rep.TotalInserted() == 0 {
		fmt.Println("  (no PMO accesses; nothing inserted)")
	}
	if *dump {
		for _, n := range names {
			if f, ok := prog.Funcs[n]; ok {
				fmt.Println(f)
			}
		}
	}
	if *dot {
		for _, n := range names {
			if f, ok := prog.Funcs[n]; ok {
				fmt.Print(f.DOT())
			}
		}
	}
}

func tewLabel(merr bool, tew float64) string {
	if merr {
		return "off (MERR)"
	}
	return fmt.Sprintf("%.0fus", tew)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "terpc:", err)
	os.Exit(1)
}
