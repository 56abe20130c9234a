// Command terpsim runs one workload under one protection scheme and
// prints its measurements:
//
//	terpsim -suite whisper -workload redis -scheme TT -ew 40
//	terpsim -suite spec -workload lbm -scheme TM -threads 4
//
// Schemes: base (unprotected), MM, TM, TT, basic, +cond, +cb. The run is
// one experiment cell (internal/runner), so it measures exactly what the
// same cell measures inside a grid. -ew must be at least 2 us. -trace N
// turns on the obs event recorder and prints the last N protection
// events (attach, grant, revoke, fault, ...) as a timeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/runner"
)

func main() {
	suite := flag.String("suite", "whisper", "workload suite: whisper or spec")
	workload := flag.String("workload", "hashmap", "workload name")
	scheme := flag.String("scheme", "TT", "protection scheme: base, MM, TM, TT, basic, +cond, +cb")
	ew := flag.Float64("ew", 40, "exposure window target (us, at least 2)")
	ops := flag.Int("ops", 100_000, "operations (whisper)")
	threads := flag.Int("threads", 1, "threads (spec)")
	scale := flag.Int("scale", 1, "kernel scale (spec)")
	seed := flag.Int64("seed", 1, "random seed")
	trace := flag.Int("trace", 0, "print the last N protection events")
	flag.Parse()

	s, err := parseScheme(*scheme)
	if err != nil {
		fail(err)
	}
	if math.IsNaN(*ew) || *ew < params.MinEWMicros {
		fail(fmt.Errorf("-ew %g is below the %g us minimum exposure window target", *ew, float64(params.MinEWMicros)))
	}
	cell := runner.Cell{Workload: *workload, Scheme: s, EWMicros: *ew, Seed: *seed}
	switch *suite {
	case "whisper":
		cell.Kind, cell.Ops = runner.Whisper, *ops
	case "spec":
		cell.Kind, cell.Threads, cell.Scale = runner.Spec, *threads, *scale
	default:
		fail(fmt.Errorf("unknown suite %q", *suite))
	}
	res, err := runner.RunCellCtx(context.Background(), cell, nil, obs.Config{Trace: *trace > 0})
	if err != nil {
		fail(err)
	}
	printResult(*suite, *workload, cell.Config(), res.Result)
	if res.Obs != nil {
		printProtectionEvents(res.Obs, *trace)
	}
}

// printProtectionEvents prints the last n of the cell's protection events
// (the runtime's CatCore instants) in the recorder's time order, one
// timeline line each. The count covers the events the trace rings kept;
// the header says when they dropped older ones.
func printProtectionEvents(c *obs.CellObs, n int) {
	events := obs.FilterInstants(obs.Instants(c.Events), obs.CatCore, "")
	total := len(events)
	if total > n {
		events = events[total-n:]
	}
	fmt.Printf("\nlast %d of %d protection events", len(events), total)
	if d := c.TraceDropped; d > 0 {
		fmt.Printf(" (the trace rings dropped %d older events of all kinds)", d)
	}
	fmt.Println(":")
	for _, e := range events {
		th := fmt.Sprintf("t%d", e.Thread)
		if e.Thread == obs.HWThread {
			th = "hw"
		}
		fmt.Printf("  %10.2fus %-3s pmo%-3d %s\n", params.ToMicros(e.TS), th, e.Arg, e.Name)
	}
}

func parseScheme(s string) (params.Scheme, error) {
	switch s {
	case "base", "unprotected":
		return params.Unprotected, nil
	case "MM", "mm":
		return params.MM, nil
	case "TM", "tm":
		return params.TM, nil
	case "TT", "tt":
		return params.TT, nil
	case "basic":
		return params.BasicSem, nil
	case "+cond", "cond":
		return params.PlusCond, nil
	case "+cb", "cb":
		return params.PlusCB, nil
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

func printResult(suite, workload string, cfg params.Config, res core.Result) {
	fmt.Printf("%s/%s under %s (EW %.0fus, TEW %.0fus)\n", suite, workload,
		cfg.Scheme, params.ToMicros(cfg.EWTarget), params.ToMicros(cfg.TEWTarget))
	fmt.Printf("  simulated time      %.2f ms (%d cycles)\n",
		params.ToMicros(res.Cycles)/1000, res.Cycles)
	fmt.Printf("  exposure            %s\n", res.Exposure)
	fmt.Printf("  cond ops            %d (%.1f%% silent, %.0f/s)\n",
		res.Counts.CondOps, res.Counts.SilentPercent(), res.CondFreqPerSec())
	fmt.Printf("  syscalls            %d attach, %d detach\n",
		res.Counts.AttachSyscalls, res.Counts.DetachSyscalls)
	fmt.Printf("  randomizations      %d\n", res.Counts.Randomizations)
	if res.Counts.Blocks > 0 {
		fmt.Printf("  basic-sem blocks    %d\n", res.Counts.Blocks)
	}
	if res.Counts.Faults > 0 {
		fmt.Printf("  protection faults   %d\n", res.Counts.Faults)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "terpsim:", err)
	os.Exit(1)
}
