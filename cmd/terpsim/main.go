// Command terpsim runs one workload under one protection scheme and
// prints its measurements:
//
//	terpsim -suite whisper -workload redis -scheme TT -ew 40
//	terpsim -suite spec -workload lbm -scheme TM -threads 4
//
// Schemes: base (unprotected), MM, TM, TT, basic, +cond, +cb. -trace N
// turns on the obs event recorder and prints the last N protection
// events (attach, grant, revoke, fault, ...) as a timeline.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/speckit"
	"repro/internal/whisper"
)

func main() {
	suite := flag.String("suite", "whisper", "workload suite: whisper or spec")
	workload := flag.String("workload", "hashmap", "workload name")
	scheme := flag.String("scheme", "TT", "protection scheme: base, MM, TM, TT, basic, +cond, +cb")
	ew := flag.Float64("ew", 40, "exposure window target (us)")
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
	cfg := params.NewConfig(s, *ew)
	cfg.Seed = *seed

	var res core.Result
	var traced *core.Runtime
	hook := func(rt *core.Runtime) {
		if *trace > 0 {
			rt.EnableObs(obs.Config{Trace: true})
			traced = rt
		}
	}
	switch *suite {
	case "whisper":
		mk, err := whisper.ByName(*workload)
		if err != nil {
			fail(err)
		}
		res, err = whisper.Run(cfg, mk, whisper.RunOpts{Ops: *ops, OnRuntime: hook})
		if err != nil {
			fail(err)
		}
	case "spec":
		k, err := speckit.ByName(*workload)
		if err != nil {
			fail(err)
		}
		res, err = speckit.Run(cfg, k, speckit.RunOpts{Threads: *threads, Scale: *scale, OnRuntime: hook})
		if err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown suite %q", *suite))
	}
	printResult(*suite, *workload, cfg, res)
	if traced != nil {
		printProtectionEvents(traced.ObsRecorder(), *trace)
	}
}

// printProtectionEvents prints the last n of the run's protection events
// (the runtime's CatCore instants) in the recorder's time order, one
// timeline line each. The count covers the events the trace rings kept;
// the header says when they dropped older ones.
func printProtectionEvents(rec *obs.Recorder, n int) {
	events := obs.FilterInstants(obs.Instants(rec.Events()), obs.CatCore, "")
	total := len(events)
	if total > n {
		events = events[total-n:]
	}
	fmt.Printf("\nlast %d of %d protection events", len(events), total)
	if d := rec.Dropped(); d > 0 {
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
