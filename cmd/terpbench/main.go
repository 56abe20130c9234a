// Command terpbench regenerates every table and figure of the paper's
// evaluation on the simulated machine:
//
//	terpbench -exp all                      # everything (paper-scale, slow)
//	terpbench -exp all -parallel 8          # same results, 8 workers
//	terpbench -exp table3 -ops 20000        # one experiment, smaller run
//	terpbench -exp fig11 -scale 2           # bigger SPEC kernels
//	terpbench -exp all -json results.json   # structured grids for trending
//	terpbench -exp table3 -ledger runs.jsonl # append run records to the ledger
//	terpbench -exp table3 -trace out.json   # Perfetto/Chrome trace export
//	terpbench -exp table3 -metrics          # per-cell counter tables
//	terpbench -exp table3,fig8 -ops 2000    # several experiments, in this order
//	terpbench -exp table3 -report run.html  # run report: text on stdout, HTML file
//	terpbench -spec job.json                # run a versioned spec document
//
// terpbench is the one command that runs experiments; `terpreport`
// reads what a run saved (-json grids, -ledger records). -report
// collects traces and metrics, prints the text report after the tables
// and writes the same report as self-contained HTML: exposure timelines,
// duration CDFs, attack correlation and the cycle-overhead accounts.
//
// -spec reads the same versioned ExperimentSpec wire document that the
// terpd job API accepts (see terp.ParseSpec), so a spec file submitted
// to a server and run locally produce byte-identical grids; it replaces
// -exp/-ops/-scale/-seed, while output flags (-json, -trace, -metrics,
// -report) and an explicit -parallel still apply.
//
// Each experiment decomposes into independent simulation cells that run
// on a worker pool; output is bit-identical at every -parallel value.
// Traces and metrics are keyed by simulated cycles, never wall clock, so
// they are byte-identical at every -parallel value too.
//
// Experiments: fig8, table3, fig9, table4, fig10, fig11, table5,
// semantics, ewsweep, table6, crash, litmus.
//
// The crash experiment is the crash-consistency matrix: every workload
// runs over the persist-buffer model while a deterministic injector
// materializes post-crash images (strict fence crashes plus an
// adversarial seeded sample that drops flushed-but-unfenced lines) and
// verifies recovery from each one.
//
// The litmus experiment is the persistency-model verification matrix:
// small store/flush/fence litmus programs (hand-written shapes plus
// seeded generated suites) run over the persist-buffer model, every
// reachable post-crash image is enumerated exhaustively, and the set is
// diffed against a declarative Px86-style oracle; the pass criterion is
// zero non-allowlisted divergences (see DESIGN.md "Litmus engine").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	terp "repro"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run, comma-separated and in order: all, or any of "+strings.Join(terp.Experiments(), ", "))
	ops := flag.Int("ops", 100_000, "WHISPER operations per run")
	scale := flag.Int("scale", 1, "SPEC kernel scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment-cell workers (1 = serial)")
	jsonPath := flag.String("json", "", "also write the structured result grids as JSON to this file")
	progress := flag.Bool("progress", false, "print live cell progress (with cells/sec and ETA) to stderr")
	tracePath := flag.String("trace", "", "record per-cell event traces and write Chrome trace JSON (Perfetto-loadable) to this file")
	metrics := flag.Bool("metrics", false, "collect per-cell metrics; print tables and an account rollup")
	reportPath := flag.String("report", "", "print the run report and write it as self-contained HTML to this file (implies tracing and metrics)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	specPath := flag.String("spec", "", "run the versioned spec JSON document in this file (replaces -exp/-ops/-scale/-seed)")
	ledgerPath := flag.String("ledger", "", "append one run record per experiment to this JSONL ledger (see terpreport -trend)")
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			check(err)
			runtime.GC() // settle allocations so the profile reflects live heap
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	ocfg := obs.Config{Trace: *tracePath != "", Metrics: *metrics}
	if *reportPath != "" {
		// The report needs both the event streams (exposure windows,
		// attack instants) and the counters (overhead accounts).
		ocfg.Trace = true
		ocfg.Metrics = true
	}

	// Enumerate the specs to run: either the one wire document from
	// -spec, or the classic flag-built spec per selected experiment.
	var specs []terp.ExperimentSpec
	if *specPath != "" {
		raw, err := os.ReadFile(*specPath)
		check(err)
		spec, err := terp.ParseSpec(raw)
		check(err)
		if explicit["parallel"] {
			spec.Parallel = *parallel
		}
		// Output flags add collection on top of what the spec asks for.
		spec.Obs.Trace = spec.Obs.Trace || ocfg.Trace
		spec.Obs.Metrics = spec.Obs.Metrics || ocfg.Metrics
		specs = append(specs, spec)
	} else {
		names := strings.Split(*exp, ",")
		if *exp == "all" {
			names = terp.Experiments()
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			if !slices.Contains(terp.Experiments(), name) {
				fmt.Fprintf(os.Stderr, "terpbench: unknown experiment %q\n", name)
				fmt.Fprintln(os.Stderr, "valid: all, "+strings.Join(terp.Experiments(), ", "))
				os.Exit(2)
			}
			specs = append(specs, terp.ExperimentSpec{
				Name:     name,
				Opts:     terp.ExpOpts{Ops: *ops, Scale: *scale, Seed: *seed},
				Parallel: *parallel,
				Obs:      ocfg,
			})
		}
	}

	var led *ledger.Ledger
	if *ledgerPath != "" {
		var err error
		led, err = ledger.Open(*ledgerPath, ledger.Options{})
		check(err)
		defer led.Close()
	}

	var grids []*terp.Grid
	var traces []obs.CellTrace
	for _, spec := range specs {
		if *progress {
			// Rate and ETA derive from wall clock, but only ever reach
			// stderr — no persisted output contains wall time.
			start := time.Now()
			spec.Progress = func(done, total int, cell string) {
				elapsed := time.Since(start).Seconds()
				var rate, eta string
				if elapsed > 0 && done > 0 {
					perSec := float64(done) / elapsed
					rate = fmt.Sprintf(" %.1f cells/s", perSec)
					if done < total && perSec > 0 {
						left := time.Duration(float64(total-done) / perSec * float64(time.Second))
						eta = " ETA " + left.Round(time.Second).String()
					}
				}
				fmt.Fprintf(os.Stderr, "\r%-60s [%d/%d]%s%s   ", cell, done, total, rate, eta)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		runStart := time.Now()
		g, err := terp.Run(spec)
		check(err)
		runWall := time.Since(runStart)
		fmt.Println(g.Format())
		if *metrics && g.Obs != nil {
			fmt.Println(formatObs(g))
		}
		grids = append(grids, g)
		traces = append(traces, g.Traces()...)
		if led != nil {
			// Observe-only: the record is derived from the finished grid
			// and never feeds back into the run.
			rec := ledger.FromGrid("terpbench", spec, g)
			rec.WallMS = runWall.Seconds() * 1e3
			check(led.Append(rec))
		}
	}
	if led != nil {
		fmt.Fprintf(os.Stderr, "terpbench: appended %d run record(s) to %s\n", len(grids), *ledgerPath)
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(grids, "", "  ")
		check(err)
		check(os.WriteFile(*jsonPath, append(buf, '\n'), 0o644))
		fmt.Fprintf(os.Stderr, "terpbench: wrote %d grid(s) to %s\n", len(grids), *jsonPath)
	}
	if *reportPath != "" {
		in := terp.ReportInput("TERP run report", grids)
		rep := report.Build(in)
		check(os.WriteFile(*reportPath, report.HTML(rep), 0o644))
		fmt.Fprintf(os.Stderr, "terpbench: wrote HTML report for %d experiment(s) to %s\n",
			len(in.Experiments), *reportPath)
		fmt.Print(report.Text(rep))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		check(err)
		check(obs.WriteChromeTrace(f, traces))
		check(f.Close())
		n := 0
		for _, t := range traces {
			n += len(t.Events)
		}
		fmt.Fprintf(os.Stderr, "terpbench: wrote %d trace event(s) from %d cell(s) to %s\n",
			n, len(traces), *tracePath)
	}
}

// formatObs renders an experiment's metrics: the merged totals with a
// cycle-account rollup, then each cell's counter table.
func formatObs(g *terp.Grid) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s metrics\n", g.Name)
	if g.Obs.Totals != nil {
		b.WriteString("cycle rollup (all cells):\n")
		b.WriteString(obs.FormatRollup(g.Obs.Totals, "sim/cycles"))
		b.WriteString("totals:\n")
		b.WriteString(obs.FormatMetrics(g.Obs.Totals))
	}
	for _, c := range g.Obs.Cells {
		fmt.Fprintf(&b, "cell %s:\n", c.Cell)
		b.WriteString(obs.FormatMetrics(c.Metrics))
		if c.TraceEvents > 0 {
			fmt.Fprintf(&b, "  trace: %d events (%d dropped)\n", c.TraceEvents, c.TraceDropped)
		}
	}
	return b.String()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "terpbench:", err)
		os.Exit(1)
	}
}
