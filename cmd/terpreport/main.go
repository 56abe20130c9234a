// Command terpreport turns instrumented runs into analysis reports:
// per-PMO exposure timelines, exposure-duration CDFs and percentiles for
// MERR vs TERP, attack-event correlation, the paper's cycle-overhead
// component accounts, and a benchmark regression verdict against a
// committed baseline.
//
//	terpreport -exp table3 -ops 2000                 # run + text report
//	terpreport -exp table3,table5 -html run.html     # self-contained HTML
//	terpreport -exp table3 -baseline BENCH_obs.json \
//	           -verdict verdict.json                 # CI regression gate
//	terpreport -in grids.json -html run.html         # from saved grids
//	terpreport -exp table3 -ledger runs.jsonl        # run + append a ledger record
//	terpreport -trend -ledger runs.jsonl             # gate on the run history
//
// Reports derive only from simulated cycles — the same spec produces
// byte-identical HTML, text and verdict output at every -parallel level.
//
// With -baseline, the exit code is the regression verdict: 0 for pass or
// improved, 3 for regressed (1 is reserved for operational errors), so
// CI can gate directly on the process status. The baseline is a
// `terpbench -json` document held to the same wire-version check as -in
// (exit 1 on a mismatch). Usage errors exit 2, including a negative or
// non-finite -tolerance, a non-positive -trend-window or -trend-min,
// and a baseline with no experiment that has metrics on both sides.
//
// -in reads a `terpbench -json` document. Saved grids carry metrics but
// not raw event streams, so that mode reports overhead accounts and the
// regression verdict; run an experiment directly for exposure timelines
// and attack correlation.
//
// -trend switches to history mode: instead of running anything, it
// reads the JSONL run ledger named by -ledger (appended by terpd,
// `terpbench -ledger` or `terpreport -ledger`), analyzes each
// per-metric series keyed by spec hash, and gates on the trailing
// -trend-window runs against the prior history: exit 0 when the gated
// sim-cycle series hold, 3 on a regression, with -verdict writing the
// machine-readable trend document. Series shorter than -trend-min
// report "insufficient" and never gate. -ledger-compact N rewrites the
// ledger keeping the most recent N records per spec identity.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	terp "repro"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	exp := flag.String("exp", "table3", "experiments to run: comma-separated names, or all (ignored with -in)")
	ops := flag.Int("ops", 100_000, "WHISPER operations per run")
	scale := flag.Int("scale", 1, "SPEC kernel scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment-cell workers (1 = serial)")
	in := flag.String("in", "", "read grids from this `terpbench -json` file instead of running")
	htmlPath := flag.String("html", "", "write the self-contained HTML report to this file")
	baseline := flag.String("baseline", "", "compare against this BENCH_*.json baseline and gate the exit code")
	verdictPath := flag.String("verdict", "", "write the machine-readable regression verdict JSON to this file (requires -baseline)")
	tolerance := flag.Float64("tolerance", report.DefaultTolerancePct, "regression tolerance in percent of the baseline total")
	title := flag.String("title", "TERP run report", "report title")
	ledgerPath := flag.String("ledger", "", "JSONL run ledger: appended after fresh runs, read by -trend")
	trend := flag.Bool("trend", false, "analyze the -ledger run history instead of running; exit 3 on a regressing trend")
	trendWindow := flag.Int("trend-window", 3, "trailing runs compared against the prior history (with -trend)")
	trendMin := flag.Int("trend-min", 5, "minimum runs per series before the trend gate engages (with -trend)")
	ledgerCompact := flag.Int("ledger-compact", 0, "compact the -ledger keeping this many records per spec identity, then exit")
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if math.IsNaN(*tolerance) || math.IsInf(*tolerance, 0) || *tolerance < 0 {
		fmt.Fprintln(os.Stderr, "terpreport: -tolerance must be a finite percent >= 0")
		os.Exit(2)
	}
	if *trendWindow <= 0 || *trendMin <= 0 {
		fmt.Fprintln(os.Stderr, "terpreport: -trend-window and -trend-min must be positive")
		os.Exit(2)
	}
	if (*trend || *ledgerCompact > 0) && *ledgerPath == "" {
		fmt.Fprintln(os.Stderr, "terpreport: -trend and -ledger-compact require -ledger")
		os.Exit(2)
	}
	if *ledgerCompact > 0 {
		led, err := ledger.Open(*ledgerPath, ledger.Options{})
		check(err)
		check(led.Compact(*ledgerCompact))
		check(led.Close())
		fmt.Fprintf(os.Stderr, "terpreport: compacted %s to the most recent %d record(s) per spec\n",
			*ledgerPath, *ledgerCompact)
		return
	}
	if *trend {
		os.Exit(runTrend(*ledgerPath, *verdictPath, trendFilter(explicit, *exp), report.TrendOpts{
			Window: *trendWindow, MinRuns: *trendMin, TolerancePct: *tolerance,
		}))
	}

	if *verdictPath != "" && *baseline == "" {
		fmt.Fprintln(os.Stderr, "terpreport: -verdict requires -baseline")
		os.Exit(2)
	}

	grids, runs, err := loadGrids(*in, *exp, terp.ExpOpts{Ops: *ops, Scale: *scale, Seed: *seed}, *parallel)
	check(err)

	if *ledgerPath != "" {
		// Records only for fresh runs: -in documents carry no spec (and
		// no wall clock), so there is nothing honest to append.
		if len(runs) == 0 {
			fmt.Fprintln(os.Stderr, "terpreport: -ledger ignored with -in (no fresh run to record)")
		} else {
			led, err := ledger.Open(*ledgerPath, ledger.Options{})
			check(err)
			for i, g := range grids {
				rec := ledger.FromGrid("terpreport", runs[i].spec, g)
				rec.WallMS = runs[i].wallMS
				check(led.Append(rec))
			}
			check(led.Close())
			fmt.Fprintf(os.Stderr, "terpreport: appended %d run record(s) to %s\n", len(grids), *ledgerPath)
		}
	}

	input := terp.ReportInput(*title, grids)
	rep := report.Build(input)

	if *baseline != "" {
		baseGrids, err := readGrids(*baseline)
		check(err)
		base := terp.ReportInput("", baseGrids).Experiments
		rep.Regression = report.Compare(input.Experiments, base, report.RegressOpts{TolerancePct: *tolerance})
		if rep.Regression == nil {
			fmt.Fprintln(os.Stderr, "terpreport: no experiment has metrics in both the current run and the baseline; nothing to compare")
			os.Exit(2)
		}
	}

	if *htmlPath != "" {
		check(os.WriteFile(*htmlPath, report.HTML(rep), 0o644))
		fmt.Fprintf(os.Stderr, "terpreport: wrote HTML report to %s\n", *htmlPath)
	}
	if *verdictPath != "" {
		writeVerdict(*verdictPath, rep.Regression)
	}

	fmt.Print(report.Text(rep))
	if rep.Regression != nil {
		os.Exit(rep.Regression.Verdict.ExitCode())
	}
}

// runMeta describes one fresh run (parallel to the grids slice; empty
// for -in documents).
type runMeta struct {
	spec   terp.ExperimentSpec
	wallMS float64
}

// loadGrids either parses a saved grids document or runs the requested
// experiments with tracing and metrics on. Fresh runs also return
// their specs and wall-clock durations for the ledger.
func loadGrids(inPath, exp string, opts terp.ExpOpts, parallel int) ([]*terp.Grid, []runMeta, error) {
	if inPath != "" {
		grids, err := readGrids(inPath)
		return grids, nil, err
	}

	names := strings.Split(exp, ",")
	if exp == "all" {
		names = terp.Experiments()
	}
	var grids []*terp.Grid
	var runs []runMeta
	for _, name := range names {
		name = strings.TrimSpace(name)
		spec := terp.ExperimentSpec{
			Name:     name,
			Opts:     opts,
			Parallel: parallel,
			Obs:      obs.Config{Trace: true, Metrics: true},
		}
		start := time.Now()
		g, err := terp.Run(spec)
		if err != nil {
			return nil, nil, err
		}
		grids = append(grids, g)
		runs = append(runs, runMeta{spec: spec, wallMS: time.Since(start).Seconds() * 1e3})
	}
	return grids, runs, nil
}

// readGrids parses a saved `terpbench -json` document (an -in input or
// a -baseline). ParseGrids enforces the wire version, so a document from
// an incompatible build fails loudly instead of mis-reporting.
func readGrids(path string) ([]*terp.Grid, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	grids, err := terp.ParseGrids(buf)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return grids, nil
}

// trendFilter restricts trend mode to the -exp experiments only when
// the flag was given explicitly; the default runs over the whole
// ledger.
func trendFilter(explicit map[string]bool, exp string) func(string) bool {
	if !explicit["exp"] || exp == "all" {
		return func(string) bool { return true }
	}
	names := map[string]bool{}
	for _, n := range strings.Split(exp, ",") {
		names[strings.TrimSpace(n)] = true
	}
	return func(name string) bool { return names[name] }
}

// runTrend handles history mode: read the ledger, analyze each series,
// print the table, optionally write the verdict document. Returns the
// process exit code (0 pass/improved, 3 regressed).
func runTrend(ledgerPath, verdictPath string, keep func(string) bool, opt report.TrendOpts) int {
	records, skipped, err := ledger.Read(ledgerPath)
	check(err)
	var kept []ledger.Record
	for _, r := range records {
		if keep(r.Experiment) {
			kept = append(kept, r)
		}
	}
	tr := report.Trend(ledger.Series(kept), opt)
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "terpreport: skipped %d unreadable ledger line(s)\n", skipped)
	}
	if verdictPath != "" {
		writeVerdict(verdictPath, tr)
	}
	fmt.Print(tr.Text())
	return tr.Verdict.ExitCode()
}

// writeVerdict writes a verdict document — the -baseline Regression or
// the -trend TrendReport — as indented JSON.
func writeVerdict(path string, doc any) {
	buf, err := json.MarshalIndent(doc, "", "  ")
	check(err)
	check(os.WriteFile(path, append(buf, '\n'), 0o644))
	fmt.Fprintf(os.Stderr, "terpreport: wrote verdict to %s\n", path)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "terpreport:", err)
		os.Exit(1)
	}
}
