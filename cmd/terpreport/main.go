// Command terpreport reads what runs saved and turns it into analysis
// reports: the paper's cycle-overhead component accounts, a benchmark
// regression verdict against a committed baseline, and a trend gate over
// the run ledger. It runs no experiment itself; `terpbench -report`
// runs them and prints and writes the same report, with the exposure
// timelines and attack correlation that only a fresh run's event
// streams carry.
//
//	terpreport -in grids.json                        # text report
//	terpreport -in grids.json -html run.html         # self-contained HTML
//	terpreport -in grids.json -baseline BENCH_obs.json \
//	           -verdict verdict.json                 # CI regression gate
//	terpreport -trend -ledger runs.jsonl             # gate on the run history
//	terpreport -ledger-compact 50 -ledger runs.jsonl # keep 50 records per spec
//
// -in reads a `terpbench -json` document. Reports derive only from
// simulated cycles, so the same grids give byte-identical HTML, text and
// verdict output whatever -parallel wrote them.
//
// With -baseline, the exit code is the regression verdict: 0 for pass or
// improved, 3 for regressed (1 is reserved for operational errors), so
// CI can gate directly on the process status. The baseline is a
// `terpbench -json` document held to the same wire-version check as -in
// (exit 1 on a mismatch). Usage errors exit 2: no -in, -trend or
// -ledger-compact, -ledger without one of the two ledger modes, a
// negative or non-finite -tolerance, a non-positive -trend-window or
// -trend-min, and a baseline with no experiment that has metrics on both
// sides.
//
// -trend reads the JSONL run ledger named by -ledger (appended by terpd
// and `terpbench -ledger`), analyzes each per-metric series keyed by
// spec hash, and gates on the trailing -trend-window runs against the
// prior history: exit 0 when the gated sim-cycle series hold, 3 on a
// regression, with -verdict writing the machine-readable trend document.
// -exp restricts it to the named experiments. Series shorter than
// -trend-min report "insufficient" and never gate. -ledger-compact N
// rewrites the ledger keeping the most recent N records per spec
// identity.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	terp "repro"
	"repro/internal/ledger"
	"repro/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "with -trend: experiments whose series to analyze, comma-separated, or all")
	in := flag.String("in", "", "read grids from this `terpbench -json` file")
	htmlPath := flag.String("html", "", "write the self-contained HTML report to this file")
	baseline := flag.String("baseline", "", "compare against this BENCH_*.json baseline and gate the exit code")
	verdictPath := flag.String("verdict", "", "write the machine-readable regression verdict JSON to this file (requires -baseline or -trend)")
	tolerance := flag.Float64("tolerance", report.DefaultTolerancePct, "regression tolerance in percent of the baseline total")
	ledgerPath := flag.String("ledger", "", "JSONL run ledger read by -trend and rewritten by -ledger-compact (terpbench -ledger appends)")
	trend := flag.Bool("trend", false, "analyze the -ledger run history; exit 3 on a regressing trend")
	trendWindow := flag.Int("trend-window", 3, "trailing runs compared against the prior history (with -trend)")
	trendMin := flag.Int("trend-min", 5, "minimum runs per series before the trend gate engages (with -trend)")
	ledgerCompact := flag.Int("ledger-compact", 0, "compact the -ledger keeping this many records per spec identity, then exit")
	flag.Parse()

	if math.IsNaN(*tolerance) || math.IsInf(*tolerance, 0) || *tolerance < 0 {
		usage("-tolerance must be a finite percent >= 0")
	}
	if *trendWindow <= 0 || *trendMin <= 0 {
		usage("-trend-window and -trend-min must be positive")
	}
	ledgerMode := *trend || *ledgerCompact > 0
	if ledgerMode && *ledgerPath == "" {
		usage("-trend and -ledger-compact require -ledger")
	}
	if *ledgerPath != "" && !ledgerMode {
		usage("-ledger needs -trend or -ledger-compact; `terpbench -ledger` appends run records")
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
		os.Exit(runTrend(*ledgerPath, *verdictPath, trendFilter(*exp), report.TrendOpts{
			Window: *trendWindow, MinRuns: *trendMin, TolerancePct: *tolerance,
		}))
	}
	if *in == "" {
		usage("nothing to read: give -in, or -trend or -ledger-compact with -ledger; " +
			"`terpbench -report` runs experiments and reports on them")
	}
	if *verdictPath != "" && *baseline == "" {
		usage("-verdict requires -baseline")
	}

	grids, err := readGrids(*in)
	check(err)
	input := terp.ReportInput("TERP run report", grids)
	rep := report.Build(input)

	if *baseline != "" {
		baseGrids, err := readGrids(*baseline)
		check(err)
		base := terp.ReportInput("", baseGrids).Experiments
		rep.Regression = report.Compare(input.Experiments, base, report.RegressOpts{TolerancePct: *tolerance})
		if rep.Regression == nil {
			usage("no experiment has metrics in both the current run and the baseline; nothing to compare")
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

// trendFilter restricts trend mode to the -exp experiments; all keeps
// the whole ledger.
func trendFilter(exp string) func(string) bool {
	if exp == "all" {
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

// usage reports a usage error and exits 2.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "terpreport:", msg)
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "terpreport:", err)
		os.Exit(1)
	}
}
