package terp

// The experiment drivers: every table and figure of the paper's
// evaluation is enumerated as a list of independent runner.Cell specs,
// executed on the internal/runner worker pool, and assembled into typed
// rows in enumeration order — so results are bit-identical at any
// worker count. The public entry point is Run (run.go).

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/semantics"
	"repro/internal/sim"
	"repro/internal/speckit"
	"repro/internal/stats"
	"repro/internal/terpc"
	"repro/internal/whisper"
)

// ExpOpts scales the experiment runners. The defaults reproduce the
// paper's settings; tests and benchmarks shrink Ops/Scale for speed.
type ExpOpts struct {
	// Ops is the WHISPER operation count (paper: 100000).
	Ops int `json:"ops"`
	// Scale multiplies the SPEC kernel sizes (paper-equivalent: 4+).
	Scale int `json:"scale"`
	// Seed seeds every run.
	Seed int64 `json:"seed"`
}

func (o ExpOpts) withDefaults() ExpOpts {
	if o.Ops == 0 {
		o.Ops = whisper.DefaultOps
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// --- cell enumeration helpers -----------------------------------------------

// expConfig names one (scheme, EW target) configuration of a figure.
type expConfig struct {
	label  string
	scheme Scheme
	ew     float64
}

// overheadConfigs are the Figure 9/10 configurations.
var overheadConfigs = []expConfig{
	{"MM(40us)", MM, 40},
	{"TM(40us)", TM, 40},
	{"TT(40us)", TT, 40},
	{"TT(80us)", TT, 80},
	{"TT(160us)", TT, 160},
}

// ablationConfigs are the Figure 11 configurations.
var ablationConfigs = []expConfig{
	{"Basic(40us)", BasicSem, 40},
	{"+Cond(40us)", PlusCond, 40},
	{"+CB(40us)", PlusCB, 40},
	{"TT(80us)", TT, 80},
	{"TT(160us)", TT, 160},
}

func whisperCell(exp, label, workload string, s Scheme, ew float64, o ExpOpts) runner.Cell {
	return runner.Cell{
		Exp: exp, Label: label, Kind: runner.Whisper, Workload: workload,
		Scheme: s, EWMicros: ew, Seed: o.Seed, Ops: o.Ops,
	}
}

func specCell(exp, label, kernel string, s Scheme, ew float64, threads int, o ExpOpts) runner.Cell {
	return runner.Cell{
		Exp: exp, Label: label, Kind: runner.Spec, Workload: kernel,
		Scheme: s, EWMicros: ew, Seed: o.Seed, Scale: o.Scale, Threads: threads,
	}
}

// --- Table III --------------------------------------------------------------

// WhisperRow is one Table III row: exposure measurements for one WHISPER
// workload under MM and TT at the 40 us EW / 2 us TEW targets.
type WhisperRow struct {
	// Prog is the workload name.
	Prog string `json:"prog"`
	// MMEWAvg, MMEWMax, MMER are MERR's exposure figures (us, us, frac).
	MMEWAvg, MMEWMax, MMER float64
	// Silent is TT's share of conditional ops lowered to thread
	// permission changes (percent).
	Silent float64
	// TTEWAvg, TTEWMax, TTER are TT's process-level exposure figures.
	TTEWAvg, TTEWMax, TTER float64
	// TEW and TER are TT's thread-level exposure figures (us, frac).
	TEW, TER float64
	// CondFreq is TT's conditional ops per second.
	CondFreq float64
}

// table3Cells enumerates each workload under MM then TT.
func table3Cells(exp string, o ExpOpts) []runner.Cell {
	var cells []runner.Cell
	for _, mk := range whisper.All() {
		name := mk().Name()
		cells = append(cells,
			whisperCell(exp, "MM(40us)", name, MM, 40, o),
			whisperCell(exp, "TT(40us)", name, TT, 40, o))
	}
	return cells
}

// table3Rows folds (MM, TT) cell pairs into rows.
func table3Rows(res []runner.CellResult) []WhisperRow {
	var rows []WhisperRow
	for i := 0; i+1 < len(res); i += 2 {
		mm, tt := res[i].Result, res[i+1].Result
		rows = append(rows, WhisperRow{
			Prog:     res[i].Cell.Workload,
			MMEWAvg:  params.ToMicros(uint64(mm.Exposure.AvgEW)),
			MMEWMax:  params.ToMicros(uint64(mm.Exposure.MaxEW)),
			MMER:     mm.Exposure.ER,
			Silent:   tt.Counts.SilentPercent(),
			TTEWAvg:  params.ToMicros(uint64(tt.Exposure.AvgEW)),
			TTEWMax:  params.ToMicros(uint64(tt.Exposure.MaxEW)),
			TTER:     tt.Exposure.ER,
			TEW:      params.ToMicros(uint64(tt.Exposure.AvgTEW)),
			TER:      tt.Exposure.TER,
			CondFreq: tt.CondFreqPerSec(),
		})
	}
	return rows
}

func assembleTable3(spec ExperimentSpec, res []runner.CellResult, g *Grid) error {
	g.Whisper = table3Rows(res)
	return nil
}

// FormatTable3 renders Table III.
func FormatTable3(rows []WhisperRow) string {
	t := stats.NewTable("Prog", "MM EW avg/max(us)", "MM ER%", "Silent%",
		"TT EW avg/max(us)", "TT ER%", "TEW(us)", "TER%")
	var avg WhisperRow
	for _, r := range rows {
		t.AddRow(r.Prog,
			fmt.Sprintf("%.1f/%.1f", r.MMEWAvg, r.MMEWMax), 100*r.MMER,
			r.Silent,
			fmt.Sprintf("%.1f/%.1f", r.TTEWAvg, r.TTEWMax), 100*r.TTER,
			fmt.Sprintf("%.2f", r.TEW), 100*r.TER)
		avg.MMEWAvg += r.MMEWAvg
		avg.MMER += r.MMER
		avg.Silent += r.Silent
		avg.TTEWAvg += r.TTEWAvg
		avg.TTER += r.TTER
		avg.TEW += r.TEW
		avg.TER += r.TER
	}
	n := float64(len(rows))
	if n > 0 {
		t.AddRow("Avg.",
			fmt.Sprintf("%.1f/-", avg.MMEWAvg/n), 100*avg.MMER/n,
			avg.Silent/n,
			fmt.Sprintf("%.1f/-", avg.TTEWAvg/n), 100*avg.TTER/n,
			fmt.Sprintf("%.2f", avg.TEW/n), 100*avg.TER/n)
	}
	return "Table III: WHISPER results with target EW 40us, TEW 2us\n" + t.String()
}

// --- Figures 9/10/11: overhead breakdowns -----------------------------------

// OverheadBar is one stacked bar of an overhead figure.
type OverheadBar struct {
	// Prog is the workload or kernel name.
	Prog string `json:"prog"`
	// Label names the configuration (e.g. "MM(40us)" or "TT(80us)").
	Label string `json:"label"`
	// Total is the relative execution-time overhead vs unprotected.
	Total float64
	// Attach, Detach, Rand, Cond, Other are the stacked components as
	// fractions of baseline time.
	Attach, Detach, Rand, Cond, Other float64
}

func bar(prog, label string, prot, base core.Result) OverheadBar {
	b := float64(base.Cycles)
	if b == 0 {
		// A zero-cycle baseline (an errored or empty cell) would make
		// every ratio below NaN/Inf, which encoding/json refuses to
		// marshal; emit an all-zero bar instead of poisoning the Grid.
		return OverheadBar{Prog: prog, Label: label}
	}
	ov := float64(prot.Cycles)/b - 1
	out := OverheadBar{
		Prog: prog, Label: label, Total: ov,
		Attach: float64(prot.Costs[sim.Attach]) / b,
		Detach: float64(prot.Costs[sim.Detach]) / b,
		Rand:   float64(prot.Costs[sim.Rand]) / b,
		Cond:   float64(prot.Costs[sim.Cond]) / b,
	}
	out.Other = ov - out.Attach - out.Detach - out.Rand - out.Cond
	if out.Other < 0 {
		out.Other = 0
	}
	return out
}

// figure9Cells enumerates each workload's unprotected baseline followed
// by the five protected configurations.
func figure9Cells(o ExpOpts) []runner.Cell {
	var cells []runner.Cell
	for _, mk := range whisper.All() {
		name := mk().Name()
		cells = append(cells, whisperCell("fig9", "base", name, Unprotected, 40, o))
		for _, c := range overheadConfigs {
			cells = append(cells, whisperCell("fig9", c.label, name, c.scheme, c.ew, o))
		}
	}
	return cells
}

// specOverheadCells enumerates each kernel's baseline plus configs.
func specOverheadCells(exp string, threads int, configs []expConfig, o ExpOpts) []runner.Cell {
	var cells []runner.Cell
	for _, k := range speckit.Kernels() {
		cells = append(cells, specCell(exp, "base", k.Name, Unprotected, 40, threads, o))
		for _, c := range configs {
			cells = append(cells, specCell(exp, c.label, k.Name, c.scheme, c.ew, threads, o))
		}
	}
	return cells
}

func figure10Cells(o ExpOpts) []runner.Cell {
	return specOverheadCells("fig10", 1, overheadConfigs, o)
}

func figure11Cells(o ExpOpts) []runner.Cell {
	return specOverheadCells("fig11", params.Cores, ablationConfigs, o)
}

// assembleBars folds baseline-then-configs cell groups into stacked bars:
// each Unprotected cell opens a new group and every following protected
// cell is measured against it.
func assembleBars(spec ExperimentSpec, res []runner.CellResult, g *Grid) error {
	var base core.Result
	for _, r := range res {
		if r.Cell.Scheme == Unprotected {
			base = r.Result
			continue
		}
		g.Bars = append(g.Bars, bar(r.Cell.Workload, r.Cell.Label, r.Result, base))
	}
	return nil
}

// FormatOverheads renders an overhead figure as grouped ASCII bars.
func FormatOverheads(title string, bars []OverheadBar) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	var max float64
	for _, x := range bars {
		if x.Total > max {
			max = x.Total
		}
	}
	if max == 0 {
		max = 1
	}
	prog := ""
	for _, x := range bars {
		if x.Prog != prog {
			prog = x.Prog
			fmt.Fprintf(&b, "%s:\n", prog)
		}
		fmt.Fprintf(&b, "  %s\n", stats.Bar(x.Label, x.Total, max, 50))
		fmt.Fprintf(&b, "    attach %.2f%% detach %.2f%% rand %.2f%% cond %.2f%% other %.2f%%\n",
			100*x.Attach, 100*x.Detach, 100*x.Rand, 100*x.Cond, 100*x.Other)
	}
	return b.String()
}

// --- Table IV ---------------------------------------------------------------

// Table4Row is one Table IV row: SPEC exposure under MM and TT.
type Table4Row struct {
	// Prog is the kernel name; PMOs its persistent array count.
	Prog string `json:"prog"`
	PMOs int
	// Exposure figures as in WhisperRow.
	MMEWAvg, MMEWMax, MMER float64
	Silent                 float64
	TTEWAvg, TTEWMax, TTER float64
	TEW, TER               float64
}

// table4Cells enumerates each kernel under MM then TT (single thread).
func table4Cells(exp string, o ExpOpts) []runner.Cell {
	var cells []runner.Cell
	for _, k := range speckit.Kernels() {
		cells = append(cells,
			specCell(exp, "MM(40us)", k.Name, MM, 40, 1, o),
			specCell(exp, "TT(40us)", k.Name, TT, 40, 1, o))
	}
	return cells
}

// table4Rows folds (MM, TT) cell pairs into rows.
func table4Rows(res []runner.CellResult) []Table4Row {
	pmos := map[string]int{}
	for _, k := range speckit.Kernels() {
		pmos[k.Name] = k.PMOs
	}
	var rows []Table4Row
	for i := 0; i+1 < len(res); i += 2 {
		mm, tt := res[i].Result, res[i+1].Result
		rows = append(rows, Table4Row{
			Prog: res[i].Cell.Workload, PMOs: pmos[res[i].Cell.Workload],
			MMEWAvg: params.ToMicros(uint64(mm.Exposure.AvgEW)),
			MMEWMax: params.ToMicros(uint64(mm.Exposure.MaxEW)),
			MMER:    mm.Exposure.ER,
			Silent:  tt.Counts.SilentPercent(),
			TTEWAvg: params.ToMicros(uint64(tt.Exposure.AvgEW)),
			TTEWMax: params.ToMicros(uint64(tt.Exposure.MaxEW)),
			TTER:    tt.Exposure.ER,
			TEW:     params.ToMicros(uint64(tt.Exposure.AvgTEW)),
			TER:     tt.Exposure.TER,
		})
	}
	return rows
}

func assembleTable4(spec ExperimentSpec, res []runner.CellResult, g *Grid) error {
	g.Spec = table4Rows(res)
	return nil
}

// FormatTable4 renders Table IV.
func FormatTable4(rows []Table4Row) string {
	t := stats.NewTable("Prog", "#PMOs", "MM EW avg/max(us)", "MM ER%",
		"Silent%", "TT EW avg/max(us)", "TT ER%", "TEW(us)", "TER%")
	for _, r := range rows {
		t.AddRow(r.Prog, r.PMOs,
			fmt.Sprintf("%.1f/%.1f", r.MMEWAvg, r.MMEWMax), 100*r.MMER,
			r.Silent,
			fmt.Sprintf("%.1f/%.1f", r.TTEWAvg, r.TTEWMax), 100*r.TTER,
			fmt.Sprintf("%.2f", r.TEW), 100*r.TER)
	}
	return "Table IV: SPEC results on 40us EW (single thread, multi-PMO)\n" + t.String()
}

// --- Table V ----------------------------------------------------------------

// Table5Row is one quantitative-comparison row.
type Table5Row struct {
	// AttackMicros is the per-probe attack time x.
	AttackMicros float64
	// MERRPct and TERPPct are success probabilities in percent.
	MERRPct, TERPPct float64
}

// Table5 reproduces the Table V analysis at the paper's measured TERP
// thread exposure rate (3.4%).
func Table5() []Table5Row {
	var rows []Table5Row
	for _, x := range attack.AttackTimes() {
		m, t := attack.TableVRow(x, attack.DefaultTERPAccessFraction)
		rows = append(rows, Table5Row{AttackMicros: x, MERRPct: m, TERPPct: t})
	}
	return rows
}

// table5ProbeTrials and table5Probes size the Monte-Carlo validation an
// instrumented table5 run records for the report layer: 64 windows of 40
// probes each — enough hits to correlate, cheap enough for CI.
const (
	table5ProbeTrials = 64
	table5Probes      = 40
)

func assembleTable5(spec ExperimentSpec, res []runner.CellResult, g *Grid) error {
	g.Attack = Table5()
	if spec.Obs.Enabled() {
		var rec *obs.Recorder
		if spec.Obs.Trace {
			rec = obs.NewRecorder(spec.Obs.TraceCap)
		}
		frac, err := attack.MonteCarloProbeObs(table5ProbeTrials, table5Probes, spec.Opts.Seed, rec)
		if err != nil {
			return err
		}
		attachAnalysisObs(spec, g, "table5/probe/mc", rec, func(s *obs.Snapshot) {
			s.Add("attack/probe/trials", table5ProbeTrials)
			s.Add("attack/probe/hits", uint64(frac*table5ProbeTrials+0.5))
		})
	}
	return nil
}

// FormatTable5 renders Table V.
func FormatTable5(rows []Table5Row) string {
	t := stats.NewTable("Attack time x(us)", "MERR succ.%", "TERP succ.%", "Reduction")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.1f", r.AttackMicros),
			fmt.Sprintf("%.5f", r.MERRPct),
			fmt.Sprintf("%.5f", r.TERPPct),
			fmt.Sprintf("%.0fx", r.MERRPct/r.TERPPct))
	}
	return "Table V: probe-attack success probability per window (1GB PMO, 40us EW, 2us TEW)\n" + t.String()
}

// --- Table VI ---------------------------------------------------------------

// Table6Result is the attack-scenario analysis: time-weighted gadget
// disarm rates derived from measured exposure, per suite.
type Table6Result struct {
	// Rows holds one entry per suite.
	Rows []attack.ScenarioRow
	// SpecCensus is the static gadget census over the instrumented
	// SPEC kernels (every PMO access gadget must be window-covered).
	SpecCensus attack.GadgetCensus
}

// table6Cells reuses the Table III enumeration (at a quarter of the ops)
// followed by the Table IV enumeration, exactly as the serial driver
// composed them.
func table6Cells(o ExpOpts) []runner.Cell {
	cells := table3Cells("table6", ExpOpts{Ops: o.Ops / 4, Seed: o.Seed}.withDefaults())
	return append(cells, table4Cells("table6", ExpOpts{Scale: o.Scale, Seed: o.Seed}.withDefaults())...)
}

func assembleTable6(spec ExperimentSpec, res []runner.CellResult, g *Grid) error {
	split := 0
	for split < len(res) && res[split].Cell.Kind == runner.Whisper {
		split++
	}
	var out Table6Result

	// WHISPER row: average MM ER vs TT TER.
	wr := table3Rows(res[:split])
	var er, ter float64
	for _, r := range wr {
		er += r.MMER
		ter += r.TER
	}
	n := float64(len(wr))
	out.Rows = append(out.Rows, attack.BuildScenarioRow("WHISPER", er/n, ter/n))

	// SPEC row.
	sr := table4Rows(res[split:])
	er, ter = 0, 0
	for _, r := range sr {
		er += r.MMER
		ter += r.TER
	}
	n = float64(len(sr))
	out.Rows = append(out.Rows, attack.BuildScenarioRow("SPEC", er/n, ter/n))

	// Static census over instrumented kernels.
	census, err := specGadgetCensus(spec.Opts)
	if err != nil {
		return err
	}
	out.SpecCensus = census
	g.Scenarios = &out
	return nil
}

// FormatTable6 renders Table VI, including the full scenario matrix
// (gadget/window relationship x attacker capability).
func FormatTable6(r Table6Result) string {
	t := stats.NewTable("Suite", "MERR keeps usable", "TERP keeps usable", "TERP disarms")
	for _, row := range r.Rows {
		t.AddRow(row.Suite,
			fmt.Sprintf("%.1f%%", 100*row.MERRUsable),
			fmt.Sprintf("%.2f%%", 100*row.TERPUsable),
			fmt.Sprintf("%.2f%%", 100*row.DisarmedTERP()))
	}
	s := "Table VI: gadget capability under the attack scenarios\n" + t.String()
	s += fmt.Sprintf("Static census (SPEC kernels): %d PMO gadgets, %.1f%% inside attach-detach windows\n",
		r.SpecCensus.Total, 100*r.SpecCensus.CoveredFraction())
	if len(r.Rows) == 2 {
		m := attack.BuildScenarioMatrix(r.Rows[0].DisarmedTERP(), r.Rows[1].DisarmedTERP(), params.DefaultEWMicros)
		s += "\nScenario matrix:\n" + m.String()
	}
	return s
}

// specGadgetCensus instruments every SPEC kernel (via the shared program
// cache, so `-exp all` reuses the Table IV compiles) and scans the result
// for gadget coverage.
func specGadgetCensus(o ExpOpts) (attack.GadgetCensus, error) {
	var total attack.GadgetCensus
	opt := terpc.Options{
		EWThreshold:  params.Micros(params.DefaultEWMicros),
		TEWThreshold: params.Micros(params.DefaultTEWMicros),
	}
	for _, k := range speckit.Kernels() {
		l, err := runner.DefaultCache.Linked(k, o.Scale, true, opt)
		if err != nil {
			return total, err
		}
		c := attack.ScanProgram(l.Prog)
		total.Total += c.Total
		total.Covered += c.Covered
		total.Gadgets = append(total.Gadgets, c.Gadgets...)
	}
	return total, nil
}

// --- Figure 8 ---------------------------------------------------------------

// Figure8Result is the dead-time study outcome.
type Figure8Result struct {
	// Hist is the dead-time distribution in microseconds.
	Hist *stats.Histogram
	// AtLeastTEW is the fraction of dead times >= the 2 us TEW target
	// (the attack-surface reduction of choosing TEW = 2 us).
	AtLeastTEW float64
}

func assembleFigure8(spec ExperimentSpec, res []runner.CellResult, g *Grid) error {
	var rec *obs.Recorder
	if spec.Obs.Trace {
		rec = obs.NewRecorder(spec.Obs.TraceCap)
	}
	h, frac, err := attack.DeadTimeStudyObs(spec.Opts.Seed, rec)
	if err != nil {
		return err
	}
	g.DeadTime = &Figure8Result{Hist: h, AtLeastTEW: frac}
	attachAnalysisObs(spec, g, "fig8/deadtime/scan", rec, func(s *obs.Snapshot) {
		s.Add("attack/deadtime/samples", h.N)
	})
	return nil
}

// attachAnalysisObs surfaces an analysis-only experiment's recorder and
// counters as a single synthetic obs cell — the same shape runner cells
// produce — so the report layer sees attack instants without re-running
// the scans. No-op when the spec collects nothing.
func attachAnalysisObs(spec ExperimentSpec, g *Grid, cell string, rec *obs.Recorder, fill func(*obs.Snapshot)) {
	if !spec.Obs.Enabled() {
		return
	}
	c := &obs.CellObs{Cell: cell}
	if spec.Obs.Metrics {
		c.Metrics = obs.NewSnapshot()
		fill(c.Metrics)
	}
	if rec != nil {
		c.TraceEvents = rec.Total()
		c.TraceDropped = rec.Dropped()
		c.Events = rec.Events()
	}
	g.Obs = obs.NewGridObs([]*obs.CellObs{c}, spec.Obs.Metrics)
}

// FormatFigure8 renders the distribution.
func FormatFigure8(r Figure8Result) string {
	var b strings.Builder
	b.WriteString("Figure 8: time from last write to deallocation (attack surface)\n")
	for i := range r.Hist.Counts {
		frac := r.Hist.Fraction(i)
		fmt.Fprintf(&b, "  %12s us  %5.1f%% |%s\n", r.Hist.BucketLabel(i), 100*frac,
			strings.Repeat("#", int(frac*120)))
	}
	fmt.Fprintf(&b, "P(dead time >= 2us) = %.1f%% -> a 2us TEW removes %.1f%% of the surface\n",
		100*r.AtLeastTEW, 100*r.AtLeastTEW)
	return b.String()
}

// --- Semantics-space exploration (Section IV) --------------------------------

// SemanticsStudyResult compares the four attach/detach semantics of
// Section IV on two traces: the nested-library trace (Figure 3) and the
// overlapping-threads trace (Figure 4).
type SemanticsStudyResult struct {
	// Nested holds the per-policy results for the nesting trace.
	Nested []semantics.StudyResult
	// Parallel holds the per-policy results for the concurrency trace.
	Parallel []semantics.StudyResult
}

// SemanticsStudy runs the exploration with a 2us EW-conscious holdoff.
func SemanticsStudy() SemanticsStudyResult {
	var out SemanticsStudyResult
	l := params.Micros(params.DefaultTEWMicros)
	nested := semantics.NestedTrace(50, 3, 200)
	par := semantics.ParallelTrace(4, 50, 100)
	for _, p := range semantics.AllPolicies(l) {
		out.Nested = append(out.Nested, semantics.RunStudy(p, nested))
		out.Parallel = append(out.Parallel, semantics.RunStudy(p, par))
	}
	return out
}

func assembleSemantics(spec ExperimentSpec, res []runner.CellResult, g *Grid) error {
	r := SemanticsStudy()
	g.Semantics = &r
	return nil
}

// FormatSemanticsStudy renders the exploration as two tables.
func FormatSemanticsStudy(r SemanticsStudyResult) string {
	var b strings.Builder
	render := func(title string, rows []semantics.StudyResult) {
		b.WriteString(title + "\n")
		t := stats.NewTable("semantics", "errors", "real ops", "lowered", "silent", "denied acc.", "EW avg/max (us)")
		for _, row := range rows {
			t.AddRow(row.Policy, row.Errors, row.RealOps, row.Lowered, row.Silent,
				row.DeniedAccesses,
				fmt.Sprintf("%.1f/%.1f", params.ToMicros(uint64(row.AvgEW)), params.ToMicros(uint64(row.MaxEW))))
		}
		b.WriteString(t.String())
	}
	render("Semantics exploration — nested library calls (Figure 3 situation):", r.Nested)
	b.WriteString("\n")
	render("Semantics exploration — overlapping threads (Figure 4 situation):", r.Parallel)
	b.WriteString(`
Reading: Basic rejects nesting and concurrent windows outright (every
rejected call is a crash or a lost protection in a real program). FCFS
accepts them but performs the first detach it sees, then denies the
program's own remaining accesses — it cannot tell benign late accesses
from an attacker's. Outermost silences inner pairs, so its window always
spans the whole outermost nest, however long that runs. EW-conscious is
the only semantics with zero errors and zero denied accesses; its windows
may combine (they exceed the others here by design), which is exactly
what the TERP hardware's timer then bounds to the EW target — the
division of labor of Section IV-C plus Section V-B.
`)
	return b.String()
}

// --- EW security/performance frontier (extension of Section VII-A) ----------

// EWSweepRow is one point of the exposure-window frontier: the overhead a
// target costs and the probe-attack success probability it concedes.
type EWSweepRow struct {
	// EWMicros is the exposure window target.
	EWMicros float64
	// OverheadPct is the measured WHISPER-average overhead (percent).
	OverheadPct float64
	// MERRSuccPct and TERPSuccPct are per-window probe success
	// probabilities (percent, 1 us attack time, 1 GB PMO).
	MERRSuccPct, TERPSuccPct float64
}

// ewSweepCells enumerates (baseline, TT) pairs per workload at each
// sweep point.
func ewSweepCells(o ExpOpts, ews []float64) []runner.Cell {
	var cells []runner.Cell
	for _, ew := range ews {
		for _, mk := range whisper.All() {
			name := mk().Name()
			cells = append(cells,
				whisperCell("ewsweep", "base", name, Unprotected, ew, o),
				whisperCell("ewsweep", fmt.Sprintf("TT(%.0fus)", ew), name, TT, ew, o))
		}
	}
	return cells
}

func assembleEWSweep(spec ExperimentSpec, res []runner.CellResult, g *Grid) error {
	ews := spec.sweepPoints()
	n := len(whisper.All())
	per := 2 * n
	for i, ew := range ews {
		grp := res[i*per : (i+1)*per]
		var ovSum, terSum float64
		for j := 0; j+1 < len(grp); j += 2 {
			base, prot := grp[j].Result, grp[j+1].Result
			ovSum += float64(prot.Cycles)/float64(base.Cycles) - 1
			terSum += prot.Exposure.TER
		}
		merr := attack.ProbeModel{PMOBytes: 1 << 30, EWMicros: ew, AttackMicros: 1, AccessFraction: 1}
		terp := merr
		terp.AccessFraction = terSum / float64(n)
		g.Frontier = append(g.Frontier, EWSweepRow{
			EWMicros:    ew,
			OverheadPct: 100 * ovSum / float64(n),
			MERRSuccPct: merr.SuccessPercent(),
			TERPSuccPct: terp.SuccessPercent(),
		})
	}
	return nil
}

// FormatEWSweep renders the frontier.
func FormatEWSweep(rows []EWSweepRow) string {
	t := stats.NewTable("EW target (us)", "TT overhead %", "MERR succ.%/win", "TERP succ.%/win")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.0f", r.EWMicros),
			fmt.Sprintf("%.1f", r.OverheadPct),
			fmt.Sprintf("%.5f", r.MERRSuccPct),
			fmt.Sprintf("%.5f", r.TERPSuccPct))
	}
	return "EW frontier: protection cost vs probe-attack success (extension)\n" + t.String()
}

// --- Crash matrix (extension): fault injection + recovery verification ------

// CrashRow summarizes one fault-injection cell: a workload driven over
// the persist-buffer model with crashes injected under one enumeration
// policy, every post-crash image verified through recovery.
type CrashRow struct {
	// Prog is the workload; Policy and Adversarial name the injection
	// configuration.
	Prog        string `json:"prog"`
	Policy      string `json:"policy"`
	Adversarial bool   `json:"adversarial"`
	// Ops is the instrumented run length; Events and Fences count its
	// persist events; Candidates is the policy's full enumeration.
	Ops        int    `json:"ops"`
	Events     uint64 `json:"events"`
	Fences     uint64 `json:"fences"`
	Candidates int    `json:"candidates"`
	// Points is how many crash images were materialized and verified;
	// Undone sums the undo records recovery rolled back; Dropped sums
	// the flushed-but-unfenced lines the adversary discarded.
	Points  int `json:"points"`
	Undone  int `json:"undone"`
	Dropped int `json:"dropped"`
	// Checked counts images cross-checked against the exhaustive
	// crash-state enumerator (txnpairs cells; see internal/litmus).
	Checked int `json:"checked,omitempty"`
	// Failures counts images that failed recovery verification (the
	// experiment's pass criterion is zero).
	Failures int `json:"failures"`
}

// crashOps derives the instrumented run length from the experiment op
// count: every cell replays the workload twice and verifies each point
// against a fresh device, so full-length runs buy nothing.
func crashOps(ops int) int {
	n := ops / 250
	if n < 120 {
		n = 120
	}
	if n > 1500 {
		n = 1500
	}
	return n
}

// crashPointsPerCell is the injection budget per cell; with the txnpairs
// micro-workload plus the six WHISPER workloads under two policies each,
// the matrix injects up to 7*2*8 = 112 crash points.
const crashPointsPerCell = 8

// crashCells enumerates the matrix: per workload, a strict-ordering cell
// crashing at every 23rd fence (spreading points across the run) and an
// adversarial cell crashing at a seeded-random sample of persist events
// with flushed-but-unfenced lines dropped from each image.
func crashCells(exp string, o ExpOpts) []runner.Cell {
	names := []string{"txnpairs"}
	for _, mk := range whisper.All() {
		names = append(names, mk().Name())
	}
	ops := crashOps(o.Ops)
	var cells []runner.Cell
	for _, name := range names {
		// txnpairs keeps few writebacks in flight, so its sampled images
		// are additionally cross-checked against the exhaustive litmus
		// enumeration; WHISPER working sets exceed the enumeration cap.
		check := name == "txnpairs"
		cells = append(cells,
			runner.Cell{
				Exp: exp, Label: "fence/strict", Kind: runner.Crash, Workload: name,
				Seed: o.Seed, Ops: ops,
				Policy: string(crash.FencePolicy), Every: 23, PointCount: crashPointsPerCell,
				CrossCheck: check,
			},
			runner.Cell{
				Exp: exp, Label: "random/adv", Kind: runner.Crash, Workload: name,
				Seed: o.Seed, Ops: ops,
				Policy: string(crash.RandomPolicy), PointCount: crashPointsPerCell,
				Adversarial: true, CrossCheck: check,
			})
	}
	return cells
}

// crashRows folds one report per cell into rows.
func crashRows(res []runner.CellResult) []CrashRow {
	var rows []CrashRow
	for _, r := range res {
		rep := r.Crash
		if rep == nil {
			continue
		}
		row := CrashRow{
			Prog:        rep.Workload,
			Policy:      string(rep.Policy),
			Adversarial: rep.Adversarial,
			Ops:         rep.Ops,
			Events:      rep.Events,
			Fences:      rep.Fences,
			Candidates:  rep.Candidates,
			Points:      len(rep.Points),
			Undone:      rep.Undone,
			Checked:     rep.CrossChecked,
			Failures:    rep.Failures,
		}
		for _, p := range rep.Points {
			row.Dropped += p.Dropped
		}
		rows = append(rows, row)
	}
	return rows
}

func assembleCrash(spec ExperimentSpec, res []runner.CellResult, g *Grid) error {
	g.Crash = crashRows(res)
	return nil
}

// FormatCrash renders the matrix.
func FormatCrash(rows []CrashRow) string {
	t := stats.NewTable("Prog", "Policy", "Adv", "Ops", "Events", "Fences",
		"Cand", "Points", "Undone", "Dropped", "Fail")
	points, failures := 0, 0
	for _, r := range rows {
		adv := "-"
		if r.Adversarial {
			adv = "yes"
		}
		t.AddRow(r.Prog, r.Policy, adv, r.Ops, r.Events, r.Fences,
			r.Candidates, r.Points, r.Undone, r.Dropped, r.Failures)
		points += r.Points
		failures += r.Failures
	}
	verdict := "all recovered"
	if failures > 0 {
		verdict = fmt.Sprintf("%d FAILED", failures)
	}
	return fmt.Sprintf("Crash matrix: %d injected crash points, %s (extension)\n%s",
		points, verdict, t.String())
}

// --- Litmus matrix (extension): persistency-model verification ---------------

// LitmusRow summarizes one litmus suite cell: exhaustive crash-state
// enumeration over the persist-buffer model diffed against the Px86
// oracle (see internal/litmus).
type LitmusRow struct {
	// Suite names the program source ("named" or "gen/<seed>").
	Suite string `json:"suite"`
	// Seed seeds the generator (0 for the named suite).
	Seed int64 `json:"seed"`
	// Programs and Events count litmus programs and their persist events.
	Programs int `json:"programs"`
	Events   int `json:"events"`
	// ModelStates and SpecStates sum the exact enumerated image counts.
	ModelStates int `json:"modelStates"`
	SpecStates  int `json:"specStates"`
	// ModelOnly counts spec-forbidden model states (model bugs);
	// Eviction and WbReplace count the allowlisted spec-only classes.
	ModelOnly int `json:"modelOnly"`
	Eviction  int `json:"eviction"`
	WbReplace int `json:"wbReplace"`
	// Violations counts non-allowlisted divergences plus expected-count
	// mismatches (the experiment's pass criterion is zero).
	Violations int `json:"violations"`
}

// litmusGenCells is the number of generated-suite cells; each runs
// litmusProgs(ops) programs under its own seed.
const litmusGenCells = 4

// litmusProgs derives the generated-program count per cell from the
// experiment op count: enumeration is exhaustive per program, so depth
// comes from program variety, not run length.
func litmusProgs(ops int) int {
	n := ops / 4000
	if n < 6 {
		n = 6
	}
	if n > 50 {
		n = 50
	}
	return n
}

// litmusCells enumerates the matrix: the hand-written named suite, then
// litmusGenCells generated suites under consecutive seeds.
func litmusCells(exp string, o ExpOpts) []runner.Cell {
	cells := []runner.Cell{{
		Exp: exp, Label: "named", Kind: runner.Litmus, Workload: "named", Seed: o.Seed,
	}}
	for i := 0; i < litmusGenCells; i++ {
		seed := o.Seed + int64(i)
		cells = append(cells, runner.Cell{
			Exp: exp, Label: fmt.Sprintf("gen/%d", seed), Kind: runner.Litmus,
			Workload: "gen", Seed: seed, Ops: litmusProgs(o.Ops),
		})
	}
	return cells
}

// litmusRows folds one report per cell into rows.
func litmusRows(res []runner.CellResult) []LitmusRow {
	var rows []LitmusRow
	for _, r := range res {
		rep := r.Litmus
		if rep == nil {
			continue
		}
		row := LitmusRow{
			Suite:       rep.Suite,
			Programs:    rep.Programs,
			Events:      rep.Events,
			ModelStates: rep.ModelStates,
			SpecStates:  rep.SpecStates,
			ModelOnly:   rep.ModelOnly,
			Eviction:    rep.Eviction,
			WbReplace:   rep.WbReplace,
			Violations:  rep.Violations,
		}
		if r.Cell.Workload == "gen" {
			row.Seed = r.Cell.Seed
		}
		rows = append(rows, row)
	}
	return rows
}

func assembleLitmus(spec ExperimentSpec, res []runner.CellResult, g *Grid) error {
	g.Litmus = litmusRows(res)
	return nil
}

// FormatLitmus renders the matrix.
func FormatLitmus(rows []LitmusRow) string {
	t := stats.NewTable("Suite", "Progs", "Events", "Model", "Spec",
		"ModelOnly", "Evict", "WbRepl", "Viol")
	programs, states, violations := 0, 0, 0
	for _, r := range rows {
		t.AddRow(r.Suite, r.Programs, r.Events, r.ModelStates, r.SpecStates,
			r.ModelOnly, r.Eviction, r.WbReplace, r.Violations)
		programs += r.Programs
		states += r.ModelStates
		violations += r.Violations
	}
	verdict := "model within spec"
	if violations > 0 {
		verdict = fmt.Sprintf("%d VIOLATIONS", violations)
	}
	return fmt.Sprintf("Litmus matrix: %d programs, %d enumerated crash states, %s (extension)\n%s",
		programs, states, verdict, t.String())
}
