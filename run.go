package terp

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
)

// ExperimentSpec selects and scales one experiment for Run. The zero
// Opts reproduce the paper's settings; Parallel <= 0 uses every core.
//
// The spec doubles as the versioned wire format shared by terpbench
// (-spec), terpd and its clients: ParseSpec decodes and validates the
// JSON form, and every serializable field carries a lowerCamel JSON
// name. Progress is process-local and never crosses the wire.
type ExperimentSpec struct {
	// Version is the wire-format version (see WireVersion). The zero
	// value means "current" so in-process literals need not set it;
	// ParseSpec rejects anything else it does not speak.
	Version int `json:"version,omitempty"`
	// Name is the experiment: one of Experiments().
	Name string `json:"name"`
	// Opts scales the runs (ops, kernel scale, seed).
	Opts ExpOpts `json:"opts"`
	// Parallel is the worker-pool size for the experiment's cells:
	// 1 forces a serial run, 0 (or negative) uses GOMAXPROCS. Results
	// are bit-identical at every worker count. RunOn on a shared pool
	// ignores it (the pool's size governs).
	Parallel int `json:"parallel,omitempty"`
	// EWMicros lists the sweep points for the "ewsweep" experiment;
	// nil selects the default 40/80/160/320 us. Each point must pass
	// params.CheckEW. Other experiments ignore it.
	EWMicros []float64 `json:"ewMicros,omitempty"`
	// Progress, when set, receives live cell-completion events: done
	// cells out of total, plus the finished cell's display name.
	Progress func(done, total int, cell string) `json:"-"`
	// Obs selects per-cell tracing/metrics collection; the zero value
	// (everything off) leaves the Grid byte-identical to an
	// uninstrumented build.
	Obs obs.Config `json:"obs,omitempty"`
}

// Grid is one experiment's structured results. Exactly one payload field
// is populated, named after the shape of the experiment's data; the JSON
// encoding omits the rest, so a Grid marshals to a compact, stable
// document for the bench trajectory. Two runs with the same spec marshal
// to identical bytes regardless of worker count.
type Grid struct {
	// Version is the wire-format version the grid was produced under
	// (WireVersion for grids built by this package; see ParseGrids).
	Version int `json:"version"`
	// Name is the experiment that ran; Opts the effective options.
	Name string  `json:"name"`
	Opts ExpOpts `json:"opts"`

	// Whisper holds Table III rows.
	Whisper []WhisperRow `json:"whisper,omitempty"`
	// Spec holds Table IV rows.
	Spec []Table4Row `json:"spec,omitempty"`
	// Bars holds the stacked overhead bars of Figures 9-11.
	Bars []OverheadBar `json:"bars,omitempty"`
	// Attack holds Table V rows.
	Attack []Table5Row `json:"attack,omitempty"`
	// Scenarios holds the Table VI analysis.
	Scenarios *Table6Result `json:"scenarios,omitempty"`
	// DeadTime holds the Figure 8 study.
	DeadTime *Figure8Result `json:"deadTime,omitempty"`
	// Semantics holds the Section IV exploration.
	Semantics *SemanticsStudyResult `json:"semantics,omitempty"`
	// Frontier holds the EW sweep rows.
	Frontier []EWSweepRow `json:"frontier,omitempty"`
	// Crash holds the crash-consistency fault-injection matrix.
	Crash []CrashRow `json:"crash,omitempty"`
	// Litmus holds the persistency-model litmus matrix.
	Litmus []LitmusRow `json:"litmus,omitempty"`

	// Obs holds per-cell metrics and trace summaries when the spec
	// enabled collection; nil (and absent from the JSON) otherwise, so
	// disabled runs marshal exactly as before.
	Obs *obs.GridObs `json:"obs,omitempty"`
}

// Traces returns the named per-cell event streams for the trace
// exporters (empty when tracing was off).
func (g *Grid) Traces() []obs.CellTrace {
	if g.Obs == nil {
		return nil
	}
	var out []obs.CellTrace
	for _, c := range g.Obs.Cells {
		if len(c.Events) > 0 {
			out = append(out, obs.CellTrace{Name: c.Cell, Events: c.Events})
		}
	}
	return out
}

// JSON renders the grid as indented JSON.
func (g *Grid) JSON() ([]byte, error) { return json.MarshalIndent(g, "", "  ") }

// ReportInput assembles the report input for a set of finished grids
// (grids without observability payloads are skipped) — the hook
// `terpreport` and `terpbench -report` build run reports from, and the
// form the -baseline gate compares.
func ReportInput(title string, grids []*Grid) report.Input {
	in := report.Input{Title: title}
	for _, g := range grids {
		if g.Obs == nil {
			continue
		}
		in.Experiments = append(in.Experiments, report.Experiment{
			Name: g.Name,
			Opts: fmt.Sprintf("ops=%d scale=%d seed=%d", g.Opts.Ops, g.Opts.Scale, g.Opts.Seed),
			Obs:  g.Obs,
		})
	}
	return in
}

// Format renders the grid in the experiment's table or figure layout.
func (g *Grid) Format() string {
	e, ok := findExperiment(g.Name)
	if !ok {
		return fmt.Sprintf("unknown experiment %q", g.Name)
	}
	return e.format(g)
}

// experiment wires one name to its cell enumeration, result assembly and
// text rendering. Experiments that are pure analysis (no simulation
// cells) leave cells nil.
type experiment struct {
	name     string
	cells    func(spec ExperimentSpec) []runner.Cell
	assemble func(spec ExperimentSpec, res []runner.CellResult, g *Grid) error
	format   func(g *Grid) string
}

// experimentTable lists every experiment in the order `-exp all` runs
// them.
var experimentTable = []experiment{
	{
		name:     "fig8",
		assemble: assembleFigure8,
		format:   func(g *Grid) string { return FormatFigure8(*g.DeadTime) },
	},
	{
		name:     "table3",
		cells:    func(s ExperimentSpec) []runner.Cell { return table3Cells("table3", s.Opts) },
		assemble: assembleTable3,
		format:   func(g *Grid) string { return FormatTable3(g.Whisper) },
	},
	{
		name:     "fig9",
		cells:    func(s ExperimentSpec) []runner.Cell { return figure9Cells(s.Opts) },
		assemble: assembleBars,
		format: func(g *Grid) string {
			return FormatOverheads("Figure 9: WHISPER execution-time overheads", g.Bars)
		},
	},
	{
		name:     "table4",
		cells:    func(s ExperimentSpec) []runner.Cell { return table4Cells("table4", s.Opts) },
		assemble: assembleTable4,
		format:   func(g *Grid) string { return FormatTable4(g.Spec) },
	},
	{
		name:     "fig10",
		cells:    func(s ExperimentSpec) []runner.Cell { return figure10Cells(s.Opts) },
		assemble: assembleBars,
		format: func(g *Grid) string {
			return FormatOverheads("Figure 10: SPEC single-thread overheads", g.Bars)
		},
	},
	{
		name:     "fig11",
		cells:    func(s ExperimentSpec) []runner.Cell { return figure11Cells(s.Opts) },
		assemble: assembleBars,
		format: func(g *Grid) string {
			return FormatOverheads("Figure 11: SPEC 4-thread ablation", g.Bars)
		},
	},
	{
		name:     "table5",
		assemble: assembleTable5,
		format:   func(g *Grid) string { return FormatTable5(g.Attack) },
	},
	{
		name:     "semantics",
		assemble: assembleSemantics,
		format:   func(g *Grid) string { return FormatSemanticsStudy(*g.Semantics) },
	},
	{
		name:     "ewsweep",
		cells:    func(s ExperimentSpec) []runner.Cell { return ewSweepCells(s.Opts, s.sweepPoints()) },
		assemble: assembleEWSweep,
		format:   func(g *Grid) string { return FormatEWSweep(g.Frontier) },
	},
	{
		name:     "table6",
		cells:    func(s ExperimentSpec) []runner.Cell { return table6Cells(s.Opts) },
		assemble: assembleTable6,
		format:   func(g *Grid) string { return FormatTable6(*g.Scenarios) },
	},
	{
		name:     "crash",
		cells:    func(s ExperimentSpec) []runner.Cell { return crashCells("crash", s.Opts) },
		assemble: assembleCrash,
		format:   func(g *Grid) string { return FormatCrash(g.Crash) },
	},
	{
		name:     "litmus",
		cells:    func(s ExperimentSpec) []runner.Cell { return litmusCells("litmus", s.Opts) },
		assemble: assembleLitmus,
		format:   func(g *Grid) string { return FormatLitmus(g.Litmus) },
	},
}

// Canonical returns the spec in canonical identity form: the wire
// version stamped, Opts defaults applied, the ewsweep sweep list
// resolved (and cleared for experiments that ignore it), and the
// scheduling-only fields (Parallel, Progress) zeroed. Two specs with
// equal Canonical forms produce byte-identical grids, which is what
// lets the run ledger key its history on a hash of this form.
func (s ExperimentSpec) Canonical() ExperimentSpec {
	s.Version = WireVersion
	s.Opts = s.Opts.withDefaults()
	if s.Name == "ewsweep" {
		s.EWMicros = s.sweepPoints()
	} else {
		s.EWMicros = nil
	}
	s.Parallel = 0
	s.Progress = nil
	return s
}

// sweepPoints resolves the ewsweep sweep list.
func (s ExperimentSpec) sweepPoints() []float64 {
	if len(s.EWMicros) != 0 {
		return s.EWMicros
	}
	return []float64{40, 80, 160, 320}
}

func findExperiment(name string) (experiment, bool) {
	for _, e := range experimentTable {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// Experiments returns every experiment name in `-exp all` order.
func Experiments() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}

// Run executes one experiment: it enumerates the experiment's cells,
// executes them on a pool of spec.Parallel workers and assembles the
// structured Grid. It is RunOn with a background context and no shared
// pool.
func Run(spec ExperimentSpec) (*Grid, error) {
	return RunOn(context.Background(), nil, spec)
}

// RunOn is Run with cancellation on a caller-owned runner.Pool: the
// experiment's cells execute on the shared persistent workers
// (spec.Parallel is ignored — the pool's size governs), interleaved
// round-robin with any other job on the pool. A nil pool runs the cells
// on a one-off pool of spec.Parallel workers instead. A spec that fails
// Validate is rejected before any cell runs. Cancelling ctx
// mid-grid stops scheduling cells, interrupts the running ones at
// operation granularity, and returns an error satisfying errors.Is(err,
// ctx.Err()). Grids are byte-identical however the cells were scheduled,
// which is what lets terpd serve results indistinguishable from offline
// runs.
func RunOn(ctx context.Context, pool *runner.Pool, spec ExperimentSpec) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e, _ := findExperiment(spec.Name)
	spec.Opts = spec.Opts.withDefaults()

	var res []runner.CellResult
	if e.cells != nil {
		var err error
		if res, err = runCells(ctx, pool, spec, e.cells(spec)); err != nil {
			return nil, err
		}
	} else if err := ctx.Err(); err != nil {
		// Pure-analysis experiments have no cells; still honor ctx.
		return nil, err
	}

	g := &Grid{Version: WireVersion, Name: e.name, Opts: spec.Opts}
	if err := e.assemble(spec, res, g); err != nil {
		return nil, err
	}
	if spec.Obs.Enabled() {
		var cells []*obs.CellObs
		for _, r := range res {
			if r.Obs != nil {
				cells = append(cells, r.Obs)
			}
		}
		if len(cells) > 0 {
			g.Obs = obs.NewGridObs(cells, spec.Obs.Metrics)
		}
	}
	return g, nil
}

// runCells executes the cells as one job on pool. A nil pool is replaced
// by a one-off pool of spec.Parallel workers (GOMAXPROCS when <= 0, never
// more than there are cells), closed once the job is done.
func runCells(ctx context.Context, pool *runner.Pool, spec ExperimentSpec, cells []runner.Cell) ([]runner.CellResult, error) {
	if pool == nil {
		workers := spec.Parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		pool = runner.NewPool(min(workers, len(cells)))
		defer pool.Close()
	}
	var progress runner.Progress
	if p := spec.Progress; p != nil {
		progress = func(done, total int, last runner.Cell) { p(done, total, last.Name()) }
	}
	return pool.Run(ctx, cells, runner.Options{Progress: progress, Obs: spec.Obs})
}
