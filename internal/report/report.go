// Package report is the analysis layer over the observability subsystem:
// it consumes per-cell metrics snapshots and event streams (internal/obs)
// and produces the paper-style artifacts of the evaluation — per-PMO
// exposure timelines, exposure-duration CDFs and percentiles for MERR vs
// TERP, attack-correlation statistics (probe hits vs open exposure
// windows, dead-time surface vs the TEW target), and a cycle-overhead
// breakdown matching the paper's component accounts — plus benchmark
// regression tracking against a committed BENCH_*.json baseline.
//
// Its input is the runs' own payload: each Experiment holds the
// *obs.GridObs its grid carries, so the reports, Compare and
// CellCycleDeltas read exactly what the run produced and the wire
// carried. Parsing saved grids (and checking their wire version) is the
// root package's job, in terp.ParseGrids.
//
// Determinism contract: the package inherits obs's guarantees — every
// input value is keyed by simulated cycles and merged in enumeration
// order — and adds none of its own nondeterminism: no wall time, no map
// iteration without sorting, fixed-precision float rendering. Two runs of
// the same spec produce byte-identical text, HTML and verdict JSON at
// every -parallel level.
package report

import (
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/params"
)

// Experiment is one experiment's observability payload, as the run
// produced it and the wire carries it.
type Experiment struct {
	// Name is the experiment ("table3"); Opts a rendered options line.
	Name, Opts string
	// Obs holds the per-cell payloads in enumeration order and the
	// merged totals (nil when the run collected nothing).
	Obs *obs.GridObs
}

// cellLabel returns a cell's configuration label — the last segment of
// its slash-separated name ("table3/echo/MM(40us)" -> "MM(40us)").
func cellLabel(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// Input is everything one report is built from.
type Input struct {
	// Title heads the report (e.g. the command line that produced it,
	// minus anything nondeterministic).
	Title string
	// Experiments in run order.
	Experiments []Experiment
}

// Analysis constants. tewTargetMicros is the thread-exposure-window
// target the dead-time surface is measured against (the paper's 2 us).
// maxTimelinePMOs and maxTimelineSpans bound the per-PMO timelines
// rendered per configuration and the spans per timeline; the bounds are
// reported, never silent.
const (
	tewTargetMicros  = params.DefaultTEWMicros
	maxTimelinePMOs  = 8
	maxTimelineSpans = 120
)

// Report is the finished analysis.
type Report struct {
	// Title heads the report.
	Title string `json:"title"`
	// Experiments holds one section per experiment, in run order.
	Experiments []ExperimentReport `json:"experiments"`
	// Regression is the baseline comparison (nil when none was run).
	Regression *Regression `json:"regression,omitempty"`
}

// ExperimentReport is one experiment's analysis section.
type ExperimentReport struct {
	// Name and Opts identify the experiment.
	Name string `json:"name"`
	Opts string `json:"opts,omitempty"`
	// Exposure is the window analysis (nil without expo trace events).
	Exposure *ExposureReport `json:"exposure,omitempty"`
	// Attack is the attack-observability analysis (nil without attack
	// instants).
	Attack *AttackReport `json:"attack,omitempty"`
	// Overhead is the cycle-account breakdown (nil without metrics).
	Overhead *OverheadReport `json:"overhead,omitempty"`
	// Dropped flags cells whose trace rings overflowed; their exposure
	// sections may undercount windows.
	Dropped []DroppedCell `json:"dropped,omitempty"`
}

// DroppedCell flags one cell that lost trace events to ring overflow.
type DroppedCell struct {
	// Cell is the cell name; Dropped and Total its loss and event count.
	Cell    string `json:"cell"`
	Dropped uint64 `json:"dropped"`
	Total   uint64 `json:"total"`
}

// Build runs the full analysis over the input.
func Build(in Input) *Report {
	r := &Report{Title: in.Title}
	for _, e := range in.Experiments {
		er := ExperimentReport{Name: e.Name, Opts: e.Opts}
		var cells []*obs.CellObs
		if e.Obs != nil {
			cells = e.Obs.Cells
		}
		er.Exposure = analyzeExposure(cells)
		er.Attack = analyzeAttack(cells)
		er.Overhead = analyzeOverhead(cells)
		for _, c := range cells {
			if c.TraceDropped > 0 {
				er.Dropped = append(er.Dropped, DroppedCell{
					Cell: c.Cell, Dropped: c.TraceDropped, Total: c.TraceEvents,
				})
			}
		}
		r.Experiments = append(r.Experiments, er)
	}
	return r
}

// sortedCounterNames returns the union of counter names across snapshots,
// sorted.
func sortedCounterNames(snaps ...*obs.Snapshot) []string {
	seen := make(map[string]bool)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for k := range s.Counters {
			seen[k] = true
		}
	}
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
