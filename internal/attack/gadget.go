package attack

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// Gadget is one data-only gadget: a load or store instruction an attacker
// with control over the surrounding locals could abuse as an arbitrary
// read/write primitive (Section VII-D: assignment, dereference and
// addition operations on attacker-controlled operands).
type Gadget struct {
	// Func and Block locate the instruction.
	Func  string
	Block int
	// Index is the instruction index within the block.
	Index int
	// Store distinguishes write gadgets from read gadgets.
	Store bool
	// PMO names the PMO the gadget touches.
	PMO string
	// Covered reports whether the gadget sits inside an attach-detach
	// pair (it can reach the PMO only while the thread holds
	// permission); uncovered gadgets touching a PMO are always-on.
	Covered bool
}

// GadgetCensus summarizes a program scan (the static side of Table VI).
type GadgetCensus struct {
	// Total is the number of PMO read/write gadgets found.
	Total int
	// Covered is how many sit inside attach-detach windows.
	Covered int
	// Gadgets lists them all.
	Gadgets []Gadget
}

// CoveredFraction returns the share of gadgets that require thread
// permission to fire.
func (c GadgetCensus) CoveredFraction() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Covered) / float64(c.Total)
}

// ScanProgram walks an instrumented IR program and classifies every PMO
// access gadget by whether it executes inside an attach-detach window.
// The walk tracks attach state along paths exactly like terpc.Verify.
func ScanProgram(p *ir.Program) GadgetCensus {
	var census GadgetCensus
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		scanFunc(name, p.Funcs[name], &census)
	}
	return census
}

func scanFunc(name string, f *ir.Func, census *GadgetCensus) {
	seen := map[int]bool{}
	var dfs func(b int, attached map[string]bool)
	dfs = func(b int, attached map[string]bool) {
		if seen[b] {
			return
		}
		seen[b] = true
		cur := map[string]bool{}
		for k := range attached {
			cur[k] = true
		}
		blk := f.Blocks[b]
		for i, in := range blk.Instrs {
			switch in.Op {
			case ir.Attach:
				cur[in.Sym] = true
			case ir.Detach:
				delete(cur, in.Sym)
			case ir.LoadPM, ir.StorePM:
				census.Total++
				g := Gadget{
					Func: name, Block: b, Index: i,
					Store:   in.Op == ir.StorePM,
					PMO:     in.Sym,
					Covered: cur[in.Sym],
				}
				if g.Covered {
					census.Covered++
				}
				census.Gadgets = append(census.Gadgets, g)
			}
		}
		for _, s := range blk.Succs {
			dfs(s, cur)
		}
	}
	dfs(f.Entry, map[string]bool{})
}

// ScenarioRow is one row of Table VI: for a given gadget/window
// relationship, the time-weighted fraction of gadget opportunities the
// scheme disarms. Following Section VII-D, a gadget is only usable while
// its thread holds access, so the disarmed fraction under TERP is
// 1 - TER, while MERR leaves the full exposure rate usable (1 - ER
// disarmed).
type ScenarioRow struct {
	// Suite names the workload suite ("WHISPER" or "SPEC").
	Suite string
	// MERRUsable and TERPUsable are time fractions during which an
	// in-window gadget can fire (the paper quotes MERR keeping 24.5% /
	// 27.2% and TERP disarming 96.6% / 89.98%).
	MERRUsable, TERPUsable float64
}

// DisarmedTERP returns the TERP-disarmed fraction.
func (r ScenarioRow) DisarmedTERP() float64 { return 1 - r.TERPUsable }

// BuildScenarioRow derives the Table VI row from measured exposure rates:
// er is the MERR process exposure rate and ter the TERP thread exposure
// rate of the same suite.
func BuildScenarioRow(suite string, er, ter float64) ScenarioRow {
	return ScenarioRow{Suite: suite, MERRUsable: er, TERPUsable: ter}
}

// ScenarioCell is one cell of the full Table VI matrix: what protection a
// gadget class gets under TERP, with the quantitative bound when one
// applies.
type ScenarioCell struct {
	// Verdict is the qualitative outcome ("prevented", "hindered",
	// "accumulates").
	Verdict string
	// Detail explains the mechanism in the paper's terms.
	Detail string
	// SuccessPct, when non-negative, is the per-window success bound
	// (percent).
	SuccessPct float64
}

// ScenarioMatrix is the full Table VI analysis: rows are attacker
// capabilities, columns are the gadget/window relationships.
type ScenarioMatrix struct {
	// Capabilities name the rows.
	Capabilities []string
	// Relations name the columns.
	Relations []string
	// Cells is indexed [capability][relation].
	Cells [][]ScenarioCell
	// DisarmedWHISPER and DisarmedSPEC are the measured disarm rates
	// quoted in the "no overlap" column.
	DisarmedWHISPER, DisarmedSPEC float64
}

// BuildScenarioMatrix assembles the Table VI matrix from the measured
// disarm rates and the probe model at the given EW (microseconds).
func BuildScenarioMatrix(disarmWhisper, disarmSpec, ewMicros float64) ScenarioMatrix {
	probe := ProbeModel{PMOBytes: 1 << 30, EWMicros: ewMicros, AttackMicros: 1, AccessFraction: 1}
	p := probe.SuccessPercent()
	m := ScenarioMatrix{
		Capabilities: []string{
			"one arbitrary read or write",
			"infinite loop of arbitrary reads/writes",
		},
		Relations: []string{
			"no overlap with windows",
			"gadget inside an attach-detach pair",
			"gadget includes an attach-detach pair",
		},
		DisarmedWHISPER: disarmWhisper,
		DisarmedSPEC:    disarmSpec,
	}
	m.Cells = [][]ScenarioCell{
		{
			{Verdict: "prevented", Detail: "no thread permission at the gadget site", SuccessPct: 0},
			{Verdict: "hindered", Detail: "must find the randomized base within one EW", SuccessPct: p},
			{Verdict: "hindered", Detail: "same bound; the window closes at the EW target", SuccessPct: p},
		},
		{
			{Verdict: "prevented", Detail: fmt.Sprintf("%.1f%%/%.1f%% of gadget time disarmed (WHISPER/SPEC)",
				100*disarmWhisper, 100*disarmSpec), SuccessPct: 0},
			{Verdict: "hindered", Detail: "interactive probing is impossible (network RTT >> EW); non-interactive probing is bounded per window", SuccessPct: p},
			{Verdict: "accumulates", Detail: "probability accumulates across windows but each session is EW-bounded and re-randomized", SuccessPct: -1},
		},
	}
	return m
}

// String renders the matrix in a compact table form.
func (m ScenarioMatrix) String() string {
	out := ""
	for i, cap := range m.Capabilities {
		out += cap + ":\n"
		for j, rel := range m.Relations {
			c := m.Cells[i][j]
			out += fmt.Sprintf("  %-38s %-10s %s", rel, c.Verdict, c.Detail)
			if c.SuccessPct > 0 {
				out += fmt.Sprintf(" (p=%.4f%%/window)", c.SuccessPct)
			}
			out += "\n"
		}
	}
	return out
}
