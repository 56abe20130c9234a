package terp

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark regenerates its experiment on
// the simulated machine and reports the headline values as custom
// metrics, so `go test -bench=. -benchmem` reproduces the whole
// evaluation section. The per-iteration sizes are reduced from the
// paper's (100K ops, full-size inputs) to keep bench time reasonable;
// cmd/terpbench runs the paper-scale versions.

import (
	"fmt"
	"testing"
)

// benchOpts are the reduced sizes used per benchmark iteration.
var benchOpts = ExpOpts{Ops: 3000, Scale: 1, Seed: 1}

// BenchmarkFigure8 regenerates the dead-time distribution study: the
// attack-surface fraction removed by a 2us TEW.
func BenchmarkFigure8(b *testing.B) {
	var last Figure8Result
	for i := 0; i < b.N; i++ {
		last = *runGrid(b, "fig8", benchOpts).DeadTime
	}
	b.ReportMetric(100*last.AtLeastTEW, "%dead>=2us")
}

// BenchmarkTable3 regenerates the WHISPER exposure table: MM vs TT EW,
// exposure rates, TEW and silent fraction.
func BenchmarkTable3(b *testing.B) {
	var rows []WhisperRow
	for i := 0; i < b.N; i++ {
		rows = runGrid(b, "table3", benchOpts).Whisper
	}
	var mmEW, ttEW, tew, silent, ter float64
	for _, r := range rows {
		mmEW += r.MMEWAvg
		ttEW += r.TTEWAvg
		tew += r.TEW
		silent += r.Silent
		ter += r.TER
	}
	n := float64(len(rows))
	b.ReportMetric(mmEW/n, "MM-EW-us")
	b.ReportMetric(ttEW/n, "TT-EW-us")
	b.ReportMetric(tew/n, "TT-TEW-us")
	b.ReportMetric(silent/n, "silent-%")
	b.ReportMetric(100*ter/n, "TER-%")
}

// BenchmarkFigure9 regenerates the WHISPER overhead breakdown and reports
// the suite-average overheads of the three schemes at the 40us EW.
func BenchmarkFigure9(b *testing.B) {
	var bars []OverheadBar
	for i := 0; i < b.N; i++ {
		bars = runGrid(b, "fig9", benchOpts).Bars
	}
	reportSchemeAverages(b, bars)
}

// BenchmarkTable4 regenerates the SPEC exposure table.
func BenchmarkTable4(b *testing.B) {
	var rows []Table4Row
	for i := 0; i < b.N; i++ {
		rows = runGrid(b, "table4", benchOpts).Spec
	}
	var silent, ter, er float64
	for _, r := range rows {
		silent += r.Silent
		ter += r.TER
		er += r.TTER
	}
	n := float64(len(rows))
	b.ReportMetric(silent/n, "silent-%")
	b.ReportMetric(100*er/n, "ER-%")
	b.ReportMetric(100*ter/n, "TER-%")
}

// BenchmarkFigure10 regenerates the single-thread SPEC overheads.
func BenchmarkFigure10(b *testing.B) {
	var bars []OverheadBar
	for i := 0; i < b.N; i++ {
		bars = runGrid(b, "fig10", benchOpts).Bars
	}
	reportSchemeAverages(b, bars)
}

// BenchmarkFigure11 regenerates the 4-thread ablation: Basic semantics vs
// +Cond vs the full design.
func BenchmarkFigure11(b *testing.B) {
	var bars []OverheadBar
	for i := 0; i < b.N; i++ {
		bars = runGrid(b, "fig11", benchOpts).Bars
	}
	avg := map[string]float64{}
	cnt := map[string]int{}
	for _, x := range bars {
		avg[x.Label] += x.Total
		cnt[x.Label]++
	}
	for _, label := range []string{"Basic(40us)", "+Cond(40us)", "+CB(40us)"} {
		if cnt[label] > 0 {
			b.ReportMetric(100*avg[label]/float64(cnt[label]), label+"-ov%")
		}
	}
}

// BenchmarkTable5 regenerates the quantitative probe-attack comparison.
func BenchmarkTable5(b *testing.B) {
	var rows []Table5Row
	for i := 0; i < b.N; i++ {
		rows = Table5()
	}
	b.ReportMetric(rows[0].MERRPct, "MERR-%@1us")
	b.ReportMetric(rows[0].TERPPct, "TERP-%@1us")
	b.ReportMetric(rows[0].MERRPct/rows[0].TERPPct, "reduction-x")
}

// BenchmarkTable6 regenerates the gadget-scenario analysis.
func BenchmarkTable6(b *testing.B) {
	var res Table6Result
	for i := 0; i < b.N; i++ {
		res = *runGrid(b, "table6", benchOpts).Scenarios
	}
	for _, r := range res.Rows {
		b.ReportMetric(100*r.DisarmedTERP(), r.Suite+"-disarm-%")
	}
	b.ReportMetric(100*res.SpecCensus.CoveredFraction(), "gadgets-covered-%")
}

func reportSchemeAverages(b *testing.B, bars []OverheadBar) {
	b.Helper()
	avg := map[string]float64{}
	cnt := map[string]int{}
	for _, x := range bars {
		avg[x.Label] += x.Total
		cnt[x.Label]++
	}
	for _, label := range []string{"MM(40us)", "TM(40us)", "TT(40us)", "TT(160us)"} {
		if cnt[label] > 0 {
			b.ReportMetric(100*avg[label]/float64(cnt[label]), label+"-ov%")
		}
	}
}

// --- component microbenchmarks ----------------------------------------------

// BenchmarkCondAttachDetachTT measures the simulator-side cost of one
// conditional attach/detach pair under TT (the hot path of the runtime).
func BenchmarkCondAttachDetachTT(b *testing.B) {
	sys, err := NewSystem(Options{Scheme: TT})
	if err != nil {
		b.Fatal(err)
	}
	p, err := sys.Create("bench", 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Attach(p, ReadWrite); err != nil {
			b.Fatal(err)
		}
		if err := sys.Detach(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtectedStore measures one protected 8-byte store (TLB +
// permission matrix + thread permission + caches + NVM model).
func BenchmarkProtectedStore(b *testing.B) {
	sys, err := NewSystem(Options{Scheme: TT})
	if err != nil {
		b.Fatal(err)
	}
	p, _ := sys.Create("bench", 1<<20)
	if err := sys.Attach(p, ReadWrite); err != nil {
		b.Fatal(err)
	}
	o, _ := p.Alloc(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Store(o, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemanticsStudy regenerates the Section IV semantics-space
// exploration and reports each semantics' error count on the nested trace.
func BenchmarkSemanticsStudy(b *testing.B) {
	var r SemanticsStudyResult
	for i := 0; i < b.N; i++ {
		r = SemanticsStudy()
	}
	for _, row := range r.Nested {
		b.ReportMetric(float64(row.Errors), row.Policy+"-errors")
	}
}

// BenchmarkEWSweep regenerates the security/performance frontier.
func BenchmarkEWSweep(b *testing.B) {
	var rows []EWSweepRow
	for i := 0; i < b.N; i++ {
		g, err := Run(ExperimentSpec{Name: "ewsweep", Opts: ExpOpts{Ops: 1500}, EWMicros: []float64{40, 160}})
		if err != nil {
			b.Fatal(err)
		}
		rows = g.Frontier
	}
	for _, r := range rows {
		b.ReportMetric(r.OverheadPct, fmt.Sprintf("ov%%@%.0fus", r.EWMicros))
		b.ReportMetric(r.TERPSuccPct, fmt.Sprintf("succ%%@%.0fus", r.EWMicros))
	}
}
