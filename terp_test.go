package terp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pmo"
)

// Mode bit aliases for the namespace permission tests.
const (
	pmoModeRead      = pmo.ModeRead
	pmoModeWrite     = pmo.ModeWrite
	pmoModeOtherRead = pmo.ModeOtherRead
)

func TestSystemQuickstart(t *testing.T) {
	sys, err := NewSystem(Options{Scheme: TT})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Create("mydata", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(p, ReadWrite); err != nil {
		t.Fatal(err)
	}
	o, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Store(o, 42); err != nil {
		t.Fatal(err)
	}
	v, err := sys.Load(o)
	if err != nil || v != 42 {
		t.Fatalf("load = %d, %v", v, err)
	}
	if err := sys.Detach(p); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Counts.CondOps != 2 {
		t.Fatalf("cond ops = %d", st.Counts.CondOps)
	}
	if sys.NowMicros() <= 0 {
		t.Fatal("time did not advance")
	}
}

func TestSystemRebootPersistsData(t *testing.T) {
	sys, _ := NewSystem(Options{Scheme: TT})
	p, _ := sys.Create("persist", 1<<20)
	sys.Attach(p, ReadWrite)
	o, _ := p.Alloc(8)
	p.SetRoot(o)
	if err := sys.Store(o, 1234); err != nil {
		t.Fatal(err)
	}
	sys.Detach(p)

	sys2, err := sys.Reboot()
	if err != nil {
		t.Fatal(err)
	}
	// The namespace is persisted in the device superblock: the PMO is
	// found again by name after the reboot.
	p2, err := sys2.Open("persist")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.Attach(p2, Read); err != nil {
		t.Fatal(err)
	}
	root := p2.Root()
	if root != o {
		t.Fatalf("root after reboot = %v, want %v", root, o)
	}
	v, err := sys2.Load(root)
	if err != nil || v != 1234 {
		t.Fatalf("persisted value = %d, %v", v, err)
	}
}

func TestSystemCrashRecoveryWithTxn(t *testing.T) {
	sys, _ := NewSystem(Options{Scheme: TT})
	p, _ := sys.Create("bank", 1<<20)
	sys.Attach(p, ReadWrite)
	log, logOID, err := sys.NewTxn(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Alloc(8)
	b, _ := p.Alloc(8)
	sys.Store(a, 100)
	sys.Store(b, 0)
	// Transfer crashes mid-transaction.
	log.Begin()
	log.Write(a, 50)
	// Crash now (no commit).
	sys2, err := sys.Reboot()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sys2.Open("bank")
	if err != nil {
		t.Fatal(err)
	}
	sys2.Attach(p2, ReadWrite)
	log2, err := sys2.OpenTxn(p2, logOID, 32)
	if err != nil {
		t.Fatal(err)
	}
	undone, err := log2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if undone != 1 {
		t.Fatalf("undone = %d", undone)
	}
	v, err := sys2.Load(a)
	if err != nil || v != 100 {
		t.Fatalf("a = %d after recovery, want 100", v)
	}
}

func TestSystemParallel(t *testing.T) {
	sys, _ := NewSystem(Options{Scheme: TT})
	p, _ := sys.Create("shared", 1<<20)
	o, _ := p.Alloc(64)
	end, err := sys.Parallel(4, func(tid int, ctx *core.ThreadCtx) error {
		for i := 0; i < 10; i++ {
			if err := ctx.Attach(p, ReadWrite); err != nil {
				return err
			}
			if err := ctx.Store(o, uint64(tid)); err != nil {
				return err
			}
			ctx.Compute(2000)
			if err := ctx.Detach(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Fatal("no time elapsed")
	}
	st := sys.Runtime().Finish(end)
	if st.Counts.SilentOps == 0 {
		t.Fatal("no combining across threads")
	}
}

// TestParallelForksAndJoinsMainThread: a Parallel section starts at the
// main thread's clock and the main thread resumes at the section's end,
// so Stats covers the section's time; afterwards the runtime is
// single-threaded again, so the main thread's own timer sweep closes a
// window it left open.
func TestParallelForksAndJoinsMainThread(t *testing.T) {
	sys, err := NewSystem(Options{Scheme: TT})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sys.Create("p", 1<<20)
	q, _ := sys.Create("q", 1<<20)
	po, _ := p.Alloc(8)
	qo, _ := q.Alloc(8)
	main := sys.MainThread()
	sys.Compute(1000)
	start := main.Now()
	end, err := sys.Parallel(2, func(tid int, ctx *core.ThreadCtx) error {
		if ctx.Now() != start {
			return fmt.Errorf("starts at cycle %d, want the main thread's %d", ctx.Now(), start)
		}
		ctx.Compute(100000)
		if err := ctx.Attach(q, ReadWrite); err != nil {
			return err
		}
		return ctx.Store(qo, uint64(tid))
	})
	if err != nil {
		t.Fatal(err)
	}
	if main.Now() != end || end < start+100000 {
		t.Fatalf("main thread at cycle %d after a section from %d to %d, want the section's end", main.Now(), start, end)
	}
	// The join moves the clock without a charge: Stats sums every
	// thread's accounts, so the section's cycles are already counted.
	if got := main.Thread().Costs.Total(); got != 1000 {
		t.Errorf("main thread accounts = %d cycles after the join, want 1000", got)
	}
	if st := sys.Stats(); st.Cycles != end || st.Exposure.MaxEW == 0 || st.Exposure.ER == 0 {
		t.Errorf("Stats after the section: cycles %d (want %d), %v; want q's open window counted", st.Cycles, end, st.Exposure)
	}

	if err := sys.Attach(p, ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := sys.Store(po, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Detach(p); err != nil {
		t.Fatal(err)
	}
	sys.Compute(2_000_000)
	if sys.Runtime().AddressSpace().Attached(p.ID) {
		t.Error("p still attached after an exposure window's worth of main-thread compute: the timer sweep did not run")
	}
}

func TestOptionsDefaults(t *testing.T) {
	cfg := Options{Scheme: MM}.config()
	if cfg.TEWTarget != 0 {
		t.Fatal("MM must have no TEW target")
	}
	cfg = Options{Scheme: TT, TEWMicros: 4}.config()
	if cfg.TEWTarget == 0 {
		t.Fatal("TT lost its TEW target")
	}
}

// --- experiment smoke tests (tiny sizes; full sizes run in benches) ---------

var tiny = ExpOpts{Ops: 400, Scale: 1, Seed: 1}

// runGrid runs one experiment, failing the test or benchmark on error.
func runGrid(tb testing.TB, name string, o ExpOpts) *Grid {
	tb.Helper()
	g, err := Run(ExperimentSpec{Name: name, Opts: o})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestTable3Shape(t *testing.T) {
	rows := runGrid(t, "table3", tiny).Whisper
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TTEWAvg < 20 || r.TTEWAvg > 50 {
			t.Fatalf("%s: TT avg EW %.1fus not near 40us target", r.Prog, r.TTEWAvg)
		}
		if r.TEW > 2*2 {
			t.Fatalf("%s: TEW %.2fus far above 2us target", r.Prog, r.TEW)
		}
		if r.TER >= r.TTER {
			t.Fatalf("%s: TER %.3f not below ER %.3f", r.Prog, r.TER, r.TTER)
		}
		if r.Silent < 50 {
			t.Fatalf("%s: silent %.1f%% too low", r.Prog, r.Silent)
		}
		if r.MMEWAvg >= 40 {
			t.Fatalf("%s: MM avg EW %.1f should under-fill target", r.Prog, r.MMEWAvg)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "redis") {
		t.Fatal("format output incomplete")
	}
}

func TestFigure9Shape(t *testing.T) {
	bars := runGrid(t, "fig9", tiny).Bars
	if len(bars) != 6*5 {
		t.Fatalf("bars = %d", len(bars))
	}
	// Per workload: TM >= MM (paper: TM ~50% above MM) and TT < MM.
	byKey := map[string]OverheadBar{}
	for _, b := range bars {
		byKey[b.Prog+b.Label] = b
	}
	for _, mk := range []string{"echo", "ycsb", "tpcc", "ctree", "hashmap", "redis"} {
		tt := byKey[mk+"TT(40us)"]
		mm := byKey[mk+"MM(40us)"]
		tm := byKey[mk+"TM(40us)"]
		if !(tt.Total < mm.Total && mm.Total < tm.Total) {
			t.Fatalf("%s: ordering TT %.3f < MM %.3f < TM %.3f violated",
				mk, tt.Total, mm.Total, tm.Total)
		}
		t160 := byKey[mk+"TT(160us)"]
		if t160.Total > tt.Total+0.01 {
			t.Fatalf("%s: 160us EW (%.3f) costlier than 40us (%.3f)", mk, t160.Total, tt.Total)
		}
	}
	if s := FormatOverheads("Figure 9", bars); !strings.Contains(s, "attach") {
		t.Fatal("format output incomplete")
	}
}

func TestTable4Shape(t *testing.T) {
	rows := runGrid(t, "table4", tiny).Spec
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	totalPMOs := 0
	for _, r := range rows {
		totalPMOs += r.PMOs
		if r.Silent < 80 {
			t.Fatalf("%s: silent %.1f%%, paper reports ~97%%", r.Prog, r.Silent)
		}
		if r.TER >= 1 {
			t.Fatalf("%s: TER %.3f out of range", r.Prog, r.TER)
		}
	}
	if totalPMOs != 4+2+3+3+6 {
		t.Fatalf("PMO counts = %d", totalPMOs)
	}
	if s := FormatTable4(rows); !strings.Contains(s, "xz") {
		t.Fatal("format output incomplete")
	}
}

func TestFigure10And11Shape(t *testing.T) {
	f10 := runGrid(t, "fig10", tiny).Bars
	if len(f10) != 5*5 {
		t.Fatalf("figure10 bars = %d", len(f10))
	}
	f11 := runGrid(t, "fig11", tiny).Bars
	byKey := map[string]OverheadBar{}
	for _, b := range f11 {
		byKey[b.Prog+b.Label] = b
	}
	for _, k := range []string{"mcf", "lbm", "imagick", "nab", "xz"} {
		basic := byKey[k+"Basic(40us)"]
		cond := byKey[k+"+Cond(40us)"]
		cb := byKey[k+"+CB(40us)"]
		if !(cb.Total <= cond.Total && cond.Total < basic.Total) {
			t.Fatalf("%s: ablation ordering basic %.2f > +cond %.2f >= +cb %.2f violated",
				k, basic.Total, cond.Total, cb.Total)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	rows := Table5()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TERPPct >= r.MERRPct {
			t.Fatalf("TERP %.5f not below MERR %.5f", r.TERPPct, r.MERRPct)
		}
		ratio := r.MERRPct / r.TERPPct
		if ratio < 20 || ratio > 40 {
			t.Fatalf("reduction %.1fx, paper reports ~30x", ratio)
		}
	}
	if s := FormatTable5(rows); !strings.Contains(s, "Table V") {
		t.Fatal("format output incomplete")
	}
}

func TestTable6Shape(t *testing.T) {
	res := *runGrid(t, "table6", tiny).Scenarios
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.DisarmedTERP() < 0.8 {
			t.Fatalf("%s: TERP disarms only %.1f%%", r.Suite, 100*r.DisarmedTERP())
		}
		if r.DisarmedTERP() <= r.DisarmedMERR() {
			t.Fatalf("%s: TERP must disarm more than MERR", r.Suite)
		}
	}
	if res.SpecCensus.CoveredFraction() != 1 {
		t.Fatalf("census coverage = %.2f", res.SpecCensus.CoveredFraction())
	}
	if s := FormatTable6(res); !strings.Contains(s, "WHISPER") {
		t.Fatal("format output incomplete")
	}
}

func TestFigure8Shape(t *testing.T) {
	res := *runGrid(t, "fig8", tiny).DeadTime
	if res.AtLeastTEW < 0.85 {
		t.Fatalf("P(dead>=2us) = %.2f", res.AtLeastTEW)
	}
	if s := FormatFigure8(res); !strings.Contains(s, "Figure 8") {
		t.Fatal("format output incomplete")
	}
}

func TestSemanticsStudyShape(t *testing.T) {
	r := SemanticsStudy()
	if len(r.Nested) != 4 || len(r.Parallel) != 4 {
		t.Fatalf("rows = %d/%d", len(r.Nested), len(r.Parallel))
	}
	byName := map[string]int{}
	for i, row := range r.Nested {
		byName[row.Policy] = i
	}
	// Basic errors on both traces; EW-conscious on neither.
	if r.Nested[byName["basic"]].Errors == 0 {
		t.Fatal("basic accepted nesting")
	}
	if r.Nested[byName["ew-conscious"]].Errors != 0 {
		t.Fatal("ew-conscious errored on nesting")
	}
	if r.Parallel[byName["ew-conscious"]].Errors != 0 {
		t.Fatal("ew-conscious errored on concurrency")
	}
	// FCFS denies the program's own accesses; EW-conscious never does.
	if r.Nested[byName["fcfs"]].DeniedAccesses == 0 {
		t.Fatal("fcfs denied nothing")
	}
	if r.Nested[byName["ew-conscious"]].DeniedAccesses != 0 {
		t.Fatal("ew-conscious denied accesses")
	}
	if s := FormatSemanticsStudy(r); !strings.Contains(s, "ew-conscious") {
		t.Fatal("format output incomplete")
	}
}

func TestNamespacePermissionsEnforcedAtAttach(t *testing.T) {
	sys, _ := NewSystem(Options{Scheme: TT})
	// Alice creates a world-readable PMO.
	p, err := sys.CreateAs("alice", "shared.config", 1<<20,
		pmoModeRead|pmoModeWrite|pmoModeOtherRead)
	if err != nil {
		t.Fatal(err)
	}
	// As alice: full access.
	sys.SetUser("alice")
	if err := sys.Attach(p, ReadWrite); err != nil {
		t.Fatal(err)
	}
	o, _ := p.Alloc(8)
	if err := sys.Store(o, 7); err != nil {
		t.Fatal(err)
	}
	if err := sys.Detach(p); err != nil {
		t.Fatal(err)
	}
	// As bob: read-only attach works, write attach is denied at the
	// namespace level (before any window even opens).
	sys.SetUser("bob")
	if err := sys.Attach(p, ReadWrite); err == nil {
		t.Fatal("bob attached rw to a world-read PMO")
	}
	if err := sys.Attach(p, Read); err != nil {
		t.Fatalf("bob read attach: %v", err)
	}
	if v, err := sys.Load(o); err != nil || v != 7 {
		t.Fatalf("bob read = %d, %v", v, err)
	}
	if err := sys.Detach(p); err != nil {
		t.Fatal(err)
	}
	// A world-readable PMO is openable by anyone (eve may read it)...
	if _, err := sys.OpenAs("eve", "shared.config"); err != nil {
		t.Fatalf("eve open world-readable: %v", err)
	}
	// ...but a private PMO is not even visible to others.
	if _, err := sys.CreateAs("alice", "private.keys", 1<<16,
		pmoModeRead|pmoModeWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OpenAs("eve", "private.keys"); err == nil {
		t.Fatal("eve opened alice's private PMO")
	}
	// Alice destroys it; the name is gone.
	if err := sys.Destroy("alice", "shared.config"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Open("shared.config"); err == nil {
		t.Fatal("destroyed PMO still opens")
	}
}

func TestEWSweepFrontier(t *testing.T) {
	g, err := Run(ExperimentSpec{Name: "ewsweep", Opts: ExpOpts{Ops: 300}, EWMicros: []float64{40, 160}})
	if err != nil {
		t.Fatal(err)
	}
	rows := g.Frontier
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Bigger windows cost less and concede more.
	if rows[1].OverheadPct >= rows[0].OverheadPct {
		t.Fatalf("overhead did not fall: %.2f -> %.2f",
			rows[0].OverheadPct, rows[1].OverheadPct)
	}
	if rows[1].MERRSuccPct <= rows[0].MERRSuccPct {
		t.Fatal("attack success did not grow with window size")
	}
	for _, r := range rows {
		if r.TERPSuccPct >= r.MERRSuccPct {
			t.Fatalf("TERP not below MERR at %.0fus", r.EWMicros)
		}
	}
	if s := FormatEWSweep(rows); !strings.Contains(s, "frontier") {
		t.Fatal("format output incomplete")
	}
}
