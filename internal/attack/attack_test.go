package attack

import (
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/terpc"
)

func TestDeadTimeStudyShape(t *testing.T) {
	h, atLeastTEW, err := DeadTimeStudyObs(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.N == 0 {
		t.Fatal("no samples")
	}
	// The paper reports ~95% of dead times at or above 2us; our
	// synthetic profiles must land in the same regime.
	if atLeastTEW < 0.85 || atLeastTEW > 1.0 {
		t.Fatalf("P(dead >= 2us) = %.3f, want ~0.95", atLeastTEW)
	}
	// There must be a tail in both directions (not all in one bucket).
	nonzero := 0
	for i := range h.Counts {
		if h.Counts[i] > 0 {
			nonzero++
		}
	}
	if nonzero < 5 {
		t.Fatalf("distribution too concentrated: %d buckets", nonzero)
	}
}

func TestDeadTimeDeterministic(t *testing.T) {
	a, fa, err := DeadTimeStudyObs(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, fb, err := DeadTimeStudyObs(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb || a.N != b.N {
		t.Fatal("study not deterministic")
	}
}

// TestDeadTimeStudyFractionAtLeastTEW: the study's TEW fraction, counted
// as the samples are added, equals a recount over every profile's
// samples.
func TestDeadTimeStudyFractionAtLeastTEW(t *testing.T) {
	h, frac, err := DeadTimeStudyObs(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var n, atLeast int
	for _, p := range Profiles() {
		samples, err := ProfileDeadTimesObs(p, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			n++
			if params.ToMicros(s.Cycles) >= params.DefaultTEWMicros {
				atLeast++
			}
		}
	}
	if uint64(n) != h.N {
		t.Fatalf("histogram holds %d samples, profiles produced %d", h.N, n)
	}
	if want := float64(atLeast) / float64(n); frac != want {
		t.Fatalf("P(dead >= TEW) = %v, recount gives %v", frac, want)
	}
}

func TestProfilesCoverThirteenBenchmarks(t *testing.T) {
	if got := len(Profiles()); got != 13 {
		t.Fatalf("profiles = %d, want 8 SPEC + 5 Heap Layers", got)
	}
}

func TestProbeModelTableV(t *testing.T) {
	// Paper Table V: MERR 0.015/x %, TERP 0.0005/x % for 1 GB, 40us EW.
	merr, terp := TableVRow(1.0, DefaultTERPAccessFraction)
	if math.Abs(merr-0.01526) > 0.002 {
		t.Fatalf("MERR @1us = %f, want ~0.015", merr)
	}
	if math.Abs(terp-0.000519) > 0.0002 {
		t.Fatalf("TERP @1us = %f, want ~0.0005", terp)
	}
	// x = 0.1us scales both 10x.
	merr01, terp01 := TableVRow(0.1, DefaultTERPAccessFraction)
	if math.Abs(merr01/merr-10) > 0.01 || math.Abs(terp01/terp-10) > 0.01 {
		t.Fatalf("0.1us row does not scale 10x: %f %f", merr01, terp01)
	}
	// TERP ~30x below MERR.
	if ratio := merr / terp; ratio < 20 || ratio > 40 {
		t.Fatalf("MERR/TERP ratio = %.1f, want ~30", ratio)
	}
}

func TestEntropyBits(t *testing.T) {
	m := ProbeModel{PMOBytes: 1 << 30}
	if m.EntropyBits() != 18 {
		t.Fatalf("1GB entropy = %d bits, want 18", m.EntropyBits())
	}
	m4 := ProbeModel{PMOBytes: 4 << 30}
	if m4.EntropyBits() >= m.EntropyBits() {
		t.Fatal("larger PMOs must have less placement entropy")
	}
}

func TestSuccessProbabilityCapped(t *testing.T) {
	m := ProbeModel{PMOBytes: 1 << 30, EWMicros: 1e12, AttackMicros: 0.001, AccessFraction: 1}
	if m.SuccessPercent() > 100 {
		t.Fatal("probability above 100%")
	}
	if (ProbeModel{}).SuccessPercent() != 0 {
		t.Fatal("zero attack time must be 0")
	}
}

func TestMonteCarloMatchesAnalytic(t *testing.T) {
	// probes per window chosen so the analytic probability is ~6%:
	// p = probes / 2^17 slots.
	probes := 8192
	want := float64(probes) / float64(1<<17)
	got, err := MonteCarloProbe(3000, probes, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.025 {
		t.Fatalf("monte carlo %.4f vs analytic %.4f", got, want)
	}
}

func TestGadgetScanner(t *testing.T) {
	prog, err := lang.Compile(`
pmo sensitive[64];
func handler() {
  var i;
  for (i = 0; i < 64; i = i + 1) {
    sensitive[i] = sensitive[i] + 1;
  }
  return 0;
}
func main() { handler(); return 0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	// Before insertion every gadget is uncovered.
	before := ScanProgram(prog)
	if before.Total == 0 {
		t.Fatal("no gadgets found")
	}
	if before.Covered != 0 {
		t.Fatalf("uninstrumented program has %d covered gadgets", before.Covered)
	}
	// After insertion all PMO gadgets are inside windows.
	if _, err := terpc.Insert(prog, terpc.Options{
		EWThreshold:  params.Micros(40),
		TEWThreshold: params.Micros(2),
	}); err != nil {
		t.Fatal(err)
	}
	after := ScanProgram(prog)
	if after.Total != before.Total {
		t.Fatalf("gadget count changed: %d -> %d", before.Total, after.Total)
	}
	if after.CoveredFraction() != 1.0 {
		t.Fatalf("covered fraction = %.2f, want 1.0", after.CoveredFraction())
	}
	// Store and load gadgets are both classified.
	stores := 0
	for _, g := range after.Gadgets {
		if g.Store {
			stores++
		}
	}
	if stores == 0 || stores == after.Total {
		t.Fatalf("expected a mix of loads and stores, got %d/%d", stores, after.Total)
	}
}

func TestScenarioRow(t *testing.T) {
	r := BuildScenarioRow("WHISPER", 0.245, 0.034)
	if math.Abs(r.DisarmedTERP()-0.966) > 1e-9 {
		t.Fatalf("TERP disarmed = %f", r.DisarmedTERP())
	}
	if math.Abs(r.MERRUsable-0.245) > 1e-9 {
		t.Fatalf("MERR usable = %f", r.MERRUsable)
	}
}

func TestGadgetScanHandlesLoops(t *testing.T) {
	f := ir.NewFunc("loop")
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	r := f.NewReg()
	b0.Emit(ir.Instr{Op: ir.Attach, Sym: "x", Imm: 3})
	b0.Term, b0.Succs = ir.Jmp, []int{b1.ID}
	b1.Emit(ir.Instr{Op: ir.LoadPM, Dst: r, A: r, Sym: "x"})
	b1.Emit(ir.Instr{Op: ir.Const, Dst: r, Imm: 1})
	b1.Term, b1.Cond, b1.Succs = ir.Br, r, []int{b1.ID, b2.ID}
	b2.Emit(ir.Instr{Op: ir.Detach, Sym: "x"})
	b2.Term, b2.Cond = ir.Ret, -1
	p := ir.NewProgram()
	p.Funcs["loop"] = f
	c := ScanProgram(p)
	if c.Total != 1 || c.Covered != 1 {
		t.Fatalf("census = %+v", c)
	}
}

func TestDOPParseGadgetDisarmedByTERP(t *testing.T) {
	opt := DOPOpts{Nodes: 8, Rounds: 300, Seed: 3, GadgetInParse: true}
	unprot, err := RunDOP(params.NewConfig(params.Unprotected, 40), opt)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := RunDOP(params.NewConfig(params.MM, 40), opt)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := RunDOP(params.NewConfig(params.TT, 40), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !unprot.Succeeded(opt.Nodes) {
		t.Fatalf("unprotected attack failed: %+v", unprot)
	}
	if mm.Corrupted == 0 {
		t.Fatalf("MM should leave the in-window parse gadget usable: %+v", mm)
	}
	// The parse-site gadget fires outside any TEW: every attempt
	// faults on thread permission and nothing is corrupted.
	if tt.Corrupted != 0 {
		t.Fatalf("TERP parse gadget corrupted %d nodes", tt.Corrupted)
	}
	if tt.Faults == 0 {
		t.Fatal("TERP recorded no faults")
	}
}

func TestDOPPMGadgetHinderedByRandomization(t *testing.T) {
	opt := DOPOpts{Nodes: 8, Rounds: 300, Seed: 4, GadgetInParse: false}
	unprot, err := RunDOP(params.NewConfig(params.Unprotected, 40), opt)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := RunDOP(params.NewConfig(params.TT, 40), opt)
	if err != nil {
		t.Fatal(err)
	}
	if unprot.StaleAddr != 0 {
		t.Fatalf("unprotected run randomized: %+v", unprot)
	}
	if tt.StaleAddr == 0 {
		t.Fatalf("TERP never invalidated the attacker's address: %+v", tt)
	}
	// Randomization forces repeated re-disclosure, throttling progress.
	if tt.Corrupted >= unprot.Corrupted {
		t.Fatalf("TERP (%d) should corrupt fewer nodes than unprotected (%d)",
			tt.Corrupted, unprot.Corrupted)
	}
	if tt.Disclosures <= unprot.Disclosures {
		t.Fatalf("TERP should force more disclosures: %d vs %d",
			tt.Disclosures, unprot.Disclosures)
	}
}

func TestScenarioMatrix(t *testing.T) {
	m := BuildScenarioMatrix(0.966, 0.8998, 40)
	if len(m.Capabilities) != 2 || len(m.Relations) != 3 {
		t.Fatalf("matrix shape %dx%d", len(m.Capabilities), len(m.Relations))
	}
	// No-overlap gadgets are always prevented.
	for i := range m.Capabilities {
		if m.Cells[i][0].Verdict != "prevented" {
			t.Fatalf("no-overlap cell = %q", m.Cells[i][0].Verdict)
		}
	}
	// In-window single gadgets carry the probe bound (~0.015% at 40us).
	if p := m.Cells[0][1].SuccessPct; p < 0.01 || p > 0.02 {
		t.Fatalf("probe bound = %f", p)
	}
	if m.String() == "" {
		t.Fatal("empty render")
	}
}

func TestDeadTimeObsInstantsMatchSamples(t *testing.T) {
	p := Profiles()[0]
	rec := obs.NewRecorder(1 << 16)
	samples, err := ProfileDeadTimesObs(p, 1, rec.Track(0))
	if err != nil {
		t.Fatal(err)
	}
	ins := obs.FilterInstants(obs.Instants(rec.Events()), obs.CatAttack, "deadtime")
	if len(ins) != len(samples) {
		t.Fatalf("got %d deadtime instants, want %d (one per sample)", len(ins), len(samples))
	}
	for i, s := range samples {
		if uint64(ins[i].Arg) != s.Cycles {
			t.Fatalf("instant %d arg = %d, want dead time %d", i, ins[i].Arg, s.Cycles)
		}
	}
	// The obs variant must not perturb the base result.
	plain, err := ProfileDeadTimesObs(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(samples) || plain[0] != samples[0] {
		t.Fatalf("instrumented run diverged from plain run")
	}
}

func TestDeadTimeStudyObsTracksPerProfile(t *testing.T) {
	rec := obs.NewRecorder(1 << 16)
	_, frac, err := DeadTimeStudyObs(1, rec)
	if err != nil {
		t.Fatal(err)
	}
	_, plainFrac, err := DeadTimeStudyObs(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if frac != plainFrac {
		t.Fatalf("instrumented fraction %v != plain %v", frac, plainFrac)
	}
	threads := map[int]bool{}
	for _, e := range rec.Events() {
		threads[e.Thread] = true
	}
	if len(threads) != len(Profiles()) {
		t.Fatalf("events span %d tracks, want one per profile (%d)", len(threads), len(Profiles()))
	}
}

func TestMonteCarloProbeObsEvents(t *testing.T) {
	const trials, probes = 8, 5
	rec := obs.NewRecorder(1 << 12)
	frac, err := MonteCarloProbeObs(trials, probes, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MonteCarloProbe(trials, probes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if frac != plain {
		t.Fatalf("instrumented fraction %v != plain %v", frac, plain)
	}
	ws := obs.FilterWindows(obs.Windows(rec.Events()), obs.CatExpo, "ew")
	if len(ws) != trials {
		t.Fatalf("got %d ew windows, want one per trial (%d)", len(ws), trials)
	}
	ins := obs.Instants(rec.Events())
	probeEvents := obs.FilterInstants(ins, obs.CatAttack, "probe")
	if len(probeEvents) == 0 || len(probeEvents) > trials*probes {
		t.Fatalf("got %d probe instants, want in (0, %d]", len(probeEvents), trials*probes)
	}
	hits := obs.FilterInstants(ins, obs.CatAttack, "probe-hit")
	if want := int(frac*trials + 0.5); len(hits) != want {
		t.Fatalf("got %d probe-hit instants, want %d", len(hits), want)
	}
	// Every probe must land inside its trial's window.
	for _, p := range probeEvents {
		inside := false
		for _, w := range ws {
			if p.TS >= w.Start && p.TS < w.End {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("probe at %d outside every exposure window", p.TS)
		}
	}
}
