package terp

// Ablation benchmarks for the design choices DESIGN.md calls out beyond
// the Figure 11 sweep: the compiler's conservative cost model, the
// randomization knob, and the TEW target size. Each reports the security
// and performance sides of the trade-off as benchmark metrics.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/params"
	"repro/internal/speckit"
	"repro/internal/terpc"
	"repro/internal/whisper"
)

// ablationOverhead runs cfg and the unprotected baseline at cfg's seed
// through run, and returns cfg's relative execution-time overhead and its
// result.
func ablationOverhead(b *testing.B, cfg params.Config, run func(params.Config) (core.Result, error)) (float64, core.Result) {
	base := params.NewConfig(params.Unprotected, params.DefaultEWMicros)
	base.Seed = cfg.Seed
	baseRes, err := run(base)
	if err != nil {
		b.Fatal(err)
	}
	prot, err := run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return float64(prot.Cycles)/float64(baseRes.Cycles) - 1, prot
}

// kernel returns a run of kernel k that applies the insertion pass with
// opt to every protected configuration; a nil opt keeps the scheme's own
// options (speckit.InsertOptions).
func kernel(k speckit.Kernel, opt *terpc.Options) func(params.Config) (core.Result, error) {
	return func(cfg params.Config) (core.Result, error) {
		o, insert := speckit.InsertOptions(cfg)
		if opt != nil {
			o = *opt
		}
		prog, err := speckit.Build(k, 1, insert, o)
		if err != nil {
			return core.Result{}, err
		}
		l, err := ir.Link(prog)
		if err != nil {
			return core.Result{}, err
		}
		return speckit.RunLinked(cfg, k, l, speckit.RunOpts{})
	}
}

// BenchmarkAblationCostModel varies the insertion pass's conservative
// per-memory-access estimate. A lower (more accurate) estimate grows the
// covered regions (fewer, longer windows: cheaper but more exposed); a
// higher one shrinks them. It runs xz, whose cover changes at each of the
// three points; mcf's is the same for every estimate from 1 to 60.
func BenchmarkAblationCostModel(b *testing.B) {
	k, err := speckit.ByName("xz")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, mem := range []uint64{8, 40, 200} {
			cfg := params.NewConfig(params.TT, params.DefaultEWMicros)
			ov, prot := ablationOverhead(b, cfg, kernel(k, &terpc.Options{
				EWThreshold:  cfg.EWTarget,
				TEWThreshold: cfg.TEWTarget,
				MemCost:      mem,
			}))
			label := map[uint64]string{8: "accurate", 40: "default", 200: "paranoid"}[mem]
			b.ReportMetric(100*ov, label+"-ov%")
			b.ReportMetric(params.ToMicros(uint64(prot.Exposure.AvgTEW)), label+"-TEW-us")
		}
	}
}

// BenchmarkAblationRandomization toggles space-layout randomization: the
// cost it adds and the re-randomizations it buys (the security side of
// Theorem 6's synergy).
func BenchmarkAblationRandomization(b *testing.B) {
	mk, err := whisper.ByName("redis")
	if err != nil {
		b.Fatal(err)
	}
	redis := func(cfg params.Config) (core.Result, error) {
		return whisper.Run(cfg, mk, whisper.RunOpts{Ops: 3000})
	}
	for i := 0; i < b.N; i++ {
		for _, randomize := range []bool{true, false} {
			cfg := params.NewConfig(params.TT, params.DefaultEWMicros)
			cfg.Randomize = randomize
			ov, prot := ablationOverhead(b, cfg, redis)
			label := "rand-on"
			if !randomize {
				label = "rand-off"
			}
			b.ReportMetric(100*ov, label+"-ov%")
			b.ReportMetric(float64(prot.Counts.Randomizations), label+"-moves")
		}
	}
}

// BenchmarkAblationTEWTarget sweeps the thread exposure window target:
// smaller TEWs mean more conditional operations (cost) and less time a
// compromised thread can touch the PMO (security).
func BenchmarkAblationTEWTarget(b *testing.B) {
	k, err := speckit.ByName("nab")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, tewUS := range []float64{0.5, 2, 8} {
			cfg := params.NewConfig(params.TT, params.DefaultEWMicros)
			cfg.TEWTarget = params.Micros(tewUS)
			ov, prot := ablationOverhead(b, cfg, kernel(k, nil))
			label := map[float64]string{0.5: "tew0.5us", 2: "tew2us", 8: "tew8us"}[tewUS]
			b.ReportMetric(100*ov, label+"-ov%")
			b.ReportMetric(100*prot.Exposure.TER, label+"-TER%")
		}
	}
}
