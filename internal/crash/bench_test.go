package crash

import "testing"

// benchSpecs are the crash-grid cells BenchmarkCrashRun measures at their
// default length, 8 points each: crashed at every 23rd fence under strict
// ordering (one pass) and at a seeded-random sample under adversarial
// ordering (a replay that stops after the last sampled point). A random
// cell counts the events in a pass of its own only when no full pass of
// its workload, seed and op count has run in the process, so every
// random-adv iteration after the first runs the replay alone; the
// hashmap-pair case runs a fence cell and then a random one, as a serial
// grid does. The hashmap cells audit a preloaded hash table, tpcc its
// order and line arrays, and echo its record area and an index that
// starts empty. TestCrashRunAllocatesUnderOneMBPerPoint runs the first.
var benchSpecs = []struct {
	name string
	spec Spec
}{
	{"fence-strict", Spec{Workload: "hashmap", Ops: 400, Seed: 1, Policy: FencePolicy, Every: 23, Points: 8}},
	{"random-adv", Spec{Workload: "hashmap", Ops: 400, Seed: 1, Policy: RandomPolicy, Points: 8, Adversarial: true}},
	{"tpcc-fence-strict", Spec{Workload: "tpcc", Ops: 400, Seed: 1, Policy: FencePolicy, Every: 23, Points: 8}},
	{"tpcc-random-adv", Spec{Workload: "tpcc", Ops: 400, Seed: 1, Policy: RandomPolicy, Points: 8, Adversarial: true}},
	{"echo-fence-strict", Spec{Workload: "echo", Ops: 400, Seed: 1, Policy: FencePolicy, Every: 23, Points: 8}},
	{"echo-random-adv", Spec{Workload: "echo", Ops: 400, Seed: 1, Policy: RandomPolicy, Points: 8, Adversarial: true}},
}

func BenchmarkCrashRun(b *testing.B) {
	for _, bs := range benchSpecs {
		b.Run(bs.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := Run(bs.spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Points) != 8 || rep.Failures != 0 {
					b.Fatalf("%d points, %d failures", len(rep.Points), rep.Failures)
				}
			}
		})
	}
	b.Run("hashmap-pair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range []Spec{benchSpecs[0].spec, benchSpecs[1].spec} {
				rep, err := Run(s)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Points) != 8 || rep.Failures != 0 {
					b.Fatalf("%d points, %d failures", len(rep.Points), rep.Failures)
				}
			}
		}
	})
}
