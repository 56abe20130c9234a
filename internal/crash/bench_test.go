package crash

import "testing"

// benchSpecs are the crash-grid cells BenchmarkCrashRun measures at their
// default length: the hashmap workload, 8 points each, crashed at every
// 23rd fence under strict ordering (one pass) and at a seeded-random
// sample under adversarial ordering (a counting pass, then a replay that
// stops after the last sampled point).
var benchSpecs = []struct {
	name string
	spec Spec
}{
	{"fence-strict", Spec{Workload: "hashmap", Ops: 400, Seed: 1, Policy: FencePolicy, Every: 23, Points: 8}},
	{"random-adv", Spec{Workload: "hashmap", Ops: 400, Seed: 1, Policy: RandomPolicy, Points: 8, Adversarial: true}},
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
}
