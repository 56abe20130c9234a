package crash

import "testing"

// BenchmarkCrashRun measures one cell of the crash grid at its default
// length: the hashmap workload crashed at every 23rd fence under strict
// ordering, 8 points, each recovered on a fresh device.
func BenchmarkCrashRun(b *testing.B) {
	s := Spec{Workload: "hashmap", Ops: 400, Seed: 1, Policy: FencePolicy, Every: 23, Points: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Points) != 8 || rep.Failures != 0 {
			b.Fatalf("%d points, %d failures", len(rep.Points), rep.Failures)
		}
	}
}
