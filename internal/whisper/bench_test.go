package whisper

import (
	"math/rand"
	"testing"
)

// BenchmarkSetup measures what each workload costs before its first
// measured operation: building the machine Run builds and running
// Setup, whose load phase is not timed in simulated cycles.
func BenchmarkSetup(b *testing.B) {
	for _, mk := range All() {
		b.Run(mk().Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, mgr, ctx := newMeasured()
				if err := mk().Setup(mgr, ctx, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
