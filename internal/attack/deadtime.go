// Package attack implements the security analysis of Section VII: the
// object dead-time profiler behind the TEW-selection study (Figure 8),
// the probabilistic probe-attack model of the quantitative comparison
// (Table V) with a Monte-Carlo validation against the real randomized
// address space, the gadget scanner of the attack-scenario analysis
// (Table VI), and the data-only attack case study of Figure 12.
package attack

import (
	"math"
	"math/rand"

	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/stats"
)

// DeadTime is one sample: the time from the last write to a heap object
// until its deallocation, in cycles. Corrupting an object inside this
// window persists until the free, making dead time the attack surface the
// TEW target is chosen against (Section VII-A).
type DeadTime struct {
	// Object identifies the allocation.
	Object pmo.OID
	// Cycles is the dead-time length.
	Cycles uint64
}

// AllocProfile parameterizes one allocation-heavy benchmark for the
// profiler: how long objects live and how their writes spread over the
// lifetime. The defaults below model the eight SPEC and five Heap Layers
// programs measured in the paper.
type AllocProfile struct {
	// Name labels the benchmark.
	Name string
	// Objects is the number of allocate-write-free episodes.
	Objects int
	// MinLife and MaxLife bound object lifetimes in cycles
	// (log-uniformly distributed).
	MinLife, MaxLife uint64
	// Writes is the number of writes per object.
	Writes int
	// TailBias in [0,1) biases the last write toward the free point: 0
	// spreads writes uniformly, values near 1 cluster them early
	// (longer dead times).
	TailBias float64
}

// Profiles returns the thirteen benchmark profiles of Figure 8: eight
// SPEC-like programs with mostly long-lived objects and five Heap
// Layers-style allocator stress programs with rapid allocation churn.
func Profiles() []AllocProfile {
	us := uint64(params.CyclesPerMicro)
	var out []AllocProfile
	spec := []string{"mcf", "lbm", "imagick", "nab", "xz", "gcc", "perlbench", "omnetpp"}
	for i, n := range spec {
		out = append(out, AllocProfile{
			Name:     n,
			Objects:  400,
			MinLife:  4 * us,
			MaxLife:  uint64(2000+500*i) * us,
			Writes:   6,
			TailBias: 0.3,
		})
	}
	heap := []string{"cfrac", "espresso", "lindsay", "boxed-sim", "mudlle"}
	for i, n := range heap {
		out = append(out, AllocProfile{
			Name:     n,
			Objects:  800,
			MinLife:  1 * us,
			MaxLife:  uint64(100+60*i) * us,
			Writes:   3,
			TailBias: 0.15,
		})
	}
	return out
}

// ProfileDeadTimesObs runs one benchmark profile on a real PMO allocator
// with a simulated clock and returns the dead-time samples. Each episode
// allocates an object, writes it Writes times across its lifetime, and
// frees it; the dead time is the gap between the last write and the free.
// Each sample is also emitted on the track as an "attack/deadtime"
// instant at the last-write time with the dead-time length as its arg,
// so the report layer can rebuild the dead-time distribution from the
// event stream without re-running the scan. A nil track records nothing.
func ProfileDeadTimesObs(p AllocProfile, seed int64, track *obs.Track) ([]DeadTime, error) {
	dev := nvm.NewDevice(nvm.NVM, 1<<28)
	mgr := pmo.NewManager(dev)
	pool, err := mgr.Create("deadtime."+p.Name, 1<<26, pmo.ModeRead|pmo.ModeWrite)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var clock uint64
	out := make([]DeadTime, 0, p.Objects)
	for i := 0; i < p.Objects; i++ {
		o, err := pool.Alloc(uint64(16 + rng.Intn(240)))
		if err != nil {
			return nil, err
		}
		life := logUniform(rng, p.MinLife, p.MaxLife)
		// Writes land in the first (1-TailBias) fraction... the last
		// write position defines the dead time.
		lastFrac := rng.Float64() * (1 - p.TailBias)
		lastWrite := clock + uint64(lastFrac*float64(life))
		for w := 0; w < p.Writes; w++ {
			at := uint64(float64(lastWrite-clock) * float64(w+1) / float64(p.Writes))
			_ = pool.Write8(o.Offset(), uint64(at))
		}
		free := clock + life
		out = append(out, DeadTime{Object: o, Cycles: free - lastWrite})
		track.Instant(lastWrite, obs.CatAttack, "deadtime", int64(free-lastWrite))
		if err := pool.Free(o); err != nil {
			return nil, err
		}
		clock = free + uint64(rng.Intn(2000))
	}
	return out, nil
}

func logUniform(rng *rand.Rand, lo, hi uint64) uint64 {
	if hi <= lo {
		return lo
	}
	ratio := float64(hi) / float64(lo)
	return uint64(float64(lo) * math.Pow(ratio, rng.Float64()))
}

// DeadTimeStudyObs runs all profiles and returns the Figure 8 histogram
// (in microseconds) plus the fraction of dead times at or above the TEW
// target — the attack-surface reduction the paper reports as 95%. Each
// profile's samples are emitted as "attack/deadtime" instants on its own
// pseudo-thread track (profile index), so one recorder carries all
// thirteen benchmarks as separate tracks. A nil recorder records nothing.
func DeadTimeStudyObs(seed int64, rec *obs.Recorder) (*stats.Histogram, float64, error) {
	bounds := []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	h := stats.NewHistogram(bounds)
	var atLeastTEW int
	for i, p := range Profiles() {
		samples, err := ProfileDeadTimesObs(p, seed, rec.Track(i))
		if err != nil {
			return nil, 0, err
		}
		for _, s := range samples {
			v := params.ToMicros(s.Cycles)
			h.Add(v)
			if v >= params.DefaultTEWMicros {
				atLeastTEW++
			}
		}
	}
	return h, float64(atLeastTEW) / float64(h.N), nil
}
