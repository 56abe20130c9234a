package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestAccountsTotalsAndOverhead(t *testing.T) {
	var a Accounts
	a.Add(Base, 1000)
	a.Add(Attach, 50)
	a.Add(Detach, 30)
	a.Add(Cond, 20)
	if a.Total() != 1100 {
		t.Fatalf("total = %d", a.Total())
	}
	if got := a.Overhead(); got != 0.1 {
		t.Fatalf("overhead = %f, want 0.1", got)
	}
	if got := a.Fraction(Attach); got != 0.05 {
		t.Fatalf("attach fraction = %f", got)
	}
}

func TestAccountsZeroBase(t *testing.T) {
	// A fully empty tally is a legitimate "nothing ran" state: ratios 0.
	var empty Accounts
	if empty.Overhead() != 0 || empty.Fraction(Attach) != 0 {
		t.Fatal("empty tally must report 0, not NaN")
	}
	// Zero Base with nonzero overhead accounts means a miscredited run;
	// the ratio is undefined and must surface as NaN, not a silent 0.
	var a Accounts
	a.Add(Attach, 10)
	if got := a.Overhead(); !math.IsNaN(got) {
		t.Fatalf("Overhead with zero base = %v, want NaN", got)
	}
	if got := a.Fraction(Attach); !math.IsNaN(got) {
		t.Fatalf("Fraction(Attach) with zero base = %v, want NaN", got)
	}
	// Accounts that are themselves zero still report 0.
	if got := a.Fraction(Detach); got != 0 {
		t.Fatalf("Fraction(Detach) = %v, want 0", got)
	}
}

func TestChargeHookObservesCharges(t *testing.T) {
	th := SingleThread()
	var seen []uint64
	th.ChargeHook = func(a Account, n uint64) {
		if a == Attach {
			seen = append(seen, n)
		}
	}
	th.Charge(Attach, 40)
	th.Charge(Base, 10)
	th.DirectCharge(Attach, 5)
	if len(seen) != 2 || seen[0] != 40 || seen[1] != 5 {
		t.Fatalf("hook saw %v, want [40 5]", seen)
	}
}

func TestSwitchHookFiresOnContextSwitch(t *testing.T) {
	m := NewMachine(1, 10)
	type sw struct {
		ts     uint64
		thread int
	}
	var switches []sw
	m.SwitchHook = func(ts uint64, thread int) {
		switches = append(switches, sw{ts, thread})
	}
	for i := 0; i < 2; i++ {
		m.AddThread(func(th *Thread) {
			for j := 0; j < 5; j++ {
				th.Charge(Base, 10)
			}
		})
	}
	m.Run()
	if len(switches) < 2 {
		t.Fatalf("expected several switches, got %v", switches)
	}
	if switches[0].thread != 0 || switches[0].ts != 0 {
		t.Fatalf("first switch = %+v, want thread 0 at cycle 0", switches[0])
	}
	for i := 1; i < len(switches); i++ {
		if switches[i].thread == switches[i-1].thread {
			t.Fatalf("consecutive switch events for same thread: %v", switches)
		}
		if switches[i].ts < switches[i-1].ts {
			t.Fatalf("switch timestamps not monotone: %v", switches)
		}
	}
}

func TestAccountsMerge(t *testing.T) {
	var a, b Accounts
	a.Add(Base, 10)
	b.Add(Base, 5)
	b.Add(Rand, 7)
	a.Merge(&b)
	if a[Base] != 15 || a[Rand] != 7 {
		t.Fatalf("merge wrong: %v", a)
	}
}

func TestAccountStrings(t *testing.T) {
	names := map[Account]string{Base: "base", Attach: "attach", Detach: "detach", Rand: "rand", Cond: "cond", Other: "other"}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestSingleThreadCharge(t *testing.T) {
	th := SingleThread()
	th.Charge(Base, 100)
	th.Charge(Attach, 50)
	if th.Clock != 150 {
		t.Fatalf("clock = %d", th.Clock)
	}
	th.AdvanceTo(200, Other)
	if th.Clock != 200 || th.Costs[Other] != 50 {
		t.Fatalf("advance: clock=%d other=%d", th.Clock, th.Costs[Other])
	}
	// AdvanceTo to the past is a no-op.
	th.AdvanceTo(100, Other)
	if th.Clock != 200 {
		t.Fatal("AdvanceTo moved clock backward")
	}
}

// step is one step of a scripted thread body: Charge(n), or with direct
// set DirectCharge(n) followed by an explicit Yield.
type step struct {
	n      uint64
	direct bool
}

// TestMachineMinTimeOrdering runs scripted thread bodies and checks the
// exact schedule: every body step start ("t<id>@<clock>"), and with
// hooks on every tick ("tick <now>") and context switch
// ("switch t<id>@<clock>"), in the order they happened, plus each
// thread's final clock.
func TestMachineMinTimeOrdering(t *testing.T) {
	for _, tc := range []struct {
		name    string
		quantum uint64
		threads [][]step
		// hooks installs SwitchHook and a tick hook that calls
		// ChargeAll(Rand, 4) on every third tick and stalls the
		// thread about to run on every fifth.
		hooks      bool
		want       []string
		wantClocks []uint64
	}{
		{
			// Step starts in min-time order: t0@0, t1@0 (tie by
			// ID), t1@50 (its clock 50 < t0's 100), then t0@100.
			name:       "two threads",
			quantum:    10,
			threads:    [][]step{{{n: 100}, {n: 100}}, {{n: 50}, {n: 200}}},
			want:       []string{"t0@0", "t1@0", "t1@50", "t0@100"},
			wantClocks: []uint64{200, 250},
		},
		{
			// Unequal steps; some yields leave the yielding thread
			// at the minimum clock, so it keeps the CPU; ticks
			// stall every thread or only the picked one; thread 1
			// finishes early.
			name:    "four threads with hooks",
			quantum: 20,
			threads: [][]step{
				{{n: 40}, {n: 5, direct: true}, {n: 30}, {n: 60, direct: true}, {n: 10}},
				{{n: 10}, {n: 10}, {n: 3, direct: true}},
				{{n: 20, direct: true}, {n: 70}, {n: 1, direct: true}, {n: 25}},
				{{n: 15}, {n: 2, direct: true}, {n: 2, direct: true}, {n: 55}, {n: 8, direct: true}},
			},
			hooks: true,
			want: []string{
				"switch t0@0", "t0@0",
				"switch t1@0", "t1@0", "t1@10",
				"switch t2@0", "t2@0",
				"switch t3@0", "t3@0", "t3@15", "tick 17", "t3@17", "tick 19", "t3@19", "tick 20",
				"switch t1@24", "t1@24", "tick 24",
				"switch t2@24", "t2@24", "tick 27",
				"switch t1@57", "tick 44",
				"switch t0@48", "t0@48", "tick 53", "t0@53", "tick 82",
				"switch t3@82", "t3@82", "tick 83",
				"switch t0@87", "t0@87", "tick 94",
				"switch t3@124", "tick 102",
				"switch t2@102", "t2@102", "tick 103", "t2@107", "tick 132", "tick 151",
				"switch t0@151", "t0@151",
			},
			wantClocks: []uint64{161, 57, 132, 124},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(1, tc.quantum)
			var log []string
			if tc.hooks {
				m.SwitchHook = func(ts uint64, thread int) {
					log = append(log, fmt.Sprintf("switch t%d@%d", thread, ts))
				}
				ticks := 0
				m.SetTick(func(now uint64) {
					log = append(log, fmt.Sprintf("tick %d", now))
					ticks++
					if ticks%3 == 0 {
						m.ChargeAll(Rand, 4)
					}
					if ticks%5 == 0 {
						// Stall only the thread about to run: it
						// was picked before the tick, so it still
						// runs next.
						for _, th := range m.Threads {
							if !th.done && th.Clock == now {
								th.DirectCharge(Other, 30)
							}
						}
					}
				})
			}
			for _, steps := range tc.threads {
				steps := steps
				m.AddThread(func(th *Thread) {
					for _, s := range steps {
						log = append(log, fmt.Sprintf("t%d@%d", th.ID, th.Clock))
						if s.direct {
							th.DirectCharge(Base, s.n)
							th.Yield()
						} else {
							th.Charge(Base, s.n)
						}
					}
				})
			}
			end := m.Run()
			var clocks []uint64
			for _, th := range m.Threads {
				clocks = append(clocks, th.Clock)
			}
			if !reflect.DeepEqual(log, tc.want) {
				t.Errorf("schedule =\n%q\nwant\n%q", log, tc.want)
			}
			if !reflect.DeepEqual(clocks, tc.wantClocks) || end != slices.Max(clocks) {
				t.Errorf("final clocks = %v, end = %d; want %v, end = max", clocks, end, tc.wantClocks)
			}
		})
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() []uint64 {
		m := NewMachine(42, 25)
		var ends []uint64
		for i := 0; i < 4; i++ {
			i := i
			m.AddThread(func(th *Thread) {
				for j := 0; j < 50; j++ {
					th.Charge(Base, uint64(10+i*3+j%7))
				}
				ends = append(ends, th.Clock)
			})
		}
		m.Run()
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestMachineTickMonotone(t *testing.T) {
	m := NewMachine(1, 5)
	var ticks []uint64
	m.SetTick(func(now uint64) { ticks = append(ticks, now) })
	for i := 0; i < 3; i++ {
		m.AddThread(func(th *Thread) {
			for j := 0; j < 20; j++ {
				th.Charge(Base, 7)
			}
		})
	}
	m.Run()
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("tick not strictly increasing at %d: %v", i, ticks)
		}
	}
	if len(ticks) == 0 {
		t.Fatal("tick hook never fired")
	}
}

func TestMachineTotalCosts(t *testing.T) {
	m := NewMachine(1, 100)
	m.AddThread(func(th *Thread) { th.Charge(Base, 10); th.Charge(Attach, 3) })
	m.AddThread(func(th *Thread) { th.Charge(Base, 20) })
	m.Run()
	c := m.TotalCosts()
	if c[Base] != 30 || c[Attach] != 3 {
		t.Fatalf("total costs = %v", c)
	}
}

func TestMachinePanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	m := NewMachine(1, 100)
	m.AddThread(func(th *Thread) { panic("boom") })
	m.Run()
}

// TestMachinePanicUnwindsThreads: when Run re-raises a thread's panic,
// the other threads' goroutines must not stay blocked on their turn
// channels. They cover the three places a live thread can be parked: in
// a deferred Yield, in a Yield whose caller defers another, and before
// its body ever started. None of them may run on past its park.
func TestMachinePanicUnwindsThreads(t *testing.T) {
	before := runtime.NumGoroutine()
	ranOn := false
	m := NewMachine(1, 10)
	m.AddThread(func(th *Thread) {
		defer th.Yield()
		th.DirectCharge(Base, 1)
	})
	m.AddThread(func(th *Thread) {
		defer th.Yield()
		th.Charge(Base, 20)
		ranOn = true
	})
	m.AddThread(func(th *Thread) { panic("boom") })
	m.AddThread(func(th *Thread) { ranOn = true })

	func() {
		defer func() {
			r := recover()
			if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "sim thread 2: boom") {
				t.Fatalf("recovered %v, want thread 2's panic", r)
			}
		}()
		m.Run()
	}()
	if ranOn {
		t.Error("a parked thread ran on after another thread panicked")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines after a panicking Run = %d, want <= %d (thread leak)", n, before)
	}
}

// runHandoff runs a machine of threads whose bodies each charge quanta
// quanta one at a time, so every charge yields and hands the CPU to the
// next thread.
func runHandoff(threads, quanta int) {
	const quantum = 200
	m := NewMachine(1, quantum)
	for t := 0; t < threads; t++ {
		m.AddThread(func(th *Thread) {
			for i := 0; i < quanta; i++ {
				th.Charge(Base, quantum)
			}
		})
	}
	m.Run()
}

// TestMachineHandoffAllocatesNothing: a run with 11x the handoffs
// allocates exactly as much, so a handoff allocates nothing.
func TestMachineHandoffAllocatesNothing(t *testing.T) {
	allocs := func(quanta int) float64 {
		return testing.AllocsPerRun(5, func() { runHandoff(4, quanta) })
	}
	if short, long := allocs(100), allocs(1100); short != long {
		t.Fatalf("allocs per run = %v at 100 quanta per thread, %v at 1100; want equal", short, long)
	}
}

// BenchmarkMachineHandoff times one scheduler handoff between four
// threads, as terpperf's sim.handoff_ns does.
func BenchmarkMachineHandoff(b *testing.B) {
	const threads = 4
	b.ReportAllocs()
	runHandoff(threads, (b.N+threads-1)/threads)
}

func TestMachineEmptyRun(t *testing.T) {
	m := NewMachine(1, 100)
	if end := m.Run(); end != 0 {
		t.Fatalf("empty machine end = %d", end)
	}
}

func TestYieldQuantumForcesInterleaving(t *testing.T) {
	// With a tiny quantum, a thread that charges a lot must observe the
	// other thread's progress interleaved. We detect interleaving by
	// recording the global order of quantum-sized chunks.
	m := NewMachine(1, 10)
	var seq []int
	for i := 0; i < 2; i++ {
		i := i
		m.AddThread(func(th *Thread) {
			for j := 0; j < 10; j++ {
				th.Charge(Base, 10)
				seq = append(seq, i)
			}
		})
	}
	m.Run()
	// Pure "all of thread 0 then all of thread 1" would be a failure of
	// min-time scheduling given equal charges.
	switches := 0
	for i := 1; i < len(seq); i++ {
		if seq[i] != seq[i-1] {
			switches++
		}
	}
	if switches < 5 {
		t.Fatalf("threads did not interleave: %v", seq)
	}
}
