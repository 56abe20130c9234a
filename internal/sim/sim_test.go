package sim

import (
	"math"
	"runtime"
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

func TestMachineMinTimeOrdering(t *testing.T) {
	m := NewMachine(1, 10)
	var order []int
	// Thread 0 does two 100-cycle steps; thread 1 does one 50-cycle
	// step then one 200-cycle step. Min-time order of step starts:
	// t0@0, t1@0 (tie by id: t0 first), then t1@50, t0@100, t1@250...
	m.AddThread(func(th *Thread) {
		order = append(order, 0)
		th.Charge(Base, 100)
		order = append(order, 0)
		th.Charge(Base, 100)
	})
	m.AddThread(func(th *Thread) {
		order = append(order, 1)
		th.Charge(Base, 50)
		order = append(order, 1)
		th.Charge(Base, 200)
	})
	end := m.Run()
	if end != 250 {
		t.Fatalf("end = %d, want 250", end)
	}
	// Step starts in min-time order: t0@0, t1@0 (tie by ID), t1@50
	// (its clock 50 < t0's 100), then t0@100.
	want := []int{0, 1, 1, 0}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
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
