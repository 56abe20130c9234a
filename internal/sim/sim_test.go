package sim

import (
	"fmt"
	"math"
	"math/rand"
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
	if th.Clock != 150 || th.Costs[Base] != 100 || th.Costs[Attach] != 50 {
		t.Fatalf("clock = %d, costs = %v", th.Clock, th.Costs)
	}
	// A wait charges before each check.
	checks := 0
	th.Wait(Other, 50, func() bool { checks++; return th.Clock < 300 })
	if th.Clock != 300 || th.Costs[Other] != 150 || checks != 3 {
		t.Fatalf("after the wait: clock = %d, other = %d, %d checks", th.Clock, th.Costs[Other], checks)
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

// TestMachineDeterminism: two runs of the same four threads end at the
// same clocks, and each run leaves no thread goroutine behind.
func TestMachineDeterminism(t *testing.T) {
	run := func() []uint64 {
		before := runtime.NumGoroutine()
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
		waitGoroutines(t, before)
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

// TestMachinePanicPropagates: Run re-raises a thread's panic as "sim
// thread N: <value>" and leaves no thread goroutine behind. In the second
// case thread 0 parks in Charge and recovers from its own unwinding, so
// its body returns normally while thread 2 is still unfinished; Run must
// neither hang nor hand the CPU on to thread 2.
func TestMachinePanicPropagates(t *testing.T) {
	ranOn := false
	for _, tc := range []struct {
		name   string
		bodies []func(*Thread)
		want   string
	}{
		{"lone thread", []func(*Thread){func(th *Thread) { panic("boom") }}, "sim thread 0: boom"},
		{"parked thread recovers", []func(*Thread){
			func(th *Thread) {
				defer func() { recover() }()
				th.Charge(Base, 20)
			},
			func(th *Thread) { panic("boom") },
			func(th *Thread) { ranOn = true },
		}, "sim thread 1: boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := NewMachine(1, 10)
			for _, body := range tc.bodies {
				m.AddThread(body)
			}
			func() {
				defer func() {
					if r := recover(); fmt.Sprint(r) != tc.want {
						t.Fatalf("recovered %v, want %q", r, tc.want)
					}
				}()
				m.Run()
			}()
			if ranOn {
				t.Error("a thread that never started ran after another thread panicked")
			}
			waitGoroutines(t, before)
		})
	}
}

// waitGoroutines fails t unless the goroutine count falls back to before
// within 5 s. Each thread runs on a goroutine of its own, so a count that
// stays higher is a leaked thread.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines after Run = %d, want <= %d (thread leak)", n, before)
	}
}

// TestMachinePanicUnwindsThreads: when Run re-raises a thread's panic,
// the other threads' coroutines must not stay parked. They cover the
// three places a live thread can be parked: in a deferred Yield, in a
// Yield whose caller defers another, and before its body ever started.
// None of them may run on past its park.
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

// TestMachineStepperPanicUnwindsThreads: a stepper's panic unwinds Run's
// own stack. Run re-raises it as the stepper's and unwinds the closure
// body parked in its coroutine, detached from the machine: the Yield it
// defers runs no scheduler hook.
func TestMachineStepperPanicUnwindsThreads(t *testing.T) {
	before := runtime.NumGoroutine()
	ranOn, unwinding, hooks := false, false, 0
	m := NewMachine(1, 10)
	m.SwitchHook = func(uint64, int) {
		if unwinding {
			hooks++
		}
	}
	m.AddThread(func(th *Thread) {
		defer th.Yield()
		th.Charge(Base, 20)
		ranOn = true
	})
	var st *Thread
	st = m.AddStepper(func() {
		st.DirectCharge(Base, 50)
		unwinding = true
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); fmt.Sprint(r) != "sim thread 1: boom" {
				t.Fatalf("recovered %v, want thread 1's panic", r)
			}
		}()
		m.Run()
	}()
	if ranOn {
		t.Error("a parked closure body ran on after a stepper panicked")
	}
	if hooks > 0 {
		t.Errorf("the unwinding closure body's Yield ran %d switch hooks", hooks)
	}
	waitGoroutines(t, before)
}

// runHandoff runs a machine of threads that each charge quanta quanta
// one at a time, so every charge yields and hands the CPU to the next
// thread. The threads are closure bodies, or with stepped set steppers.
func runHandoff(threads, quanta int, stepped bool) {
	const quantum = 200
	m := NewMachine(1, quantum)
	for t := 0; t < threads; t++ {
		if !stepped {
			m.AddThread(func(th *Thread) {
				for i := 0; i < quanta; i++ {
					th.Charge(Base, quantum)
				}
			})
			continue
		}
		left := quanta
		var th *Thread
		th = m.AddStepper(func() {
			for left > 0 {
				left--
				if th.Charge(Base, quantum); th.Switched() {
					return
				}
			}
		})
	}
	m.Run()
}

// TestMachineHandoffAllocatesNothing: for closure bodies and steppers
// alike, a run with 11x the handoffs allocates exactly as much, so a
// handoff allocates nothing.
func TestMachineHandoffAllocatesNothing(t *testing.T) {
	for _, stepped := range []bool{false, true} {
		allocs := func(quanta int) float64 {
			return testing.AllocsPerRun(5, func() { runHandoff(4, quanta, stepped) })
		}
		if short, long := allocs(100), allocs(1100); short != long {
			t.Fatalf("stepped %v: allocs per run = %v at 100 quanta per thread, %v at 1100; want equal", stepped, short, long)
		}
	}
}

// BenchmarkMachineHandoff times one scheduler handoff between four
// threads: closure bodies, as terpperf's sim.handoff_ns does, and
// steppers, as the linked interpreter's SPEC threads are.
func BenchmarkMachineHandoff(b *testing.B) {
	const threads = 4
	for _, stepped := range []bool{false, true} {
		b.Run(map[bool]string{false: "closure", true: "stepped"}[stepped], func(b *testing.B) {
			b.ReportAllocs()
			runHandoff(threads, (b.N+threads-1)/threads, stepped)
		})
	}
}

// waitLoop is the loop Wait replaces, run on the waiting thread's own
// coroutine: charge (which yields once the quantum is spent), yield, and
// check.
func waitLoop(th *Thread, a Account, n uint64, check func() bool) {
	for {
		th.Charge(a, n)
		th.Yield()
		if !check() {
			return
		}
	}
}

// waitFunc is (*Thread).Wait or waitLoop.
type waitFunc func(th *Thread, a Account, n uint64, check func() bool)

// waitMode is how runWaitMachine runs its scripts: as closure bodies that
// wait with waitLoop or with Wait, or as steppers, which wait with Wait.
type waitMode int

const (
	closureLoop waitMode = iota
	closureWait
	stepped
)

func (w waitMode) String() string { return [...]string{"closure, loop", "closure, Wait", "stepper"}[w] }

// waitRun is what one run of a seeded machine did: every ChargeHook,
// tick, SwitchHook, check and step start in order, and each thread's
// final clock and costs.
type waitRun struct {
	log    []string
	clocks []uint64
	costs  []Accounts
	end    uint64
}

// runWaitMachine builds a machine of 2 to 4 threads from seed, each
// running a seeded script of charges, direct charges with a yield, and
// waits, and runs it in the given mode. A wait's check passes once the
// thread's clock reaches a seeded time or once another seeded thread has
// started a seeded number of steps. Ticks charge every thread on every
// third tick and stall the thread about to run on every fifth.
func runWaitMachine(seed int64, quantum uint64, mode waitMode) waitRun {
	rng := rand.New(rand.NewSource(seed))
	m := NewMachine(seed, quantum)
	var r waitRun
	logf := func(format string, args ...any) { r.log = append(r.log, fmt.Sprintf(format, args...)) }
	m.SwitchHook = func(ts uint64, thread int) { logf("switch t%d@%d", thread, ts) }
	ticks := 0
	m.SetTick(func(now uint64) {
		logf("tick %d", now)
		ticks++
		if ticks%3 == 0 {
			m.ChargeAll(Rand, 7)
		}
		if ticks%5 == 0 {
			for _, th := range m.Threads {
				if !th.done && th.Clock == now {
					th.DirectCharge(Other, 40)
					break
				}
			}
		}
	})
	threads := 2 + rng.Intn(3)
	started := make([]int, threads)
	for i := 0; i < threads; i++ {
		type op struct {
			kind      int // 0 charge, 1 direct charge and yield, 2 wait
			a         Account
			n         uint64
			delay     uint64 // a wait's check passes delay cycles after it starts,
			on, steps int    // or once thread on has started steps steps
		}
		ops := make([]op, 2+rng.Intn(6))
		for j := range ops {
			ops[j] = op{
				kind:  rng.Intn(3),
				a:     Account(rng.Intn(int(numAccounts))),
				n:     []uint64{200, uint64(1 + rng.Intn(400)), uint64(1 + rng.Intn(5000))}[rng.Intn(3)],
				delay: uint64(rng.Intn(6000)),
				on:    rng.Intn(threads),
				steps: rng.Intn(8),
			}
		}
		// run runs step j of the script. A stepper's wait, like any
		// charge, is over by the time its next step runs.
		run := func(th *Thread, j int) {
			o := ops[j]
			logf("t%d step %d@%d", th.ID, j, th.Clock)
			started[th.ID]++
			switch o.kind {
			case 0:
				th.Charge(o.a, o.n)
			case 1:
				th.DirectCharge(o.a, o.n)
				th.Yield()
			case 2:
				until := th.Clock + o.delay
				check := func() bool {
					logf("check t%d@%d", th.ID, th.Clock)
					return th.Clock < until && started[o.on] < o.steps
				}
				if mode == closureLoop {
					waitLoop(th, o.a, o.n, check)
				} else {
					th.Wait(o.a, o.n, check)
				}
			}
		}
		var th *Thread
		if mode == stepped {
			j := 0
			th = m.AddStepper(func() {
				for j < len(ops) {
					run(th, j)
					if j++; th.Switched() {
						return
					}
				}
			})
		} else {
			th = m.AddThread(func(th *Thread) {
				for j := range ops {
					run(th, j)
				}
			})
		}
		th.ChargeHook = func(a Account, n uint64) { logf("charge t%d %v %d", th.ID, a, n) }
	}
	r.end = m.Run()
	for _, th := range m.Threads {
		r.clocks = append(r.clocks, th.Clock)
		r.costs = append(r.costs, th.Costs)
	}
	return r
}

// TestMachineWaitMatchesLoop: at three quanta and over seeded machines,
// one scheduler runs both kinds of thread alike. A Wait makes exactly the
// calls of the loop it replaces, and a stepper, which returns to Run at
// each switch and finishes a charge's remainder when it next runs, makes
// exactly the calls of a closure body. All three runs log the same hook
// calls, checks and step starts in the same order, and end with the same
// clocks and costs.
func TestMachineWaitMatchesLoop(t *testing.T) {
	checks := 0
	for _, quantum := range []uint64{50, 200, 1000} {
		for seed := int64(1); seed <= 60; seed++ {
			want := runWaitMachine(seed, quantum, closureLoop)
			for _, mode := range []waitMode{closureWait, stepped} {
				got := runWaitMachine(seed, quantum, mode)
				if !reflect.DeepEqual(got, want) {
					i := 0
					for i < len(got.log) && i < len(want.log) && got.log[i] == want.log[i] {
						i++
					}
					t.Fatalf("quantum %d, seed %d: %v differs from the loop from event %d:\n%v %q\nloop %q\nclocks %v, %v; costs %v, %v",
						quantum, seed, mode, i, mode, got.log[i:min(i+5, len(got.log))], want.log[i:min(i+5, len(want.log))],
						got.clocks, want.clocks, got.costs, want.costs)
				}
				for _, e := range got.log {
					if strings.HasPrefix(e, "check") {
						checks++
					}
				}
			}
		}
	}
	if checks < 2000 {
		t.Fatalf("the machines made only %d checks", checks)
	}
}

// TestMachineWaitLastThread: once the other thread has finished, Run
// itself runs the waiting thread's retries, with the same calls as the
// loop on the thread's own coroutine.
func TestMachineWaitLastThread(t *testing.T) {
	run := func(wait waitFunc) (log []string, clock uint64, after int) {
		m := NewMachine(1, 200)
		m.SetTick(func(now uint64) { log = append(log, fmt.Sprintf("tick %d", now)) })
		finished := false
		m.AddThread(func(th *Thread) {
			th.Charge(Base, 1000)
			finished = true
		})
		m.AddThread(func(th *Thread) {
			th.ChargeHook = func(a Account, n uint64) { log = append(log, fmt.Sprintf("charge %v %d", a, n)) }
			wait(th, Other, 300, func() bool {
				if finished {
					after++
				}
				return th.Clock < 5000
			})
		})
		m.Run()
		return log, m.Threads[1].Clock, after
	}
	wantLog, wantClock, _ := run(waitLoop)
	log, clock, after := run((*Thread).Wait)
	if !reflect.DeepEqual(log, wantLog) || clock != wantClock || clock != 5100 {
		t.Fatalf("Wait: clock %d, log %q\nloop: clock %d, log %q; want clock 5100", clock, log, wantClock, wantLog)
	}
	if after == 0 {
		t.Fatal("no check ran after the other thread finished")
	}
}

// TestMachineWaitPanics: a panic while a thread waits ends the run with
// the same message as under the loop, and no thread goroutine outlives
// it. The panic comes from another thread's body, or from the waiting
// thread's check, run by another thread's Yield or by Run itself; a
// check's panic names the waiting thread, whichever stack ran it.
func TestMachineWaitPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		// worker is thread 0's body; thread 1 waits, and its check
		// panics on the third call when boom is set.
		worker func(th *Thread)
		boom   bool
		want   string
	}{
		{"other thread panics", func(th *Thread) {
			th.Charge(Base, 1000)
			panic("worker")
		}, false, "sim thread 0: worker"},
		{"check panics on another thread's yield", func(th *Thread) {
			for i := 0; i < 100; i++ {
				th.Charge(Base, 200)
			}
		}, true, "sim thread 1: check"},
		{"check panics on Run", func(th *Thread) {
			// Thread 1 parks in its second retry, at 400 cycles.
			th.Charge(Base, 300)
		}, true, "sim thread 1: check"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []struct {
				name string
				wait waitFunc
			}{{"loop", waitLoop}, {"Wait", (*Thread).Wait}} {
				before := runtime.NumGoroutine()
				m := NewMachine(1, 200)
				m.AddThread(tc.worker)
				m.AddThread(func(th *Thread) {
					calls := 0
					w.wait(th, Other, 200, func() bool {
						if calls++; tc.boom && calls == 3 {
							panic("check")
						}
						return true
					})
				})
				func() {
					defer func() {
						if r := recover(); fmt.Sprint(r) != tc.want {
							t.Fatalf("%s: recovered %v, want %q", w.name, r, tc.want)
						}
					}()
					m.Run()
				}()
				waitGoroutines(t, before)
			}
		})
	}
}

// TestMachineWaitAllocatesNothing: a wait whose retries run on another
// thread's stack allocates nothing.
func TestMachineWaitAllocatesNothing(t *testing.T) {
	m := NewMachine(1, 200)
	allocs := -1.0
	waiting := true
	m.AddThread(func(th *Thread) {
		tries := 0
		check := func() bool {
			tries++
			return tries%50 != 0
		}
		allocs = testing.AllocsPerRun(20, func() { th.Wait(Other, 200, check) })
		waiting = false
	})
	m.AddThread(func(th *Thread) {
		for waiting {
			th.Charge(Base, 200)
		}
	})
	m.Run()
	if allocs != 0 {
		t.Fatalf("allocs per wait = %v, want 0", allocs)
	}
}

// runWait runs one worker that charges quanta quanta one at a time beside
// waiters that wait while it works, so each quantum the worker charges
// lets every waiter retry once.
func runWait(waiters, quanta int, wait waitFunc) {
	const quantum = 200
	m := NewMachine(1, quantum)
	working := true
	m.AddThread(func(th *Thread) {
		for i := 0; i < quanta; i++ {
			th.Charge(Base, quantum)
		}
		working = false
	})
	for w := 0; w < waiters; w++ {
		m.AddThread(func(th *Thread) {
			wait(th, Other, quantum, func() bool { return working })
		})
	}
	m.Run()
}

// BenchmarkMachineWait times one retry of a waiting thread, with one
// worker and three waiters.
func BenchmarkMachineWait(b *testing.B) {
	const waiters = 3
	b.ReportAllocs()
	runWait(waiters, (b.N+waiters-1)/waiters, (*Thread).Wait)
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
