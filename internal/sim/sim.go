//go:build go1.23

// Package sim provides the deterministic timing substrate of the TERP
// reproduction: simulated per-thread clocks, a cooperative scheduler that
// interleaves simulated threads in global time order, and cost
// accounting broken down by overhead component (the
// attach/detach/rand/cond/other breakdown of Figures 9-11).
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
)

// Account names one overhead component in the execution-time breakdown.
type Account int

// The overhead components of Figures 9, 10 and 11, plus Base, which is the
// time the unprotected workload itself consumes.
const (
	// Base is workload execution time that is not protection overhead.
	Base Account = iota
	// Attach and Detach are time spent in full attach() and detach()
	// system calls.
	Attach
	Detach
	// Rand is time spent in PMO space layout randomization (including
	// the TLB invalidations it triggers).
	Rand
	// Cond is time spent in conditional attach/detach instructions that
	// were lowered to thread permission changes.
	Cond
	// Other is remaining protection overhead: permission matrix checks,
	// extra TLB costs, blocking on Basic-semantics contention.
	Other
	numAccounts
)

// String returns the label used in the paper's figures.
func (a Account) String() string {
	if a < 0 || a >= numAccounts {
		return fmt.Sprintf("account(%d)", int(a))
	}
	return [...]string{"base", "attach", "detach", "rand", "cond", "other"}[a]
}

// Accounts is a per-component cycle tally.
type Accounts [numAccounts]uint64

// Add charges n cycles to account a.
func (t *Accounts) Add(a Account, n uint64) { t[a] += n }

// Total returns the sum over all accounts.
func (t *Accounts) Total() uint64 {
	var s uint64
	for _, v := range t {
		s += v
	}
	return s
}

// Overhead returns the protection overhead relative to Base time:
// (total - base) / base. With no Base time recorded the ratio is
// undefined: it returns 0 for a fully empty tally, and NaN when other
// accounts carry cycles but Base does not — that shape means a
// miscredited run and must not be folded silently into rollups.
func (t *Accounts) Overhead() float64 { return ofBase(t.Total()-t[Base], t[Base]) }

// Fraction returns account a's share of Base time (the per-component
// overhead bars of Figures 9-11 are stacked fractions of base time).
// Like Overhead, it returns NaN when Base is zero but account a is not,
// and 0 only when both are zero.
func (t *Accounts) Fraction(a Account) float64 { return ofBase(t[a], t[Base]) }

// ofBase returns n / base: 0 when both are zero, NaN when only base is.
func ofBase(n, base uint64) float64 {
	if base == 0 && n != 0 {
		return math.NaN()
	}
	return float64(n) / float64(max(base, 1))
}

// Merge adds o into t.
func (t *Accounts) Merge(o *Accounts) {
	for i := range t {
		t[i] += o[i]
	}
}

// Thread is one simulated hardware thread. A Thread owns a local clock in
// cycles and a per-component cost account. Threads are advanced either
// directly (single-threaded runs) or by a Machine scheduler.
type Thread struct {
	// ID is the dense thread index within its Machine.
	ID int
	// Clock is the thread-local time in cycles.
	Clock uint64
	// Costs is the per-component cycle tally of this thread.
	Costs Accounts

	// ChargeHook, when set, observes every charge (account and cycle
	// count) before the clock advances. The observability layer uses it
	// to build per-account cycle histograms without sim importing it.
	ChargeHook func(a Account, n uint64)

	machine *Machine
	// yieldBudget counts cycles charged since the last yield; a charge
	// yields once it reaches the machine's quantum.
	yieldBudget uint64

	done bool
	err  error
	// step runs the thread until a yield picks another thread, left in
	// next, or until its body ends (next stays nil). A closure body's
	// first step starts its coroutine; resume runs it until it parks in
	// yield, and stop unwinds it.
	step   func()
	next   *Thread
	resume func() (*Thread, bool)
	yield  func(*Thread) bool
	stop   func()

	// charging is set while the thread is parked in a charge a yield cut
	// short, a stepper's Charge or a waiting thread's retry, and acct and
	// left are what is left of it. check is set while the thread waits
	// (see Wait), and each retry charges waitN cycles.
	charging bool
	acct     Account
	left     uint64
	check    func() bool
	waitN    uint64
}

// maxChargeStep bounds how far a machine-scheduled thread's clock may
// advance per scheduler interaction: one hardware-timer period (1 us at
// 2.2 GHz), so that a long computation cannot leapfrog the global
// low-water mark and delay the tick-driven sweep.
const maxChargeStep = 2200

// Charge advances the thread clock by n cycles on account a. On
// machine-scheduled threads, long charges are split into timer-period
// steps so the scheduler (and the hardware sweep it drives) observes
// time passing at its real granularity; each step yields once the budget
// reaches the quantum. A stepper stops at the yield that switches, and
// whatever picks it next charges the rest (see Machine.retry).
func (t *Thread) Charge(a Account, n uint64) {
	if t.ChargeHook != nil {
		t.ChargeHook(a, n)
	}
	if t.machine == nil {
		t.Clock += n
		t.Costs.Add(a, n)
		return
	}
	for n > 0 {
		if n = t.advance(a, n); t.yieldBudget >= t.machine.quantum {
			if t.Yield(); t.next != nil {
				t.charging, t.acct, t.left = n > 0, a, n
				return
			}
		}
	}
}

// advance charges a machine-scheduled thread the first timer-period step
// of n cycles on account a, and returns the cycles left.
func (t *Thread) advance(a Account, n uint64) uint64 {
	s := min(n, maxChargeStep)
	t.Clock += s
	t.Costs.Add(a, s)
	t.yieldBudget += s
	return n - s
}

// Yield ends the thread's turn: the thread itself picks the next thread
// to run, and while the pick is a waiting thread it runs that thread's
// retries (see Wait) and takes their pick. When it still holds the
// minimum clock it keeps running. Otherwise a closure body parks until a
// later pick resumes it, and a stepper's Yield returns with Switched set:
// its step must return to Machine.Run before it does anything else. On
// threads that are not machine-scheduled it is a no-op.
func (t *Thread) Yield() {
	m := t.machine
	if m == nil {
		return
	}
	t.yieldBudget = 0
	t.park(m.settle(m.dispatch(m.pick())))
}

// Switched reports that a yield of this stepper picked another thread,
// which runs once the stepper's step returns to Machine.Run.
func (t *Thread) Switched() bool { return t.next != nil }

// park hands the CPU to next unless next is t itself: a stepper leaves
// the pick for Run, and a closure body also yields to Run and returns
// once a later pick resumes it, or unwinds once Run stops its coroutine.
// It is small enough to inline into Yield, the scheduler's hottest call.
func (t *Thread) park(next *Thread) {
	if next != t {
		if t.next = next; t.yield != nil && !t.yield(next) {
			panic(errUnwound)
		}
	}
}

// Wait blocks the thread until check lets it go on. It makes exactly the
// calls of
//
//	for {
//		t.Charge(a, n)
//		t.Yield()
//		if !check() {
//			break
//		}
//	}
//
// but a machine-scheduled thread stays parked while it waits: whichever
// Yield or Run picks it charges, yields and checks on its behalf, on the
// picker's own stack, and picks again. A closure body resumes once check
// reports false. A stepper's Wait returns with Switched set when a retry
// picks another thread; its next step starts once check lets it go on,
// and goes on after the Wait without calling it again. check may thus
// run on any thread's stack or on Run's; it must not charge, yield or
// wait, and it should allocate nothing. Run re-raises a panic in a retry
// as the waiting thread's, whichever stack ran it.
func (t *Thread) Wait(a Account, n uint64, check func() bool) {
	m := t.machine
	if m == nil {
		for {
			t.Charge(a, n)
			if !check() {
				return
			}
		}
	}
	t.check, t.acct, t.waitN = check, a, n
	t.startRetry()
	t.park(m.settle(t))
}

// startRetry begins a waiting thread's charge: its ChargeHook sees all of
// it at once, as in Charge.
func (t *Thread) startRetry() {
	if t.ChargeHook != nil {
		t.ChargeHook(t.acct, t.waitN)
	}
	t.left, t.charging = t.waitN, true
}

// errUnwound is the panic that unwinds a parked thread once another
// thread's panic has ended the run (see Machine.Run).
var errUnwound = errors.New("sim: run ended by another thread's panic")

// Machine is a deterministic cooperative scheduler for simulated threads.
// It always resumes the unfinished thread with the smallest local clock,
// so the interleaving of cross-thread events is a deterministic function
// of the per-thread cycle charges. A thread that yields picks its
// successor and returns it to Run, which resumes it; when a body ends,
// Run picks. A waiting thread stays parked: the yield or Run that picks
// it runs its retries in its stead. Hardware "background" work (the
// circular buffer timer sweep) is driven by hooks invoked as global time
// advances.
type Machine struct {
	Threads []*Thread

	quantum uint64

	// tick is called with the new global low-water-mark time whenever
	// it advances; the TERP hardware uses it to run timer sweeps.
	tick     func(now uint64)
	lastTick uint64

	// SwitchHook, when set, is called with the clock and ID of each
	// thread the scheduler hands the CPU to that did not run last.
	SwitchHook func(ts uint64, thread int)
	lastRun    int

	// retrying is the thread whose retry (see retry) runs now, on
	// whatever stack picked it; a panic in the retry is that thread's.
	retrying *Thread
}

// DefaultQuantum is the yield quantum, in cycles, of every machine the
// simulator runs (the SPEC cells').
const DefaultQuantum = 200

// NewMachine creates a scheduler with the given yield quantum in cycles
// (0 selects DefaultQuantum). A smaller quantum interleaves threads more
// finely at higher simulation cost. The seed is unused: a machine's
// interleaving follows from its threads' cycle charges alone.
func NewMachine(seed int64, quantum uint64) *Machine {
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	return &Machine{quantum: quantum, lastRun: -1}
}

// SetTick installs the global-time hook (at most one).
func (m *Machine) SetTick(f func(now uint64)) { m.tick = f }

// AddThread registers a simulated thread running body, a closure that
// runs as an iter.Pull coroutine from its first step on: its yields park
// it and hand Run the pick. Threads must all be added before Run.
func (m *Machine) AddThread(body func(*Thread)) *Thread {
	t := m.AddStepper(nil)
	t.step = func() {
		t.resume, t.stop = iter.Pull(func(yield func(*Thread) bool) {
			defer func() {
				if r := recover(); r != nil && r != errUnwound {
					t.err = m.threadPanic(t, r)
				}
			}()
			t.yield = yield
			body(t)
		})
		t.resume()
	}
	return t
}

// AddStepper registers a simulated thread that runs as step: Run calls
// step each time the thread runs, and step returns once a yield of the
// thread has switched (see Switched) or once the body has ended.
func (m *Machine) AddStepper(step func()) *Thread {
	t := &Thread{
		ID:      len(m.Threads),
		machine: m,
		step:    step,
	}
	m.Threads = append(m.Threads, t)
	return t
}

// Run executes all registered threads to completion under min-time
// scheduling and returns the final global time (the max of thread clocks).
// Any panic inside a thread body or a retry is re-raised on the caller
// once every other thread has been unwound.
func (m *Machine) Run() uint64 {
	// A panic on Run's stack is the running stepper's, or a retry's.
	// A parked coroutine, once stopped, unwinds out of its Yield or Wait,
	// detached from the machine so that the Yields and Waits it makes
	// while unwinding return at once.
	var running *Thread
	defer func() {
		w := m.retrying
		if w == nil {
			w = running
		}
		for _, t := range m.Threads {
			if t.stop != nil && !t.done {
				t.machine = nil
				t.stop()
			}
		}
		if w != nil {
			panic(m.threadPanic(w, recover()))
		}
	}()
	for next := m.settle(m.dispatch(m.pick())); next != nil; {
		// t runs until it picks the thread to resume next, or until its
		// body ends.
		t := next
		running = t
		if t.resume != nil {
			t.resume()
		} else {
			t.step()
		}
		if next, t.next, running = t.next, nil, nil; next == nil {
			t.done = true
			if t.err != nil {
				panic(t.err)
			}
			next = m.settle(m.dispatch(m.pick()))
		}
	}
	var end uint64
	for _, t := range m.Threads {
		end = max(end, t.Clock)
	}
	return end
}

// threadPanic is the error Run re-raises for a panic with value r on
// thread t's stack, or on the stack of a retry t ran for another thread,
// which the error then names.
func (m *Machine) threadPanic(t *Thread, r any) error {
	if m.retrying != nil {
		t, m.retrying = m.retrying, nil
	}
	return fmt.Errorf("sim thread %d: %v", t.ID, r)
}

// settle returns the thread that runs next, given the thread just
// picked: while the pick is parked in a charge or a wait, it runs that
// thread's retry and takes the thread it picks instead.
func (m *Machine) settle(next *Thread) *Thread {
	for next != nil && (next.charging || next.check != nil) {
		next = m.retry(next)
	}
	return next
}

// retry runs thread t on the caller's stack from where t parked, making
// the calls t would make itself: the rest of a charge that a yield cut
// short, under Charge's rule, and while t waits, the yields and checks
// of the loop Wait replaces, retry after retry. It returns t once t can
// go on, and otherwise the thread that one of t's yields picked, already
// dispatched, with t parked again.
func (m *Machine) retry(t *Thread) *Thread {
	m.retrying = t
	for {
		if !t.charging {
			if !t.check() {
				t.check, m.retrying = nil, nil
				return t
			}
			t.startRetry()
		}
		for t.left > 0 {
			if t.left = t.advance(t.acct, t.left); t.yieldBudget >= m.quantum {
				t.yieldBudget = 0
				if next := m.dispatch(m.pick()); next != t {
					m.retrying = nil
					return next
				}
			}
		}
		if t.charging = false; t.check == nil {
			// A stepper's charge ends with no yield after it.
			m.retrying = nil
			return t
		}
		t.yieldBudget = 0
		if next := m.dispatch(m.pick()); next != t {
			m.retrying = nil
			return next
		}
	}
}

// pick returns the unfinished thread with the minimum clock, ties going
// to the lower ID, or nil once every thread has finished.
func (m *Machine) pick() *Thread {
	var next *Thread
	for _, t := range m.Threads {
		if !t.done && (next == nil || t.Clock < next.Clock) {
			next = t
		}
	}
	return next
}

// dispatch runs the hooks due before next takes the CPU, and returns
// next: the tick when next's clock passed the last tick, then SwitchHook
// when next is not the thread that ran last. next was picked before the
// hooks run and stays picked whatever they charge. A nil next, once every
// thread has finished, runs no hook.
func (m *Machine) dispatch(next *Thread) *Thread {
	if next == nil {
		return nil
	}
	if m.tick != nil && next.Clock > m.lastTick {
		m.lastTick = next.Clock
		m.tick(m.lastTick)
	}
	if m.SwitchHook != nil && next.ID != m.lastRun {
		m.SwitchHook(next.Clock, next.ID)
	}
	m.lastRun = next.ID
	return next
}

// Now returns the minimum clock across unfinished threads — the global
// simulated time up to which all events are final. With a single thread
// it is that thread's clock.
func (m *Machine) Now() uint64 {
	if t := m.pick(); t != nil {
		return t.Clock
	}
	return 0
}

// SingleThread returns a stand-alone thread that is not scheduler-managed,
// for single-threaded simulations where no interleaving is needed.
func SingleThread() *Thread { return &Thread{} }

// DirectCharge advances the thread clock without a scheduler yield. It is
// used by hardware-initiated work (sweep detaches, randomization stalls)
// applied to threads that are parked at the time.
func (t *Thread) DirectCharge(a Account, n uint64) {
	if t.ChargeHook != nil {
		t.ChargeHook(a, n)
	}
	t.Clock += n
	t.Costs.Add(a, n)
}

// ChargeAll charges n cycles on account a to every unfinished thread —
// the global suspension randomization requires (all threads stall while
// TLBs are shot down and the page table updated).
func (m *Machine) ChargeAll(a Account, n uint64) {
	for _, t := range m.Threads {
		if !t.done {
			t.DirectCharge(a, n)
		}
	}
}
