//go:build go1.23

// Package sim provides the deterministic timing substrate of the TERP
// reproduction: simulated per-thread clocks, a cooperative scheduler that
// interleaves simulated threads in global time order, a seeded random
// number generator, and cost accounting broken down by overhead component
// (the attach/detach/rand/cond/other breakdown of Figures 9-11).
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
)

// Account names one overhead component in the execution-time breakdown.
type Account int

// The overhead components of Figures 9, 10 and 11, plus Base, which is the
// time the unprotected workload itself consumes.
const (
	// Base is workload execution time that is not protection overhead.
	Base Account = iota
	// Attach is time spent in full attach() system calls.
	Attach
	// Detach is time spent in full detach() system calls.
	Detach
	// Rand is time spent in PMO space layout randomization (including
	// the TLB invalidations it triggers).
	Rand
	// Cond is time spent executing conditional attach/detach
	// instructions that were lowered to thread permission changes.
	Cond
	// Other is remaining protection overhead: permission matrix checks,
	// extra TLB costs, blocking on Basic-semantics contention.
	Other
	numAccounts
)

// String returns the label used in the paper's figures.
func (a Account) String() string {
	switch a {
	case Base:
		return "base"
	case Attach:
		return "attach"
	case Detach:
		return "detach"
	case Rand:
		return "rand"
	case Cond:
		return "cond"
	case Other:
		return "other"
	default:
		return fmt.Sprintf("account(%d)", int(a))
	}
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
func (t *Accounts) Overhead() float64 {
	if t[Base] == 0 {
		if t.Total() == 0 {
			return 0
		}
		return math.NaN()
	}
	return float64(t.Total()-t[Base]) / float64(t[Base])
}

// Fraction returns account a's share of Base time (the per-component
// overhead bars of Figures 9-11 are stacked fractions of base time).
// Like Overhead, it returns NaN when Base is zero but account a is not,
// and 0 only when both are zero.
func (t *Accounts) Fraction(a Account) float64 {
	if t[Base] == 0 {
		if t[a] == 0 {
			return 0
		}
		return math.NaN()
	}
	return float64(t[a]) / float64(t[Base])
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
	// yieldBudget counts cycles charged since the last scheduler yield;
	// the scheduler forces a yield every yieldQuantum cycles so that
	// thread interleavings track global time.
	yieldBudget uint64

	done bool
	body func(*Thread)
	err  error
	// resume and stop drive the thread's coroutine from Machine.Run;
	// yield, called inside it, hands Run the thread to resume next.
	resume func() (*Thread, bool)
	stop   func()
	yield  func(*Thread) bool

	// check is set while the thread waits (see Wait); each retry
	// charges waitN cycles on waitAcct. waitLeft is what is left of the
	// retry's charge, and charging reports that the thread parked in
	// the charge rather than in the yield after it.
	check    func() bool
	waitAcct Account
	waitN    uint64
	waitLeft uint64
	charging bool
}

// maxChargeStep bounds how far a machine-scheduled thread's clock may
// advance per scheduler interaction: one hardware-timer period (1 us at
// 2.2 GHz). Without this cap, a single long computation would leapfrog
// the global low-water mark by milliseconds and the tick-driven sweep
// could not close exposure windows on time.
const maxChargeStep = 2200

// Charge advances the thread clock by n cycles on account a. On
// machine-scheduled threads, long charges are split into timer-period
// steps so the scheduler (and the hardware sweep it drives) observes
// time passing at its real granularity.
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
		if n = t.step(a, n); t.yieldBudget >= t.machine.quantum {
			t.Yield()
		}
	}
}

// step charges a machine-scheduled thread the first timer-period step of
// n cycles on account a, and returns the cycles left.
func (t *Thread) step(a Account, n uint64) uint64 {
	s := min(n, maxChargeStep)
	t.Clock += s
	t.Costs.Add(a, s)
	t.yieldBudget += s
	return n - s
}

// Yield ends the thread's turn: the thread itself picks the next thread
// to run, and while the pick is a waiting thread it runs that thread's
// retries (see Wait) and takes their pick. When it still holds the
// minimum clock it keeps running with no switch; otherwise its coroutine
// yields the pick to Machine.Run, which resumes that thread, and this one
// stays parked until a later pick. On threads that are not
// machine-scheduled it is a no-op.
func (t *Thread) Yield() {
	m := t.machine
	if m == nil {
		return
	}
	t.yieldBudget = 0
	// Not m.next(): here pick never returns nil, and the inlined pick
	// keeps the hottest call in the scheduler one call shorter.
	next := m.pick()
	m.dispatch(next)
	t.park(m.settle(next))
}

// park hands the CPU to next unless next is t itself, and returns once a
// later pick resumes t.
func (t *Thread) park(next *Thread) {
	if next != t && !t.yield(next) {
		// Run stopped this coroutine after another thread's panic:
		// detach from the machine so Yields made by deferred calls
		// while unwinding return at once (and Waits never park), then
		// unwind.
		t.machine = nil
		panic(errUnwound)
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
// but on a machine-scheduled thread the coroutine stays parked while it
// waits: whichever Yield or Run picks the thread charges, yields and
// checks on its behalf, on the picker's own stack, and picks again, so a
// retry switches no coroutine. The coroutine resumes once check reports false.
// check may thus run on any thread's stack or on Run's; it must not
// charge, yield or wait, and it should allocate nothing. Run re-raises a
// panic in a retry as the waiting thread's, whichever stack ran it.
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
	t.check, t.waitAcct, t.waitN = check, a, n
	t.startRetry()
	t.park(m.settle(t))
}

// startRetry begins a waiting thread's charge: its ChargeHook sees all of
// it at once, as in Charge.
func (t *Thread) startRetry() {
	if t.ChargeHook != nil {
		t.ChargeHook(t.waitAcct, t.waitN)
	}
	t.waitLeft, t.charging = t.waitN, true
}

// errUnwound is the panic that unwinds a parked thread once another
// thread's panic has ended the run (see Machine.Run).
var errUnwound = errors.New("sim: run ended by another thread's panic")

// Machine is a deterministic cooperative scheduler for simulated threads.
// It always resumes the unfinished thread with the smallest local clock,
// so the interleaving of cross-thread events is a deterministic function
// of the per-thread cycle charges. Each thread runs as an iter.Pull
// coroutine that Run resumes: a thread that yields picks its successor
// and hands the pick back to Run, and when a body returns Run picks the
// next thread itself. A waiting thread's coroutine stays parked: the
// yield or Run that picks it runs its retries in its stead. Only one
// coroutine or Run runs at a time, and the coroutine switches order
// every access to the machine state. Hardware
// "background" work (the circular buffer timer sweep) is driven by hooks
// invoked as global time advances.
type Machine struct {
	Threads []*Thread
	// Rand is the machine-wide deterministic random source.
	Rand *rand.Rand

	quantum uint64

	// tick is called with the new global low-water-mark time whenever
	// it advances; the TERP hardware uses it to run timer sweeps.
	tick     func(now uint64)
	lastTick uint64

	// SwitchHook, when set, observes every context switch: it is called
	// with the resumed thread's clock and ID each time the scheduler
	// hands the CPU to a different thread than last time.
	SwitchHook func(ts uint64, thread int)
	lastRun    int

	// retrying is the waiting thread whose retry runs now, on whatever
	// stack picked it; a panic in the retry is that thread's.
	retrying *Thread
}

// DefaultQuantum is the yield quantum, in cycles, of every machine the
// simulator runs: SPEC cells and terp.System.Parallel sections.
const DefaultQuantum = 200

// NewMachine creates a scheduler with the given random seed and yield
// quantum in cycles (0 selects DefaultQuantum). A smaller quantum
// interleaves threads more finely at higher simulation cost.
func NewMachine(seed int64, quantum uint64) *Machine {
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	return &Machine{
		Rand:    rand.New(rand.NewSource(seed)),
		quantum: quantum,
		lastRun: -1,
	}
}

// SetTick installs the global-time hook (at most one).
func (m *Machine) SetTick(f func(now uint64)) { m.tick = f }

// AddThread registers a simulated thread running body. Threads must all be
// added before Run is called.
func (m *Machine) AddThread(body func(*Thread)) *Thread {
	t := &Thread{
		ID:      len(m.Threads),
		machine: m,
		body:    body,
	}
	m.Threads = append(m.Threads, t)
	return t
}

// Run executes all registered threads to completion under min-time
// scheduling and returns the final global time (the max of thread clocks).
// Any panic inside a thread body or a retry is re-raised on the caller
// once every other thread has been unwound.
func (m *Machine) Run() uint64 {
	if len(m.Threads) == 0 {
		return 0
	}
	for _, t := range m.Threads {
		t.resume, t.stop = iter.Pull(func(yield func(*Thread) bool) {
			defer func() {
				if r := recover(); r != nil && r != errUnwound {
					t.err = m.threadPanic(t, r)
				}
				t.done = true
			}()
			t.yield = yield
			t.body(t)
		})
	}
	// Stopping a finished thread does nothing, one that never started
	// never runs its body, and a parked one unwinds out of its Yield or
	// Wait. A retry that panics on Run's own stack is re-raised like a
	// body's panic.
	defer func() {
		w := m.retrying
		for _, t := range m.Threads {
			t.stop()
		}
		if w != nil {
			panic(m.threadPanic(w, recover()))
		}
	}()
	next := m.settle(m.next())
	for next != nil {
		// t runs until it yields the thread to resume next, or until
		// its body ends and resume returns nil.
		t := next
		if next, _ = t.resume(); next != nil {
			continue
		}
		if t.err != nil {
			panic(t.err)
		}
		next = m.settle(m.next())
	}
	var end uint64
	for _, t := range m.Threads {
		if t.Clock > end {
			end = t.Clock
		}
	}
	return end
}

// threadPanic is the error Run re-raises for a panic with value r on
// thread t's stack. When the panic came from a retry that t ran for a
// waiting thread, the error names the waiting thread, as it would had
// its own coroutine run the retry.
func (m *Machine) threadPanic(t *Thread, r any) error {
	if m.retrying != nil {
		t, m.retrying = m.retrying, nil
	}
	return fmt.Errorf("sim thread %d: %v", t.ID, r)
}

// next picks and dispatches the thread to run next, or returns nil once
// every thread has finished.
func (m *Machine) next() *Thread {
	next := m.pick()
	if next != nil {
		m.dispatch(next)
	}
	return next
}

// settle returns the thread whose coroutine runs next, given the thread
// just picked: while the pick is a waiting thread, it runs that thread's
// retries and takes the thread they pick instead.
func (m *Machine) settle(next *Thread) *Thread {
	for next != nil && next.check != nil {
		next = m.retry(next)
	}
	return next
}

// retry runs waiting thread t on the caller's stack from where t
// parked, making the calls t's own coroutine would make in Wait: the
// rest of its charge, its yields and its next check, retry after retry.
// It returns t once check lets t go on, and otherwise the thread that one
// of t's yields picked, already dispatched, with t parked again.
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
		for t.waitLeft > 0 {
			if t.waitLeft = t.step(t.waitAcct, t.waitLeft); t.yieldBudget >= m.quantum {
				t.yieldBudget = 0
				if next := m.next(); next != t {
					m.retrying = nil
					return next
				}
			}
		}
		t.charging = false
		t.yieldBudget = 0
		if next := m.next(); next != t {
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

// dispatch runs the hooks due before next takes the CPU: the tick when
// next's clock passed the last tick, then SwitchHook when next is not the
// thread that ran last. next was picked before the hooks run and stays
// picked whatever they charge.
func (m *Machine) dispatch(next *Thread) {
	if m.tick != nil && next.Clock > m.lastTick {
		m.lastTick = next.Clock
		m.tick(m.lastTick)
	}
	if m.SwitchHook != nil && next.ID != m.lastRun {
		m.SwitchHook(next.Clock, next.ID)
	}
	m.lastRun = next.ID
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
