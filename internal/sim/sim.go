// Package sim provides the deterministic timing substrate of the TERP
// reproduction: simulated per-thread clocks, a cooperative scheduler that
// interleaves simulated threads in global time order, a seeded random
// number generator, and cost accounting broken down by overhead component
// (the attach/detach/rand/cond/other breakdown of Figures 9-11).
package sim

import (
	"errors"
	"fmt"
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

	turn chan struct{}
	done bool
	body func(*Thread)
	err  error
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
		step := n
		if step > maxChargeStep {
			step = maxChargeStep
		}
		t.Clock += step
		t.Costs.Add(a, step)
		n -= step
		t.yieldBudget += step
		if t.yieldBudget >= t.machine.quantum {
			t.Yield()
		}
	}
}

// AdvanceTo moves the thread clock forward to at least cycle c, charging
// the waited time to account a. It is used for blocking (Basic semantics)
// and for global stalls (randomization suspends all threads).
func (t *Thread) AdvanceTo(c uint64, a Account) {
	if c > t.Clock {
		t.Charge(a, c-t.Clock)
	}
}

// Yield ends the thread's turn: the thread itself picks the next thread
// to run. When it still holds the minimum clock it keeps running with no
// goroutine switch; otherwise it wakes the next thread and parks until a
// later pick resumes it. On threads that are not machine-scheduled it is
// a no-op.
func (t *Thread) Yield() {
	m := t.machine
	if m == nil {
		return
	}
	t.yieldBudget = 0
	next := m.pick()
	m.dispatch(next)
	if next == t {
		return
	}
	next.turn <- struct{}{}
	if _, ok := <-t.turn; !ok {
		// The run is over: detach from the machine so Yields made by
		// deferred calls while unwinding return at once, then unwind.
		t.machine = nil
		panic(errUnwound)
	}
}

// errUnwound is the panic that unwinds a parked thread once another
// thread's panic has ended the run (see Machine.unwind).
var errUnwound = errors.New("sim: run ended by another thread's panic")

// Machine is a deterministic cooperative scheduler for simulated threads.
// It always resumes the unfinished thread with the smallest local clock,
// so the interleaving of cross-thread events is a deterministic function
// of the per-thread cycle charges. There is no scheduler goroutine: the
// thread that yields or finishes picks its successor and hands it the
// CPU directly, so one thread goroutine runs at a time and the channel
// handoff orders every access to the machine state. Hardware
// "background" work (the circular buffer timer sweep) is driven by hooks
// invoked as global time advances.
type Machine struct {
	Threads []*Thread
	// Rand is the machine-wide deterministic random source.
	Rand *rand.Rand

	quantum uint64
	// end carries the thread that ends the run to Run: the last one to
	// finish, or the first one to panic.
	end chan *Thread

	// tick is called with the new global low-water-mark time whenever
	// it advances; the TERP hardware uses it to run timer sweeps.
	tick     func(now uint64)
	lastTick uint64

	// SwitchHook, when set, observes every context switch: it is called
	// with the resumed thread's clock and ID each time the scheduler
	// hands the CPU to a different thread than last time.
	SwitchHook func(ts uint64, thread int)
	lastRun    int
}

// NewMachine creates a scheduler with the given random seed and yield
// quantum in cycles. A smaller quantum interleaves threads more finely at
// higher simulation cost; the default used by the runtime is 200 cycles.
func NewMachine(seed int64, quantum uint64) *Machine {
	if quantum == 0 {
		quantum = 200
	}
	return &Machine{
		Rand:    rand.New(rand.NewSource(seed)),
		quantum: quantum,
		end:     make(chan *Thread),
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
		turn:    make(chan struct{}),
		body:    body,
	}
	m.Threads = append(m.Threads, t)
	return t
}

// Run executes all registered threads to completion under min-time
// scheduling and returns the final global time (the max of thread clocks).
// Any panic inside a thread body is re-raised on the caller once every
// other thread has been unwound.
func (m *Machine) Run() uint64 {
	if len(m.Threads) == 0 {
		return 0
	}
	for _, t := range m.Threads {
		go m.run(t)
	}
	// All threads start parked on their turn channel; wake the first.
	first := m.pick()
	m.dispatch(first)
	first.turn <- struct{}{}
	if t := <-m.end; t.err != nil {
		m.unwind()
		panic(t.err)
	}
	var end uint64
	for _, t := range m.Threads {
		if t.Clock > end {
			end = t.Clock
		}
	}
	return end
}

// run is thread t's goroutine. A thread whose body returns hands the CPU
// on like a Yield; the last thread to finish, one that panicked and one
// unwound after another's panic report to Run instead.
func (m *Machine) run(t *Thread) {
	handedOff := false
	defer func() {
		if handedOff {
			return
		}
		if r := recover(); r != nil && r != errUnwound {
			t.err = fmt.Errorf("sim thread %d: %v", t.ID, r)
		}
		t.done = true
		m.end <- t
	}()
	if _, ok := <-t.turn; !ok {
		return
	}
	t.body(t)
	t.done = true
	// A nil machine means the body recovered from its own unwinding.
	if next := m.pick(); next != nil && t.machine != nil {
		m.dispatch(next)
		next.turn <- struct{}{}
		handedOff = true
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

// unwind ends the threads still parked after one panicked, one at a
// time, so the re-raised panic leaks no goroutine. Closing a thread's
// turn channel skips a body that never started and panics a parked one
// out of its Yield; unwind waits for each to finish before the next.
func (m *Machine) unwind() {
	for _, t := range m.Threads {
		if !t.done {
			close(t.turn)
			<-m.end
		}
	}
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

// TotalCosts sums the cost accounts of every thread.
func (m *Machine) TotalCosts() Accounts {
	var a Accounts
	for _, t := range m.Threads {
		a.Merge(&t.Costs)
	}
	return a
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
