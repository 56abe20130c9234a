package core

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/expo"
	"repro/internal/merr"
	"repro/internal/mpk"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/semantics"
	"repro/internal/sim"
	"repro/internal/terphw"
)

// Counters are the operation counts the evaluation reports (Tables III
// and IV): conditional attach/detach frequency, the fraction lowered to
// thread permission changes (Silent), and the system call totals.
type Counters struct {
	// CondOps counts executed conditional attach/detach instructions.
	CondOps uint64
	// SilentOps counts conditional ops that avoided a system call.
	SilentOps uint64
	// AttachSyscalls and DetachSyscalls count full system calls.
	AttachSyscalls, DetachSyscalls uint64
	// Randomizations counts space-layout re-randomizations.
	Randomizations uint64
	// Blocks counts the 200-cycle waits of Basic attaches that found
	// their PMO held, the first wait of each included: an attach that
	// waits k times adds k, and one that gives up adds 2^22+1.
	Blocks uint64
	// Faults counts protection faults raised on accesses.
	Faults uint64
}

// SilentPercent returns the share of conditional ops lowered to thread
// permission changes (the "Silent" column).
func (c Counters) SilentPercent() float64 {
	if c.CondOps == 0 {
		return 0
	}
	return 100 * float64(c.SilentOps) / float64(c.CondOps)
}

// Runtime is one protected process: the PMO attach/detach state machine
// for a chosen scheme plus all architectural structures it needs. A
// Runtime is driven by one or more ThreadCtx values; under the cooperative
// simulator only one thread executes at a time, so Runtime needs no locks.
type Runtime struct {
	Cfg params.Config

	mgr     *pmo.Manager
	as      *paging.AddressSpace
	matrix  merr.Matrix
	domains *mpk.Allocator
	cb      *terphw.Buffer
	policy  semantics.Policy
	states  []*semantics.State // indexed by PMO ID
	tracker *expo.Tracker
	l2      *nvm.Cache
	rng     *rand.Rand
	machine *sim.Machine
	threads []*ThreadCtx
	user    pmo.Principal

	// Observability (nil / empty when off; see EnableObs).
	obs         *obs.Recorder
	metrics     *obs.Snapshot
	chargeHists []*obs.Hist

	// Counts accumulates the operation counters.
	Counts Counters
}

// NewRuntime builds a runtime for one run over the PMO manager.
func NewRuntime(cfg params.Config, mgr *pmo.Manager) *Runtime {
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := &Runtime{
		Cfg:     cfg,
		mgr:     mgr,
		as:      paging.NewAddressSpace(rng),
		domains: mpk.NewAllocator(),
		tracker: expo.NewTracker(),
		l2:      nvm.NewCache(params.L2Size, params.L2Ways, params.LineSize),
		rng:     rng,
	}
	switch cfg.Scheme {
	case params.BasicSem:
		r.policy = semantics.Basic{BlockOnConflict: true}
	case params.MM, params.Unprotected:
		// MM uses process-wide non-overlapping attach/detach pairs
		// inserted at EW granularity; plain Basic captures that.
		r.policy = semantics.Basic{}
	default:
		r.policy = semantics.EWConscious{L: cfg.EWTarget}
	}
	if cfg.UsesCircularBuffer() {
		r.cb = terphw.NewBuffer(cfg.EWTarget)
	}
	return r
}

// SetUser sets the principal the process runs as; attach then enforces
// the PMO's namespace mode (owner/other read-write bits). An empty
// principal (the default) runs unchecked, for callers that do not use the
// namespace permission layer.
func (r *Runtime) SetUser(u pmo.Principal) { r.user = u }

// checkMode enforces the namespace permission of Section II at attach
// time: the requested mapping rights must be allowed by the PMO's mode
// for the current principal.
func (r *Runtime) checkMode(p *pmo.PMO, perm paging.Perm) error {
	if r.user == "" {
		return nil
	}
	var want pmo.Mode
	if perm.Allows(paging.PermRead) {
		want |= pmo.ModeRead
	}
	if perm.Allows(paging.PermWrite) {
		want |= pmo.ModeWrite
	}
	if !p.AllowsMode(r.user, want) {
		return fmt.Errorf("%w: attach %q as %q wants %s", pmo.ErrPermission, p.Name, r.user, perm)
	}
	return nil
}

// AttachMachine wires a multi-thread scheduler: the machine's tick hook
// drives the hardware timer sweep.
func (r *Runtime) AttachMachine(m *sim.Machine) {
	r.machine = m
	m.SetTick(func(now uint64) { r.sweep(now, nil) })
	if r.obs != nil {
		r.wireSwitchHook(m)
	}
}

// Manager returns the PMO manager the runtime operates on.
func (r *Runtime) Manager() *pmo.Manager { return r.mgr }

// AddressSpace exposes the process address space; tests read which PMOs
// it maps.
func (r *Runtime) AddressSpace() *paging.AddressSpace { return r.as }

// state returns the semantics state for a PMO, creating it lazily.
func (r *Runtime) state(id uint32) *semantics.State {
	for int(id) >= len(r.states) {
		r.states = append(r.states, nil)
	}
	if r.states[id] == nil {
		r.states[id] = &semantics.State{}
	}
	return r.states[id]
}

// NewThread creates an execution context bound to a simulated thread.
func (r *Runtime) NewThread(t *sim.Thread) *ThreadCtx {
	c := &ThreadCtx{
		rt:  r,
		th:  t,
		tlb: paging.NewTLB(),
		l1:  nvm.NewCache(params.L1DSize, params.L1DWays, params.LineSize),
	}
	r.wireThreadObs(c)
	r.threads = append(r.threads, c)
	return c
}

// ThreadCtx is one simulated thread executing under the runtime: its MPK
// permission registers, private TLB and L1 cache, and its clock.
type ThreadCtx struct {
	rt   *Runtime
	th   *sim.Thread
	regs mpk.Registers
	tlb  *paging.TLB
	l1   *nvm.Cache
	obs  *obs.Track // nil when tracing is off

	// blocked carries a Basic attach that waits for a detach; it is
	// made on the thread's first wait (see decideAttach).
	blocked *blockedAttach
}

// blockedAttach is what a blocked Basic attach carries between retries:
// the PMO's state, the policy's latest answer and the retries so far,
// and check, its retry method bound once per thread. parked is set while
// a stepper's attach waits off its stack (see ErrAttachWaits).
type blockedAttach struct {
	c      *ThreadCtx
	st     *semantics.State
	act    semantics.Action
	err    error
	tries  int
	check  func() bool
	parked bool
}

// Thread returns the underlying simulated thread.
func (c *ThreadCtx) Thread() *sim.Thread { return c.th }

// Runtime returns the owning runtime.
func (c *ThreadCtx) Runtime() *Runtime { return c.rt }

// Compute charges n cycles of ordinary computation. On a single-thread
// runtime it also models the continuously running hardware timer: when
// the computation crosses an exposure-window deadline, the sweep fires at
// the deadline rather than at the end of the computation, so windows are
// closed (or randomized) on time even across long non-PM phases. Under a
// machine scheduler the tick hook provides this instead.
func (c *ThreadCtx) Compute(n uint64) {
	r := c.rt
	if r.machine != nil || r.cb == nil {
		c.th.Charge(sim.Base, n)
		return
	}
	for n > 0 {
		dl, ok := r.cb.NextDeadline()
		if !ok || dl >= c.th.Clock+n {
			break
		}
		if dl > c.th.Clock {
			step := dl - c.th.Clock
			c.th.Charge(sim.Base, step)
			n -= step
		}
		before := dl
		r.sweep(c.th.Clock, c.th)
		if nd, ok := r.cb.NextDeadline(); ok && nd <= before {
			// No progress (e.g. randomization disabled): stop
			// splitting and charge the remainder at once.
			break
		}
	}
	if n > 0 {
		c.th.Charge(sim.Base, n)
	}
}

// Now returns the thread-local time in cycles.
func (c *ThreadCtx) Now() uint64 { return c.th.Clock }

// --- attach / detach -----------------------------------------------------

// realAttach assigns a protection domain where threads get permission,
// maps the PMO (its mapping is its permission matrix row) and opens the
// exposure window. The domain comes first, so running out of them leaves
// nothing mapped. The syscall cost is charged by the caller (schemes
// differ in what they charge).
func (r *Runtime) realAttach(p *pmo.PMO, perm paging.Perm, now uint64) error {
	if r.Cfg.TEWTarget != 0 {
		if _, err := r.domains.Assign(p.ID); err != nil {
			return err
		}
	}
	if _, err := r.as.Attach(p.ID, p.Size, r.mgr.Device(), p.DevOff, perm); err != nil {
		return err
	}
	r.tracker.EWOpen(p.ID, now)
	r.emit(now, -1, p.ID, "attach")
	return nil
}

// realDetach unmaps the PMO, which removes its matrix row, and releases
// its domain. TLB shootdown cost is charged by the caller.
func (r *Runtime) realDetach(p *pmo.PMO, now uint64) error {
	if err := r.as.Detach(p.ID); err != nil {
		return err
	}
	r.domains.Release(p.ID)
	r.tracker.EWClose(p.ID, now)
	r.emit(now, -1, p.ID, "detach")
	for _, tc := range r.threads {
		tc.tlb.Invalidate()
	}
	return nil
}

// randomize moves an attached PMO to a fresh random base, suspending all
// threads for the page-table update and TLB shootdown (Section V-B).
func (r *Runtime) randomize(id uint32, initiator *sim.Thread) {
	if _, err := r.as.Randomize(id); err != nil {
		return
	}
	r.tracker.EWRandomized(id, initiatorClock(initiator, r))
	r.emit(initiatorClock(initiator, r), -1, id, "randomize")
	r.Counts.Randomizations++
	cost := uint64(params.RandomizeCost + params.TLBInvalidate)
	if r.machine != nil {
		r.machine.ChargeAll(sim.Rand, cost)
	} else if initiator != nil {
		initiator.Charge(sim.Rand, cost)
	}
	for _, tc := range r.threads {
		tc.tlb.Invalidate()
		tc.l1.InvalidateAll()
	}
	r.l2.InvalidateAll()
}

func initiatorClock(t *sim.Thread, r *Runtime) uint64 {
	if t != nil {
		return t.Clock
	}
	if r.machine != nil {
		return r.machine.Now()
	}
	return 0
}

// sweep runs the circular-buffer timer sweep at global time now.
// Self-detaches charge the initiating context (hardware-triggered detach
// still consumes a syscall on some core); randomizations stall everyone.
func (r *Runtime) sweep(now uint64, t *sim.Thread) {
	if r.cb == nil {
		return
	}
	for _, act := range r.cb.Sweep(now) {
		p, err := r.mgr.Lookup(act.PMOID)
		if err != nil {
			continue
		}
		if act.Detach {
			if err := r.realDetach(p, now); err == nil {
				// Keep the semantics state in step with the
				// hardware-initiated detach.
				st := r.state(p.ID)
				st.Attached = false
				st.DetachDone = true
				r.emit(now, -1, p.ID, "self-detach")
				r.Counts.DetachSyscalls++
				cost := uint64(params.DetachSyscall + params.TLBInvalidate)
				if t != nil {
					t.Charge(sim.Detach, cost)
				} else if r.machine != nil {
					r.machine.ChargeAll(sim.Detach, cost/uint64(len(r.machine.Threads)))
				}
			}
		} else if r.Cfg.Randomize {
			r.randomize(act.PMOID, t)
		}
	}
}

// step is how an attach or detach instruction executes. decideAttach and
// decideDetach pick it together with the semantics action to commit.
type step int

const (
	// stepSyscall is a system call that maps the PMO, or for a real
	// detach unmaps it.
	stepSyscall step = iota
	// stepSyscallOnly is a system call that changes no mapping (TM's
	// lowered grant or revoke).
	stepSyscallOnly
	// stepLowered is a fast-path thread permission change.
	stepLowered
	// stepNested is the inner pair of a same-thread nest: the fast path,
	// with no grant or revoke.
	stepNested
)

// Attach performs the scheme's attach operation for the calling thread.
// Under MM it is the manually inserted process-wide attach; under the
// TERP schemes it is the compiler-inserted conditional attach (CONDAT).
// decideAttach picks what it does; Attach charges and performs it.
func (c *ThreadCtx) Attach(p *pmo.PMO, perm paging.Perm) error {
	r := c.rt
	if b := c.blocked; b == nil || !b.parked {
		if err := r.checkMode(p, perm); err != nil {
			return err
		}
		if r.Cfg.Scheme == params.Unprotected {
			// Baseline: map once, free of charge, stay mapped.
			if r.as.Attached(p.ID) {
				return nil
			}
			return r.realAttach(p, perm, c.th.Clock)
		}
		if r.Cfg.Scheme != params.MM {
			r.Counts.CondOps++
		}
	}
	st := r.state(p.ID)
	act, how, err := c.decideAttach(p, st)
	if err == ErrAttachWaits {
		return err
	} else if err != nil {
		return fmt.Errorf("%v attach %q: %w", r.Cfg.Scheme, p.Name, err)
	}
	switch how {
	case stepSyscall, stepSyscallOnly:
		c.syscall(sim.Attach, params.AttachSyscall, "attach-sys")
		if how == stepSyscall && !r.as.Attached(p.ID) {
			if err := r.realAttach(p, perm, c.th.Clock); err != nil {
				// No buffer entry outlives the attach it recorded.
				if r.cb != nil {
					r.cb.Drop(p.ID)
				}
				return err
			}
		}
		r.Counts.AttachSyscalls++
	default:
		c.th.DirectCharge(sim.Cond, params.SilentCondCost)
		r.Counts.SilentOps++
	}
	semantics.CommitAttach(st, c.th.ID, c.th.Clock, act)
	if how == stepNested {
		r.emit(c.th.Clock, c.th.ID, p.ID, "silent")
	} else {
		c.grantThread(p, perm)
	}
	c.th.Yield()
	return nil
}

// ErrAttachWaits is what Attach returns on a stepper (see
// sim.Machine.AddStepper) whose Basic attach waits for a detach, once a
// retry has switched to another thread. The caller returns to the
// scheduler; when the thread next steps, the wait is over, and the caller
// calls Attach again with the same arguments. That call goes on from the
// policy's last answer, and counts and charges nothing twice.
var ErrAttachWaits = errors.New("core: attach waits for a detach")

// decideAttach returns the semantics action an attach commits and the
// step that executes it. The policy decides first. A Basic-ablation
// conflict waits for the holder to detach: the thread charges Other 200
// cycles, yields and asks again, and gives up after 2^22 retries. Under
// TT the buffer case (Figure 7b) then picks the step: Case 1 and overflow
// make the system call, Cases 2 and 3 take the fast path.
func (c *ThreadCtx) decideAttach(p *pmo.PMO, st *semantics.State) (semantics.Action, step, error) {
	r := c.rt
	var act semantics.Action
	var err error
	if b := c.blocked; b != nil && b.parked {
		b.parked = false
		act, err = b.act, b.err
	} else if act, err = r.policy.Attach(st, c.th.ID, c.th.Clock); act == semantics.ActBlock {
		if b == nil {
			b = &blockedAttach{c: c}
			b.check = b.retry
			c.blocked = b
		}
		b.st, b.tries = st, 0
		r.Counts.Blocks++
		c.th.Wait(sim.Other, 200, b.check)
		if b.parked = c.th.Switched(); b.parked {
			return act, 0, ErrAttachWaits
		}
		act, err = b.act, b.err
	}
	if act == semantics.ActBlock {
		return act, 0, errors.New("deadlocked waiting for detach")
	}
	switch {
	case err != nil:
		return act, 0, err
	case act == semantics.ActSilent:
		return act, stepNested, nil
	case r.cb != nil:
		if r.machine == nil {
			// Single-thread runs have no machine tick: close expired
			// windows before the new op.
			r.sweep(c.th.Clock, c.th)
		}
		switch r.cb.CondAttach(p.ID, c.th.Clock) {
		case terphw.CaseSubsequentAttach, terphw.CaseSilentAttach:
			return act, stepLowered, nil
		}
		return act, stepSyscall, nil
	case act == semantics.ActRealAttach:
		return act, stepSyscall, nil
	case r.Cfg.CondIsSyscall():
		return act, stepSyscallOnly, nil
	}
	return act, stepLowered, nil
}

// retry asks the policy again for a blocked attach after a wait. It
// reports whether the attach still waits: it is still blocked and has
// not yet retried 2^22 times. A machine may run it on another thread's
// stack, so it charges nothing.
func (b *blockedAttach) retry() bool {
	c := b.c
	b.act, b.err = c.rt.policy.Attach(b.st, c.th.ID, c.th.Clock)
	if b.act != semantics.ActBlock {
		return false
	}
	if b.tries++; b.tries > 1<<22 {
		return false
	}
	c.rt.Counts.Blocks++
	return true
}

// Detach performs the scheme's detach operation for the calling thread
// (Figure 7c under TT). decideDetach picks what it does; Detach charges
// and performs it.
func (c *ThreadCtx) Detach(p *pmo.PMO) error {
	r := c.rt
	if r.Cfg.Scheme == params.Unprotected {
		return nil
	}
	if r.Cfg.Scheme != params.MM {
		r.Counts.CondOps++
	}
	// The thread's window ends when the CONDDT begins executing; the
	// instruction's own cost is not exposure time.
	tewEnd := c.th.Clock
	st := r.state(p.ID)
	act, how, err := c.decideDetach(p, st)
	if err != nil {
		return fmt.Errorf("%v detach %q: %w", r.Cfg.Scheme, p.Name, err)
	}
	switch how {
	case stepSyscall:
		c.syscall(sim.Detach, params.DetachSyscall+params.TLBInvalidate, "detach-sys")
		if act == semantics.ActRealDetach && r.as.Attached(p.ID) {
			if err := r.realDetach(p, c.th.Clock); err != nil {
				return err
			}
		}
		r.Counts.DetachSyscalls++
	case stepSyscallOnly:
		c.syscall(sim.Detach, params.DetachSyscall, "detach-sys")
		r.Counts.DetachSyscalls++
	default:
		c.th.DirectCharge(sim.Cond, params.SilentCondCost)
		r.Counts.SilentOps++
	}
	semantics.CommitDetach(st, c.th.ID, c.th.Clock, act)
	if how != stepNested {
		c.revokeThread(p, tewEnd)
	}
	c.th.Yield()
	return nil
}

// decideDetach returns the semantics action a detach commits and the step
// that executes it. Under TT the buffer case (Figure 7c) overrides the
// policy's action: Case 5 detaches for real, Cases 4 and 6 revoke on the
// fast path, and an overflow makes the system call, detaching for real
// only a mapped PMO that no other thread holds.
func (c *ThreadCtx) decideDetach(p *pmo.PMO, st *semantics.State) (semantics.Action, step, error) {
	r := c.rt
	act, err := r.policy.Detach(st, c.th.ID, c.th.Clock)
	switch {
	case err != nil:
		return act, 0, err
	case act == semantics.ActSilent:
		return act, stepNested, nil
	case r.cb != nil:
		if r.machine == nil {
			r.sweep(c.th.Clock, c.th)
		}
		switch r.cb.CondDetach(p.ID, c.th.Clock) {
		case terphw.CaseFullDetach:
			return semantics.ActRealDetach, stepSyscall, nil
		case terphw.CaseOverflow:
			if r.as.Attached(p.ID) && !st.OtherHolders(c.th.ID) {
				return semantics.ActRealDetach, stepSyscall, nil
			}
			return semantics.ActThreadRevoke, stepSyscall, nil
		}
		return semantics.ActThreadRevoke, stepLowered, nil
	case act == semantics.ActRealDetach:
		return act, stepSyscall, nil
	case r.Cfg.CondIsSyscall():
		return act, stepSyscallOnly, nil
	case !st.OtherHolders(c.th.ID):
		// +Cond has no window combining: a last-holder detach is
		// performed for real even before L.
		return semantics.ActRealDetach, stepSyscall, nil
	}
	return act, stepLowered, nil
}

// grantThread opens the calling thread's TEW on the PMO and widens the
// process-wide matrix row if this grant requests rights the original
// attach did not.
func (c *ThreadCtx) grantThread(p *pmo.PMO, perm paging.Perm) {
	if c.rt.Cfg.TEWTarget == 0 {
		return
	}
	if m, ok := c.rt.as.Mapping(p.ID); ok {
		m.Perm |= perm
	}
	if d, ok := c.rt.domains.DomainOf(p.ID); ok {
		_ = c.regs.Grant(d, perm)
		c.rt.tracker.TEWOpen(c.th.ID, p.ID, c.th.Clock)
		c.rt.emit(c.th.Clock, c.th.ID, p.ID, "grant")
	}
}

// revokeThread closes the calling thread's TEW on the PMO as of time at.
func (c *ThreadCtx) revokeThread(p *pmo.PMO, at uint64) {
	if c.rt.Cfg.TEWTarget == 0 {
		return
	}
	if d, ok := c.rt.domains.DomainOf(p.ID); ok {
		_ = c.regs.Revoke(d)
	}
	c.rt.tracker.TEWClose(c.th.ID, p.ID, at)
	c.rt.emit(at, c.th.ID, p.ID, "revoke")
}

// --- loads and stores ----------------------------------------------------

// access runs the full protection and timing path for one PMO access:
// the PMO by pool ID, its mapping (the permission matrix row) and its
// domain are slice lookups, and the TLB, matrix and thread-permission
// checks and the cache walk are charged on every access.
func (c *ThreadCtx) access(o pmo.OID, want paging.Perm, n int) (*pmo.PMO, error) {
	r := c.rt
	p, err := r.mgr.Lookup(o.Pool())
	if err != nil {
		return nil, err
	}
	m, ok := r.as.Mapping(p.ID)
	if !ok || o.Offset() >= p.Size {
		r.Counts.Faults++
		r.emit(c.th.Clock, c.th.ID, p.ID, "FAULT")
		return nil, &Fault{Kind: SegFault, OID: o, Want: want, Thread: c.th.ID}
	}
	va := m.Base + o.Offset()

	// The access is atomic with respect to the cooperative scheduler
	// (DirectCharge, with one yield at the end): a randomization cannot
	// move the mapping between translation and the permission checks,
	// matching hardware where all threads are suspended during a remap.
	defer c.th.Yield()

	// Address translation.
	c.th.DirectCharge(sim.Base, c.tlb.Lookup(va))

	if r.Cfg.Scheme != params.Unprotected {
		// Permission matrix check (1 cycle, after TLB).
		c.th.DirectCharge(sim.Other, params.PermMatrixCheck)
		if !r.matrix.CheckAt(m, want, c.th.Clock) {
			r.Counts.Faults++
			r.emit(c.th.Clock, c.th.ID, p.ID, "FAULT")
			return nil, &Fault{Kind: PermFault, OID: o, Want: want, Thread: c.th.ID}
		}
		// Thread permission check (TEW schemes only).
		if r.Cfg.TEWTarget != 0 {
			if d, ok := r.domains.DomainOf(p.ID); !ok || !c.regs.Allows(d, want) {
				r.Counts.Faults++
				r.emit(c.th.Clock, c.th.ID, p.ID, "FAULT")
				return nil, &Fault{Kind: ThreadPermFault, OID: o, Want: want, Thread: c.th.ID}
			}
		}
	}

	// Cache hierarchy and memory latency.
	lines := (int(va)%params.LineSize + n + params.LineSize - 1) / params.LineSize
	for i := 0; i < lines; i++ {
		la := va + uint64(i*params.LineSize)
		switch {
		case c.l1.Access(la):
			c.th.DirectCharge(sim.Base, params.L1Latency)
		case r.l2.Access(la):
			c.th.DirectCharge(sim.Base, params.L1Latency+params.L2Latency)
		default:
			c.th.DirectCharge(sim.Base, params.L1Latency+params.L2Latency+latency(m.Dev))
		}
	}
	return p, nil
}

func latency(d *nvm.Device) uint64 {
	if d.Kind() == nvm.NVM {
		return params.NVMLatency
	}
	return params.DRAMLatency
}

// LoadVA performs a load at an absolute virtual address — the attacker's
// view of memory in the security case studies. It turns the address into
// the object mapped there and loads that through Load, so a stale address
// learned before a randomization faults (or reads the wrong object)
// exactly as on the simulated hardware.
func (c *ThreadCtx) LoadVA(va uint64) (uint64, error) {
	o, err := c.oidAt(va, paging.PermRead)
	if err != nil {
		return 0, err
	}
	return c.Load(o)
}

// StoreVA performs a store at an absolute virtual address (see LoadVA).
func (c *ThreadCtx) StoreVA(va uint64, v uint64) error {
	o, err := c.oidAt(va, paging.PermWrite)
	if err != nil {
		return err
	}
	return c.Store(o, v)
}

// oidAt returns the object at an absolute address. An unmapped address is
// a segmentation fault.
func (c *ThreadCtx) oidAt(va uint64, want paging.Perm) (pmo.OID, error) {
	m, err := c.rt.as.Lookup(va)
	if err != nil {
		c.rt.Counts.Faults++
		return 0, &Fault{Kind: SegFault, Want: want, Thread: c.th.ID}
	}
	return pmo.MakeOID(m.PMOID, va-m.Base), nil
}

// Access runs the protection and timing path of an 8-byte load (want
// PermRead) or store (PermWrite) at o, its closing yield included, but
// neither reads nor writes the word. A stepper whose yield switched
// accesses the word when it next steps, after the threads that ran in
// between, as Load and Store do on a closure body.
func (c *ThreadCtx) Access(o pmo.OID, want paging.Perm) error {
	_, err := c.access(o, want, 8)
	return err
}

// Load reads an 8-byte word from the PMO object.
func (c *ThreadCtx) Load(o pmo.OID) (uint64, error) {
	p, err := c.access(o, paging.PermRead, 8)
	if err != nil {
		return 0, err
	}
	return p.Read8(o.Offset())
}

// Store writes an 8-byte word to the PMO object.
func (c *ThreadCtx) Store(o pmo.OID, v uint64) error {
	p, err := c.access(o, paging.PermWrite, 8)
	if err != nil {
		return err
	}
	return p.Write8(o.Offset(), v)
}

// LoadBytes reads n bytes starting at the object into b.
func (c *ThreadCtx) LoadBytes(o pmo.OID, b []byte) error {
	p, err := c.access(o, paging.PermRead, len(b))
	if err != nil {
		return err
	}
	return p.ReadAt(b, o.Offset())
}

// StoreBytes writes b starting at the object.
func (c *ThreadCtx) StoreBytes(o pmo.OID, b []byte) error {
	p, err := c.access(o, paging.PermWrite, len(b))
	if err != nil {
		return err
	}
	return p.WriteAt(b, o.Offset())
}

// DRAMAccess models one volatile memory access of an 8-byte word at an
// 8-aligned synthetic address (stack/heap work outside PMOs), charged
// through the caches. The word lies in one cache line, so the access is
// one charge, which may yield at its end.
func (c *ThreadCtx) DRAMAccess(addr uint64) {
	// Tag DRAM addresses into a disjoint region of the line space.
	const dramBias = uint64(1) << 62
	la := dramBias | addr
	switch {
	case c.l1.Access(la):
		c.th.Charge(sim.Base, params.L1Latency)
	case c.rt.l2.Access(la):
		c.th.Charge(sim.Base, params.L1Latency+params.L2Latency)
	default:
		c.th.Charge(sim.Base, params.L1Latency+params.L2Latency+params.DRAMLatency)
	}
}

// --- run results ----------------------------------------------------------

// Result is the outcome of one simulated run.
type Result struct {
	// Scheme is the protection configuration that ran.
	Scheme params.Scheme
	// Cycles is the end-of-run time (max over threads).
	Cycles uint64
	// Costs is the per-component cycle breakdown summed over threads.
	Costs sim.Accounts
	// Exposure is the EW/TEW summary.
	Exposure expo.Stats
	// Counts are the operation counters.
	Counts Counters
	// Obs is the run's observability payload, with no cell name yet
	// (nil when EnableObs turned nothing on).
	Obs *obs.CellObs `json:"-"`
}

// CondFreqPerSec returns conditional ops per second of simulated time.
func (res Result) CondFreqPerSec() float64 {
	if res.Cycles == 0 {
		return 0
	}
	secs := float64(res.Cycles) / (params.CyclesPerMicro * 1e6)
	return float64(res.Counts.CondOps) / secs
}

// Finish closes open windows at end time and assembles the result:
// Cycles is end, Costs sums every thread's accounts, and Obs carries
// what EnableObs collected, window closes included. Calling it again
// returns an equal result.
func (r *Runtime) Finish(end uint64) Result {
	r.tracker.Finish(end)
	var costs sim.Accounts
	for _, tc := range r.threads {
		costs.Merge(&tc.th.Costs)
	}
	res := Result{
		Scheme:   r.Cfg.Scheme,
		Cycles:   end,
		Costs:    costs,
		Exposure: r.tracker.Collect(end),
		Counts:   r.Counts,
	}
	if r.obs != nil || r.metrics != nil {
		res.Obs = obs.NewCellObs("", r.obsSnapshot(), r.obs)
	}
	return res
}

// MappingBase returns the current virtual base of an attached PMO — the
// information a memory-disclosure primitive leaks to the attacker.
func (r *Runtime) MappingBase(pmoID uint32) (uint64, bool) {
	m, ok := r.as.Mapping(pmoID)
	if !ok {
		return 0, false
	}
	return m.Base, true
}

// Sweep runs the hardware timer sweep at the thread's current time. The
// runtime runs sweeps automatically inside conditional operations and via
// the machine tick; callers with long quiet phases (the security case
// studies) invoke it explicitly to model the always-on hardware timer.
func (r *Runtime) Sweep(c *ThreadCtx) { r.sweep(c.th.Clock, c.th) }
