package core

import (
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
	// Blocks counts Basic-semantics blocking waits.
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

	// fastPath enables the per-thread last-translation cache. Only tests
	// clear it, to run the uncached access path the cache is checked
	// against (both charge identical cycles and produce identical
	// counters and events).
	fastPath bool

	mgr     *pmo.Manager
	as      *paging.AddressSpace
	matrix  *merr.Matrix
	domains *mpk.Allocator
	cb      *terphw.Buffer
	policy  semantics.Policy
	states  map[uint32]*semantics.State
	tracker *expo.Tracker
	l2      *nvm.Cache
	rng     *rand.Rand
	machine *sim.Machine
	threads []*ThreadCtx
	user    pmo.Principal

	// Observability (nil / empty when off; see EnableObs).
	obs         *obs.Recorder
	obsCfg      obs.Config
	metrics     *obs.Snapshot
	chargeHists []*obs.Hist

	// Counts accumulates the operation counters.
	Counts Counters
}

// NewRuntime builds a runtime for one run over the PMO manager.
func NewRuntime(cfg params.Config, mgr *pmo.Manager) *Runtime {
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := &Runtime{
		Cfg:      cfg,
		fastPath: true,
		mgr:      mgr,
		as:       paging.NewAddressSpace(rng),
		matrix:   merr.NewMatrix(),
		domains:  mpk.NewAllocator(),
		states:   make(map[uint32]*semantics.State),
		tracker:  expo.NewTracker(),
		l2:       nvm.NewCache(params.L2Size, params.L2Ways, params.LineSize),
		rng:      rng,
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

// User returns the current principal.
func (r *Runtime) User() pmo.Principal { return r.user }

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

// DetachMachine returns the runtime to single-thread mode once the
// attached machine's run is over: thread contexts sweep the timer
// themselves again.
func (r *Runtime) DetachMachine() { r.machine = nil }

// Manager returns the PMO manager the runtime operates on.
func (r *Runtime) Manager() *pmo.Manager { return r.mgr }

// AddressSpace exposes the process address space (attack simulations probe
// it directly).
func (r *Runtime) AddressSpace() *paging.AddressSpace { return r.as }

// Tracker exposes the exposure tracker.
func (r *Runtime) Tracker() *expo.Tracker { return r.tracker }

// state returns the semantics state for a PMO, creating it lazily.
func (r *Runtime) state(id uint32) *semantics.State {
	s := r.states[id]
	if s == nil {
		s = semantics.NewState()
		r.states[id] = s
	}
	return s
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
	rt    *Runtime
	th    *sim.Thread
	regs  mpk.Registers
	tlb   *paging.TLB
	l1    *nvm.Cache
	obs   *obs.Track // nil when tracing is off
	trans transCache
}

// transCache is the per-thread last-translation cache: the resolved state
// of the most recent access, valid only while the address-space epoch is
// unchanged (every attach, detach and randomization bumps it — and every
// matrix or domain mutation co-occurs with one of those). The cached
// permission state is re-verified on every hit (merr.CheckFast for the
// process matrix, mpk.Registers.Allows for the thread domain), so a hit
// only skips the map lookups and the matrix search, never a check, a
// cycle charge, a counter or an event.
type transCache struct {
	valid bool
	epoch uint64
	pool  uint32
	p     *pmo.PMO
	m     *paging.Mapping
	e     *merr.MatrixEntry
	d     mpk.Domain
	dok   bool
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

// realAttach maps the PMO, installs the permission matrix entry, assigns a
// protection domain and opens the exposure window. The syscall cost is
// charged by the caller (schemes differ in what they charge).
func (r *Runtime) realAttach(p *pmo.PMO, perm paging.Perm, now uint64) error {
	_, err := r.as.Attach(p.ID, p.Size, r.mgr.Device(), p.DevOff, perm)
	if err != nil {
		return err
	}
	m, _ := r.as.Mapping(p.ID)
	r.matrix.Add(p.ID, m.Base, m.Size, perm)
	if _, err := r.domains.Assign(p.ID); err != nil {
		return err
	}
	r.tracker.EWOpen(p.ID, now)
	r.emit(now, -1, p.ID, TraceRealAttach)
	return nil
}

// realDetach unmaps the PMO and tears down its entries. TLB shootdown
// cost is charged by the caller.
func (r *Runtime) realDetach(p *pmo.PMO, now uint64) error {
	if err := r.as.Detach(p.ID); err != nil {
		return err
	}
	_ = r.matrix.Remove(p.ID)
	r.domains.Release(p.ID)
	r.tracker.EWClose(p.ID, now)
	r.emit(now, -1, p.ID, TraceRealDetach)
	for _, tc := range r.threads {
		tc.tlb.Invalidate()
	}
	return nil
}

// randomize moves an attached PMO to a fresh random base, suspending all
// threads for the page-table update and TLB shootdown (Section V-B).
func (r *Runtime) randomize(id uint32, initiator *sim.Thread) {
	m, err := r.as.Randomize(id)
	if err != nil {
		return
	}
	_ = r.matrix.Relocate(id, m.Base)
	r.tracker.EWRandomized(id, initiatorClock(initiator, r))
	r.emit(initiatorClock(initiator, r), -1, id, TraceRandomize)
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
				r.emit(now, -1, p.ID, TraceSelfDetach)
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

// Attach performs the scheme's attach operation for the calling thread.
// Under MM it is the manually inserted process-wide attach; under the
// TERP schemes it is the compiler-inserted conditional attach (CONDAT).
func (c *ThreadCtx) Attach(p *pmo.PMO, perm paging.Perm) error {
	r := c.rt
	if err := r.checkMode(p, perm); err != nil {
		return err
	}
	switch r.Cfg.Scheme {
	case params.Unprotected:
		// Baseline: map once, free of charge, stay mapped.
		if !r.as.Attached(p.ID) {
			if err := r.realAttach(p, perm, c.th.Clock); err != nil {
				return err
			}
		}
		return nil
	case params.MM:
		return c.attachMM(p, perm)
	default:
		return c.condAttach(p, perm)
	}
}

// Detach performs the scheme's detach operation for the calling thread.
func (c *ThreadCtx) Detach(p *pmo.PMO) error {
	r := c.rt
	switch r.Cfg.Scheme {
	case params.Unprotected:
		return nil
	case params.MM:
		return c.detachMM(p)
	default:
		return c.condDetach(p)
	}
}

// attachMM is MERR's attach: a full system call that maps the PMO at a
// randomized base, under process-wide Basic semantics.
func (c *ThreadCtx) attachMM(p *pmo.PMO, perm paging.Perm) error {
	r := c.rt
	st := r.state(p.ID)
	act, err := r.policy.Attach(st, c.th.ID, c.th.Clock)
	if err != nil {
		return fmt.Errorf("MM attach %q: %w", p.Name, err)
	}
	if act != semantics.ActRealAttach {
		return fmt.Errorf("MM attach %q: unexpected action %v", p.Name, act)
	}
	c.syscall(sim.Attach, params.AttachSyscall, "attach-sys")
	if err := r.realAttach(p, perm, c.th.Clock); err != nil {
		return err
	}
	r.Counts.AttachSyscalls++
	semantics.CommitAttach(st, c.th.ID, c.th.Clock, act)
	c.th.Yield()
	return nil
}

// detachMM is MERR's detach: a full system call plus TLB shootdown.
func (c *ThreadCtx) detachMM(p *pmo.PMO) error {
	r := c.rt
	st := r.state(p.ID)
	act, err := r.policy.Detach(st, c.th.ID, c.th.Clock)
	if err != nil {
		return fmt.Errorf("MM detach %q: %w", p.Name, err)
	}
	c.syscall(sim.Detach, params.DetachSyscall+params.TLBInvalidate, "detach-sys")
	if err := r.realDetach(p, c.th.Clock); err != nil {
		return err
	}
	r.Counts.DetachSyscalls++
	semantics.CommitDetach(st, c.th.ID, c.th.Clock, act)
	c.th.Yield()
	return nil
}

// condAttach is the TERP conditional attach. Under TT it consults the
// circular buffer (Figure 7b); under TM and the Basic ablation every call
// is a full system call; under +Cond the EW-conscious lowering applies but
// without window combining.
func (c *ThreadCtx) condAttach(p *pmo.PMO, perm paging.Perm) error {
	r := c.rt
	r.Counts.CondOps++
	st := r.state(p.ID)

	// Basic-semantics ablation: block while another thread holds it.
	if r.Cfg.Scheme == params.BasicSem {
		for try := 0; ; try++ {
			act, err := r.policy.Attach(st, c.th.ID, c.th.Clock)
			if err != nil {
				return fmt.Errorf("basic attach %q: %w", p.Name, err)
			}
			if act == semantics.ActRealAttach {
				break
			}
			if try > 1<<22 {
				return fmt.Errorf("basic attach %q: deadlocked waiting for detach", p.Name)
			}
			// Blocked: wait a quantum and retry.
			r.Counts.Blocks++
			c.th.Charge(sim.Other, 200)
			c.th.Yield()
		}
		c.syscall(sim.Attach, params.AttachSyscall, "attach-sys")
		if err := r.realAttach(p, perm, c.th.Clock); err != nil {
			return err
		}
		r.Counts.AttachSyscalls++
		semantics.CommitAttach(st, c.th.ID, c.th.Clock, semantics.ActRealAttach)
		c.grantThread(p, perm)
		c.th.Yield()
		return nil
	}

	act, err := r.policy.Attach(st, c.th.ID, c.th.Clock)
	if err != nil {
		return fmt.Errorf("cond attach %q: %w", p.Name, err)
	}
	if act == semantics.ActSilent {
		// A nested pair within the thread: nothing reaches the
		// hardware; the instruction retires in the fast path.
		c.th.DirectCharge(sim.Cond, params.SilentCondCost)
		r.Counts.SilentOps++
		r.emit(c.th.Clock, c.th.ID, p.ID, TraceSilentNest)
		semantics.CommitAttach(st, c.th.ID, c.th.Clock, act)
		c.th.Yield()
		return nil
	}

	if r.cb != nil {
		// TT: the hardware decides; run the sweep first so expired
		// windows are closed before the new op (single-thread runs
		// have no machine tick).
		if r.machine == nil {
			r.sweep(c.th.Clock, c.th)
		}
		hwCase := r.cb.CondAttach(p.ID, c.th.Clock)
		switch hwCase {
		case terphw.CaseFirstAttach, terphw.CaseOverflow:
			c.syscall(sim.Attach, params.AttachSyscall, "attach-sys")
			if !r.as.Attached(p.ID) {
				if err := r.realAttach(p, perm, c.th.Clock); err != nil {
					return err
				}
			}
			r.Counts.AttachSyscalls++
		case terphw.CaseSubsequentAttach, terphw.CaseSilentAttach:
			c.th.DirectCharge(sim.Cond, params.SilentCondCost)
			r.Counts.SilentOps++
		}
		semantics.CommitAttach(st, c.th.ID, c.th.Clock, act)
		c.grantThread(p, perm)
		c.th.Yield()
		return nil
	}

	// TM / +Cond: software path.
	switch act {
	case semantics.ActRealAttach:
		c.syscall(sim.Attach, params.AttachSyscall, "attach-sys")
		if err := r.realAttach(p, perm, c.th.Clock); err != nil {
			return err
		}
		r.Counts.AttachSyscalls++
	case semantics.ActThreadGrant:
		if r.Cfg.CondIsSyscall() {
			// TM: the lowering itself is a system call.
			c.syscall(sim.Attach, params.AttachSyscall, "attach-sys")
			r.Counts.AttachSyscalls++
		} else {
			c.th.DirectCharge(sim.Cond, params.SilentCondCost)
			r.Counts.SilentOps++
		}
	}
	semantics.CommitAttach(st, c.th.ID, c.th.Clock, act)
	c.grantThread(p, perm)
	c.th.Yield()
	return nil
}

// condDetach is the TERP conditional detach (Figure 7c under TT).
func (c *ThreadCtx) condDetach(p *pmo.PMO) error {
	r := c.rt
	r.Counts.CondOps++
	st := r.state(p.ID)
	// The thread's window ends when the CONDDT begins executing; the
	// instruction's own cost is not exposure time.
	tewEnd := c.th.Clock

	if r.Cfg.Scheme == params.BasicSem {
		act, err := r.policy.Detach(st, c.th.ID, c.th.Clock)
		if err != nil {
			return fmt.Errorf("basic detach %q: %w", p.Name, err)
		}
		c.syscall(sim.Detach, params.DetachSyscall+params.TLBInvalidate, "detach-sys")
		if err := r.realDetach(p, c.th.Clock); err != nil {
			return err
		}
		r.Counts.DetachSyscalls++
		semantics.CommitDetach(st, c.th.ID, c.th.Clock, act)
		c.revokeThread(p, tewEnd)
		c.th.Yield()
		return nil
	}

	act, err := r.policy.Detach(st, c.th.ID, c.th.Clock)
	if err != nil {
		return fmt.Errorf("cond detach %q: %w", p.Name, err)
	}
	if act == semantics.ActSilent {
		c.th.DirectCharge(sim.Cond, params.SilentCondCost)
		r.Counts.SilentOps++
		semantics.CommitDetach(st, c.th.ID, c.th.Clock, act)
		c.th.Yield()
		return nil
	}

	if r.cb != nil {
		if r.machine == nil {
			r.sweep(c.th.Clock, c.th)
		}
		hwCase := r.cb.CondDetach(p.ID, c.th.Clock)
		switch hwCase {
		case terphw.CaseFullDetach:
			c.syscall(sim.Detach, params.DetachSyscall+params.TLBInvalidate, "detach-sys")
			if r.as.Attached(p.ID) {
				if err := r.realDetach(p, c.th.Clock); err != nil {
					return err
				}
			}
			r.Counts.DetachSyscalls++
			semantics.CommitDetach(st, c.th.ID, c.th.Clock, semantics.ActRealDetach)
		case terphw.CasePartialDetach, terphw.CaseDelayedDetach:
			c.th.DirectCharge(sim.Cond, params.SilentCondCost)
			r.Counts.SilentOps++
			semantics.CommitDetach(st, c.th.ID, c.th.Clock, semantics.ActThreadRevoke)
		case terphw.CaseOverflow:
			c.syscall(sim.Detach, params.DetachSyscall+params.TLBInvalidate, "detach-sys")
			if r.as.Attached(p.ID) && !st.OtherHolders(c.th.ID) {
				if err := r.realDetach(p, c.th.Clock); err != nil {
					return err
				}
				semantics.CommitDetach(st, c.th.ID, c.th.Clock, semantics.ActRealDetach)
			} else {
				semantics.CommitDetach(st, c.th.ID, c.th.Clock, semantics.ActThreadRevoke)
			}
			r.Counts.DetachSyscalls++
		}
		c.revokeThread(p, tewEnd)
		c.th.Yield()
		return nil
	}

	// TM / +Cond software path. +Cond has no window combining: a
	// last-holder detach is performed for real even before L.
	if r.Cfg.Scheme == params.PlusCond && act == semantics.ActThreadRevoke && !st.OtherHolders(c.th.ID) {
		act = semantics.ActRealDetach
	}
	switch act {
	case semantics.ActRealDetach:
		c.syscall(sim.Detach, params.DetachSyscall+params.TLBInvalidate, "detach-sys")
		if err := r.realDetach(p, c.th.Clock); err != nil {
			return err
		}
		r.Counts.DetachSyscalls++
	case semantics.ActThreadRevoke:
		if r.Cfg.CondIsSyscall() {
			c.syscall(sim.Detach, params.DetachSyscall, "detach-sys")
			r.Counts.DetachSyscalls++
		} else {
			c.th.DirectCharge(sim.Cond, params.SilentCondCost)
			r.Counts.SilentOps++
		}
	}
	semantics.CommitDetach(st, c.th.ID, c.th.Clock, act)
	c.revokeThread(p, tewEnd)
	c.th.Yield()
	return nil
}

// grantThread opens the calling thread's TEW on the PMO and widens the
// process-wide matrix entry if this grant requests rights the original
// attach did not.
func (c *ThreadCtx) grantThread(p *pmo.PMO, perm paging.Perm) {
	if c.rt.Cfg.TEWTarget == 0 {
		return
	}
	_ = c.rt.matrix.Upgrade(p.ID, perm)
	if d, ok := c.rt.domains.DomainOf(p.ID); ok {
		_ = c.regs.Grant(d, perm)
		c.rt.tracker.TEWOpen(c.th.ID, p.ID, c.th.Clock)
		c.rt.emit(c.th.Clock, c.th.ID, p.ID, TraceGrant)
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
	c.rt.emit(at, c.th.ID, p.ID, TraceRevoke)
}

// --- loads and stores ----------------------------------------------------

// access runs the full protection and timing path for one PMO access.
//
// When the fast path is enabled, the map lookups of the resolution stage
// (PMO by pool, mapping by PMO, matrix row search, protection domain by
// PMO) are served from the thread's last-translation cache whenever the
// access hits the same PMO as the previous one and no attach, detach or
// randomization happened in between (address-space epoch check). Every
// simulated-cost element still executes on a hit — the TLB lookup, the
// matrix-check cycle and the re-verification of both permission layers,
// the cache-hierarchy walk — so the fast and uncached paths charge the same
// cycles, bump the same counters and emit the same events.
func (c *ThreadCtx) access(o pmo.OID, want paging.Perm, n int) (p *pmo.PMO, va uint64, err error) {
	r := c.rt
	var m *paging.Mapping
	var e *merr.MatrixEntry
	var d mpk.Domain
	var dok bool
	tc := &c.trans
	if r.fastPath && tc.valid && tc.pool == o.Pool() && tc.epoch == r.as.Epoch() {
		p, m, e, d, dok = tc.p, tc.m, tc.e, tc.d, tc.dok
		if o.Offset() >= p.Size {
			r.Counts.Faults++
			r.emit(c.th.Clock, c.th.ID, p.ID, TraceFault)
			return nil, 0, &Fault{Kind: SegFault, OID: o, Want: want, Thread: c.th.ID}
		}
	} else {
		p, err = r.mgr.Lookup(o.Pool())
		if err != nil {
			return nil, 0, err
		}
		var ok bool
		m, ok = r.as.Mapping(p.ID)
		if !ok || o.Offset() >= p.Size {
			r.Counts.Faults++
			r.emit(c.th.Clock, c.th.ID, p.ID, TraceFault)
			return nil, 0, &Fault{Kind: SegFault, OID: o, Want: want, Thread: c.th.ID}
		}
		d, dok = r.domains.DomainOf(p.ID)
		if r.fastPath {
			e, _ = r.matrix.Entry(p.ID)
			*tc = transCache{valid: true, epoch: r.as.Epoch(), pool: o.Pool(),
				p: p, m: m, e: e, d: d, dok: dok}
		}
	}
	va = m.Base + o.Offset()

	// The access is atomic with respect to the cooperative scheduler
	// (DirectCharge, with one yield at the end): a randomization cannot
	// move the mapping between translation and the permission checks,
	// matching hardware where all threads are suspended during a remap.
	defer c.th.Yield()

	// Address translation.
	c.th.DirectCharge(sim.Base, c.tlb.Lookup(va))

	if r.Cfg.Scheme != params.Unprotected {
		// Permission matrix check (1 cycle, after TLB). CheckFast verifies
		// the cached row; on any mismatch CheckAt redoes the full search
		// with identical counter and event effects.
		c.th.DirectCharge(sim.Other, params.PermMatrixCheck)
		if !r.fastPath || !r.matrix.CheckFast(e, va, want) {
			if _, ok := r.matrix.CheckAt(va, want, c.th.Clock); !ok {
				r.Counts.Faults++
				r.emit(c.th.Clock, c.th.ID, p.ID, TraceFault)
				return nil, 0, &Fault{Kind: PermFault, OID: o, Want: want, Thread: c.th.ID}
			}
		}
		// Thread permission check (TEW schemes only).
		if r.Cfg.TEWTarget != 0 {
			if !dok || !c.regs.Allows(d, want) {
				r.Counts.Faults++
				r.emit(c.th.Clock, c.th.ID, p.ID, TraceFault)
				return nil, 0, &Fault{Kind: ThreadPermFault, OID: o, Want: want, Thread: c.th.ID}
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
	return p, va, nil
}

func latency(d *nvm.Device) uint64 {
	if d.Kind() == nvm.NVM {
		return params.NVMLatency
	}
	return params.DRAMLatency
}

// Load reads an 8-byte word from the PMO object.
func (c *ThreadCtx) Load(o pmo.OID) (uint64, error) {
	p, _, err := c.access(o, paging.PermRead, 8)
	if err != nil {
		return 0, err
	}
	return p.Read8(o.Offset())
}

// Store writes an 8-byte word to the PMO object.
func (c *ThreadCtx) Store(o pmo.OID, v uint64) error {
	p, _, err := c.access(o, paging.PermWrite, 8)
	if err != nil {
		return err
	}
	return p.Write8(o.Offset(), v)
}

// LoadBytes reads n bytes starting at the object into b.
func (c *ThreadCtx) LoadBytes(o pmo.OID, b []byte) error {
	p, _, err := c.access(o, paging.PermRead, len(b))
	if err != nil {
		return err
	}
	return p.ReadAt(b, o.Offset())
}

// StoreBytes writes b starting at the object.
func (c *ThreadCtx) StoreBytes(o pmo.OID, b []byte) error {
	p, _, err := c.access(o, paging.PermWrite, len(b))
	if err != nil {
		return err
	}
	return p.WriteAt(b, o.Offset())
}

// DRAMAccess models one volatile memory access of n bytes at a synthetic
// address (stack/heap work outside PMOs), charged through the caches.
func (c *ThreadCtx) DRAMAccess(addr uint64, n int) {
	// Tag DRAM addresses into a disjoint region of the line space.
	const dramBias = uint64(1) << 62
	va := dramBias | addr
	lines := (int(va)%params.LineSize + n + params.LineSize - 1) / params.LineSize
	for i := 0; i < lines; i++ {
		la := va + uint64(i*params.LineSize)
		switch {
		case c.l1.Access(la):
			c.th.Charge(sim.Base, params.L1Latency)
		case c.rt.l2.Access(la):
			c.th.Charge(sim.Base, params.L1Latency+params.L2Latency)
		default:
			c.th.Charge(sim.Base, params.L1Latency+params.L2Latency+params.DRAMLatency)
		}
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
}

// CondFreqPerSec returns conditional ops per second of simulated time.
func (res Result) CondFreqPerSec() float64 {
	if res.Cycles == 0 {
		return 0
	}
	secs := float64(res.Cycles) / (params.CyclesPerMicro * 1e6)
	return float64(res.Counts.CondOps) / secs
}

// Finish closes open windows at end time and assembles the result for a
// single-threaded run on thread t.
func (r *Runtime) Finish(end uint64) Result {
	r.tracker.Finish(end)
	var costs sim.Accounts
	for _, tc := range r.threads {
		costs.Merge(&tc.th.Costs)
	}
	return Result{
		Scheme:   r.Cfg.Scheme,
		Cycles:   end,
		Costs:    costs,
		Exposure: r.tracker.Collect(end),
		Counts:   r.Counts,
	}
}

// LoadVA performs a load at an absolute virtual address — the attacker's
// view of memory in the security case studies. It walks the same
// protection path as Load but resolves the mapping from the address
// instead of an ObjectID, so a stale address learned before a
// randomization faults (or reads the wrong object) exactly as on the
// simulated hardware.
func (c *ThreadCtx) LoadVA(va uint64) (uint64, error) {
	p, off, err := c.resolveVA(va, paging.PermRead)
	if err != nil {
		return 0, err
	}
	return p.Read8(off)
}

// StoreVA performs a store at an absolute virtual address (see LoadVA).
func (c *ThreadCtx) StoreVA(va uint64, v uint64) error {
	p, off, err := c.resolveVA(va, paging.PermWrite)
	if err != nil {
		return err
	}
	return p.Write8(off, v)
}

// resolveVA translates and protection-checks an absolute address.
func (c *ThreadCtx) resolveVA(va uint64, want paging.Perm) (*pmo.PMO, uint64, error) {
	r := c.rt
	m, err := r.as.Lookup(va)
	if err != nil {
		r.Counts.Faults++
		return nil, 0, &Fault{Kind: SegFault, Want: want, Thread: c.th.ID}
	}
	c.th.Charge(sim.Base, c.tlb.Lookup(va))
	if r.Cfg.Scheme != params.Unprotected {
		c.th.Charge(sim.Other, params.PermMatrixCheck)
		if _, ok := r.matrix.CheckAt(va, want, c.th.Clock); !ok {
			r.Counts.Faults++
			return nil, 0, &Fault{Kind: PermFault, Want: want, Thread: c.th.ID}
		}
		if r.Cfg.TEWTarget != 0 {
			d, ok := r.domains.DomainOf(m.PMOID)
			if !ok || !c.regs.Allows(d, want) {
				r.Counts.Faults++
				return nil, 0, &Fault{Kind: ThreadPermFault, Want: want, Thread: c.th.ID}
			}
		}
	}
	switch {
	case c.l1.Access(va):
		c.th.Charge(sim.Base, params.L1Latency)
	case r.l2.Access(va):
		c.th.Charge(sim.Base, params.L1Latency+params.L2Latency)
	default:
		c.th.Charge(sim.Base, params.L1Latency+params.L2Latency+latency(m.Dev))
	}
	p, err := r.mgr.Lookup(m.PMOID)
	if err != nil {
		return nil, 0, err
	}
	return p, va - m.Base, nil
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
