package core

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// EnableObs turns on the observability layer for this runtime: with
// cfg.Trace a Recorder collects per-thread event streams from every
// component, and with cfg.Metrics a Snapshot accumulates counters and
// histograms. Call it before creating threads and before AttachMachine:
// threads created earlier are not instrumented, and a machine attached
// earlier records no context switches.
func (r *Runtime) EnableObs(cfg obs.Config) {
	if cfg.Trace {
		r.obs = obs.NewRecorder(cfg.TraceCap)
		hw := r.obs.Track(obs.HWThread)
		if r.cb != nil {
			r.cb.Obs = hw
		}
		r.matrix.Obs = hw
		r.tracker.Obs = r.obs
	}
	if cfg.Metrics {
		r.metrics = obs.NewSnapshot()
		r.chargeHists = make([]*obs.Hist, int(sim.Other)+1)
		for a := sim.Base; a <= sim.Other; a++ {
			r.chargeHists[a] = r.metrics.Hist("sim/charge/" + a.String())
		}
	}
}

// wireSwitchHook records scheduler context switches on the resumed
// thread's track.
func (r *Runtime) wireSwitchHook(m *sim.Machine) {
	rec := r.obs
	m.SwitchHook = func(ts uint64, thread int) {
		rec.Track(thread).Instant(ts, obs.CatSim, "switch-in", 0)
	}
}

// wireThreadObs instruments a newly created thread context: its own event
// track, TLB walk events, and the per-account charge histograms.
func (r *Runtime) wireThreadObs(c *ThreadCtx) {
	if r.obs != nil {
		c.obs = r.obs.Track(c.th.ID)
		c.tlb.Obs = c.obs
		th := c.th
		c.tlb.Now = func() uint64 { return th.Clock }
	}
	if r.chargeHists != nil {
		hists := r.chargeHists
		c.th.ChargeHook = func(a sim.Account, n uint64) {
			hists[a].Observe(n)
		}
	}
}

// syscall charges a full system call on account a and records it as a
// synchronous span on the thread's track (nil track = no-op).
func (c *ThreadCtx) syscall(a sim.Account, cost uint64, name string) {
	from := c.th.Clock
	c.th.DirectCharge(a, cost)
	c.obs.Span(from, c.th.Clock, obs.CatCore, name, 0)
}

// obsSnapshot assembles the end-of-run metrics snapshot from every
// component's counters plus the histograms accumulated during the run.
// It builds on a copy, so the runtime's own snapshot keeps only what the
// run accumulated and a second call returns the same counts. It returns
// nil when metrics collection is off.
func (r *Runtime) obsSnapshot() *obs.Snapshot {
	if r.metrics == nil {
		return nil
	}
	s := obs.NewSnapshot()
	s.Merge(r.metrics)
	var costs sim.Accounts
	var l1, l2, miss, flush uint64
	for _, tc := range r.threads {
		costs.Merge(&tc.th.Costs)
		l1 += tc.tlb.L1Hits
		l2 += tc.tlb.L2Hits
		miss += tc.tlb.Misses
		flush += tc.tlb.Flushes
	}
	for a := sim.Base; a <= sim.Other; a++ {
		s.Add("sim/cycles/"+a.String(), costs[a])
	}
	s.Add("core/cond_ops", r.Counts.CondOps)
	s.Add("core/silent_ops", r.Counts.SilentOps)
	s.Add("core/attach_syscalls", r.Counts.AttachSyscalls)
	s.Add("core/detach_syscalls", r.Counts.DetachSyscalls)
	s.Add("core/randomizations", r.Counts.Randomizations)
	s.Add("core/blocks", r.Counts.Blocks)
	s.Add("core/faults", r.Counts.Faults)
	s.Add("paging/tlb/l1_hits", l1)
	s.Add("paging/tlb/l2_hits", l2)
	s.Add("paging/tlb/misses", miss)
	s.Add("paging/tlb/flushes", flush)
	s.Add("merr/checks", r.matrix.Checks)
	s.Add("merr/denials", r.matrix.Denials)
	if r.cb != nil {
		s.Add("terphw/elided", r.cb.Elided)
		s.Add("terphw/self_detach", r.cb.SelfDetach)
		s.Add("terphw/sweep_rand", r.cb.SweepRand)
	}
	ew, tew := r.tracker.Counts()
	s.Add("expo/ew_closed", ew)
	s.Add("expo/tew_closed", tew)
	if r.obs != nil {
		s.Add("obs/events", r.obs.Total())
		// Ring overflow is never silent: dropped events surface here and
		// the report layer flags any cell with a nonzero count.
		s.Add("obs/dropped", r.obs.Dropped())
	}
	return s
}
