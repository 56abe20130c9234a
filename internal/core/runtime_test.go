package core

import (
	"testing"

	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
)

func newEnv(t *testing.T, scheme params.Scheme) (*Runtime, *ThreadCtx, *pmo.PMO) {
	t.Helper()
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
	p, err := mgr.Create("test", 1<<20, pmo.ModeRead|pmo.ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(params.NewConfig(scheme, params.DefaultEWMicros), mgr)
	ctx := rt.NewThread(sim.SingleThread())
	return rt, ctx, p
}

func TestUnprotectedBaseline(t *testing.T) {
	rt, ctx, p := newEnv(t, params.Unprotected)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	o, _ := p.Alloc(64)
	if err := ctx.Store(o, 42); err != nil {
		t.Fatal(err)
	}
	v, err := ctx.Load(o)
	if err != nil || v != 42 {
		t.Fatalf("load = %d, %v", v, err)
	}
	// No protection costs at all.
	if ctx.th.Costs[sim.Attach] != 0 || ctx.th.Costs[sim.Other] != 0 {
		t.Fatalf("baseline charged protection costs: %v", ctx.th.Costs)
	}
	res := rt.Finish(ctx.Now())
	if res.Counts.AttachSyscalls != 0 {
		t.Fatal("baseline counted syscalls")
	}
}

func TestMMAttachDetachCosts(t *testing.T) {
	rt, ctx, p := newEnv(t, params.MM)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	if ctx.th.Costs[sim.Attach] != params.AttachSyscall {
		t.Fatalf("attach cost = %d", ctx.th.Costs[sim.Attach])
	}
	o, _ := p.Alloc(64)
	if err := ctx.Store(o, 7); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Detach(p); err != nil {
		t.Fatal(err)
	}
	if ctx.th.Costs[sim.Detach] != params.DetachSyscall+params.TLBInvalidate {
		t.Fatalf("detach cost = %d", ctx.th.Costs[sim.Detach])
	}
	// Access after detach segfaults.
	if _, err := ctx.Load(o); !IsFault(err, SegFault) {
		t.Fatalf("post-detach load: %v", err)
	}
	res := rt.Finish(ctx.Now())
	if res.Counts.AttachSyscalls != 1 || res.Counts.DetachSyscalls != 1 {
		t.Fatalf("counts = %+v", res.Counts)
	}
	if res.Exposure.EWCount != 1 {
		t.Fatalf("EW count = %d", res.Exposure.EWCount)
	}
}

func TestMMDoubleAttachFails(t *testing.T) {
	_, ctx, p := newEnv(t, params.MM)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Attach(p, paging.ReadWrite); err == nil {
		t.Fatal("MM double attach accepted")
	}
}

func TestMMRandomizesBaseAcrossAttaches(t *testing.T) {
	rt, ctx, p := newEnv(t, params.MM)
	bases := map[uint64]bool{}
	for i := 0; i < 6; i++ {
		if err := ctx.Attach(p, paging.ReadWrite); err != nil {
			t.Fatal(err)
		}
		m, _ := rt.as.Mapping(p.ID)
		bases[m.Base] = true
		if err := ctx.Detach(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(bases) < 4 {
		t.Fatalf("bases not randomized: %d distinct", len(bases))
	}
}

func TestTTSilentLowering(t *testing.T) {
	rt, ctx, p := newEnv(t, params.TT)
	o, err := func() (pmo.OID, error) {
		if err := ctx.Attach(p, paging.ReadWrite); err != nil {
			return 0, err
		}
		return p.Alloc(64)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Store(o, 1); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Detach(p); err != nil {
		t.Fatal(err)
	}
	// Second attach shortly after: the delayed detach is elided and
	// the attach is silent (Case 3).
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	if v, err := ctx.Load(o); err != nil || v != 1 {
		t.Fatalf("load after silent attach = %d, %v", v, err)
	}
	if err := ctx.Detach(p); err != nil {
		t.Fatal(err)
	}
	res := rt.Finish(ctx.Now())
	if res.Counts.AttachSyscalls != 1 {
		t.Fatalf("attach syscalls = %d, want 1 (second was silent)", res.Counts.AttachSyscalls)
	}
	if res.Counts.SilentOps < 2 {
		t.Fatalf("silent ops = %d", res.Counts.SilentOps)
	}
	if res.Counts.CondOps != 4 {
		t.Fatalf("cond ops = %d", res.Counts.CondOps)
	}
}

func TestTTThreadPermissionEnforced(t *testing.T) {
	_, ctx, p := newEnv(t, params.TT)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	o, _ := p.Alloc(64)
	if err := ctx.Store(o, 5); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Detach(p); err != nil {
		t.Fatal(err)
	}
	// PMO is still mapped (delayed detach) but the thread permission is
	// revoked: access must raise a thread permission fault, not a
	// segfault — exactly state 2 of Section VII-D.
	if _, err := ctx.Load(o); !IsFault(err, ThreadPermFault) {
		t.Fatalf("post-revoke load: %v", err)
	}
}

func TestTTReadOnlyGrant(t *testing.T) {
	_, ctx, p := newEnv(t, params.TT)
	if err := ctx.Attach(p, paging.PermRead); err != nil {
		t.Fatal(err)
	}
	o, _ := p.Alloc(64)
	if _, err := ctx.Load(o); err != nil {
		t.Fatalf("read under read grant: %v", err)
	}
	if err := ctx.Store(o, 1); err == nil {
		t.Fatal("write under read-only grant accepted")
	}
}

func TestTTSelfDetachOnExpiredWindow(t *testing.T) {
	rt, ctx, p := newEnv(t, params.TT)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Detach(p); err != nil {
		t.Fatal(err)
	}
	// Burn past the EW target; the inline sweep on the next op (or an
	// explicit sweep) must self-detach the delayed PMO.
	ctx.Compute(rt.Cfg.EWTarget + 2*params.SweepPeriod)
	rt.sweep(ctx.Now(), ctx.th)
	if rt.as.Attached(p.ID) {
		t.Fatal("expired delayed-detach PMO still mapped")
	}
	res := rt.Finish(ctx.Now())
	if res.Counts.DetachSyscalls != 1 {
		t.Fatalf("detach syscalls = %d", res.Counts.DetachSyscalls)
	}
	// Exposure window must be bounded by EW target plus one sweep.
	limit := float64(rt.Cfg.EWTarget + 3*params.SweepPeriod)
	if res.Exposure.MaxEW > limit {
		t.Fatalf("max EW %f exceeds %f", res.Exposure.MaxEW, limit)
	}
}

func TestTTRandomizeWhenHeldPastEW(t *testing.T) {
	rt, ctx, p := newEnv(t, params.TT)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	m, _ := rt.as.Mapping(p.ID)
	base := m.Base
	// Hold the PMO past the max EW; the sweep must randomize, not
	// detach (Figure 6c / partial combining).
	ctx.Compute(rt.Cfg.EWTarget + 2*params.SweepPeriod)
	rt.sweep(ctx.Now(), ctx.th)
	if !rt.as.Attached(p.ID) {
		t.Fatal("held PMO was detached")
	}
	m2, _ := rt.as.Mapping(p.ID)
	if m2.Base == base {
		t.Fatal("held PMO was not randomized")
	}
	res := rt.Finish(ctx.Now())
	if res.Counts.Randomizations != 1 {
		t.Fatalf("randomizations = %d", res.Counts.Randomizations)
	}
	if res.Costs[sim.Rand] == 0 {
		t.Fatal("randomization cost not charged")
	}
	// An access still works after randomization (relocatable OIDs).
	o, _ := p.Alloc(8)
	if err := ctx.Store(o, 9); err != nil {
		t.Fatalf("store after randomize: %v", err)
	}
}

func TestTMEveryOpIsSyscall(t *testing.T) {
	rt, ctx, p := newEnv(t, params.TM)
	for i := 0; i < 4; i++ {
		if err := ctx.Attach(p, paging.ReadWrite); err != nil {
			t.Fatal(err)
		}
		if err := ctx.Detach(p); err != nil {
			t.Fatal(err)
		}
	}
	res := rt.Finish(ctx.Now())
	if res.Counts.SilentOps != 0 {
		t.Fatalf("TM had silent ops: %d", res.Counts.SilentOps)
	}
	if res.Counts.AttachSyscalls+res.Counts.DetachSyscalls != 8 {
		t.Fatalf("syscalls = %d+%d, want 8",
			res.Counts.AttachSyscalls, res.Counts.DetachSyscalls)
	}
}

func TestPlusCondRealDetachOnLastHolder(t *testing.T) {
	rt, ctx, p := newEnv(t, params.PlusCond)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Detach(p); err != nil {
		t.Fatal(err)
	}
	// No window combining: the PMO must be unmapped immediately.
	if rt.as.Attached(p.ID) {
		t.Fatal("+Cond left PMO mapped after last-holder detach")
	}
	res := rt.Finish(ctx.Now())
	if res.Counts.DetachSyscalls != 1 {
		t.Fatalf("detach syscalls = %d", res.Counts.DetachSyscalls)
	}
}

func TestSchemeOverheadOrdering(t *testing.T) {
	// For the same op sequence the total cost must order TT < MM < TM
	// on an attach/detach-heavy loop — the headline result's shape.
	run := func(s params.Scheme) uint64 {
		_, ctx, p := newEnv(t, s)
		o := pmo.OID(0)
		for i := 0; i < 50; i++ {
			if err := ctx.Attach(p, paging.ReadWrite); err != nil {
				t.Fatal(err)
			}
			if o.IsNil() {
				o, _ = p.Alloc(64)
			}
			if err := ctx.Store(o, uint64(i)); err != nil {
				t.Fatal(err)
			}
			ctx.Compute(1000)
			if err := ctx.Detach(p); err != nil {
				t.Fatal(err)
			}
		}
		return ctx.Now()
	}
	tt, tm := run(params.TT), run(params.TM)
	if tt >= tm {
		t.Fatalf("TT (%d) not cheaper than TM (%d)", tt, tm)
	}
}

func TestMultiThreadSharingUnderTT(t *testing.T) {
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
	p, _ := mgr.Create("shared", 1<<20, pmo.ModeRead|pmo.ModeWrite)
	rt := NewRuntime(params.NewConfig(params.TT, params.DefaultEWMicros), mgr)
	m := sim.NewMachine(1, 200)
	rt.AttachMachine(m)
	o, _ := p.Alloc(64)

	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		i := i
		m.AddThread(func(th *sim.Thread) {
			ctx := rt.NewThread(th)
			for round := 0; round < 20 && errs[i] == nil; round++ {
				if err := ctx.Attach(p, paging.ReadWrite); err != nil {
					errs[i] = err
					return
				}
				if err := ctx.Store(o, uint64(i*100+round)); err != nil {
					errs[i] = err
					return
				}
				ctx.Compute(500)
				if err := ctx.Detach(p); err != nil {
					errs[i] = err
					return
				}
				ctx.Compute(1500)
			}
		})
	}
	end := m.Run()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
	}
	res := rt.Finish(end)
	// Concurrent attaches must have been lowered, not blocked/erred.
	if res.Counts.SilentOps == 0 {
		t.Fatal("no silent ops under concurrent sharing")
	}
	if res.Counts.AttachSyscalls >= res.Counts.CondOps/2 {
		t.Fatalf("too many real attaches: %d of %d cond ops",
			res.Counts.AttachSyscalls, res.Counts.CondOps)
	}
	if res.Exposure.TEWCount == 0 {
		t.Fatal("no TEWs recorded")
	}
}

func TestBasicSemanticsSerializesThreads(t *testing.T) {
	runScheme := func(s params.Scheme) uint64 {
		mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
		p, _ := mgr.Create("shared", 1<<20, pmo.ModeRead|pmo.ModeWrite)
		rt := NewRuntime(params.NewConfig(s, params.DefaultEWMicros), mgr)
		m := sim.NewMachine(1, 200)
		rt.AttachMachine(m)
		o, _ := p.Alloc(64)
		for i := 0; i < 4; i++ {
			m.AddThread(func(th *sim.Thread) {
				ctx := rt.NewThread(th)
				for round := 0; round < 10; round++ {
					if err := ctx.Attach(p, paging.ReadWrite); err != nil {
						panic(err)
					}
					if err := ctx.Store(o, 1); err != nil {
						panic(err)
					}
					ctx.Compute(5000)
					if err := ctx.Detach(p); err != nil {
						panic(err)
					}
				}
			})
		}
		return m.Run()
	}
	basic := runScheme(params.BasicSem)
	tt := runScheme(params.TT)
	if basic <= tt {
		t.Fatalf("basic semantics (%d) should be slower than TT (%d)", basic, tt)
	}
}

func TestAccessUnknownPool(t *testing.T) {
	_, ctx, _ := newEnv(t, params.TT)
	if _, err := ctx.Load(pmo.MakeOID(999, 64)); err == nil {
		t.Fatal("load from unknown pool accepted")
	}
}

func TestOutOfRangeOffsetSegfaults(t *testing.T) {
	_, ctx, p := newEnv(t, params.TT)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Load(pmo.MakeOID(p.ID, p.Size+8)); !IsFault(err, SegFault) {
		t.Fatalf("out-of-range load: %v", err)
	}
}

func TestFaultErrorText(t *testing.T) {
	f := &Fault{Kind: ThreadPermFault, OID: pmo.MakeOID(1, 8), Want: paging.PermWrite, Thread: 2}
	if f.Error() == "" {
		t.Fatal("empty error")
	}
	if !IsFault(f, ThreadPermFault) || IsFault(f, SegFault) {
		t.Fatal("IsFault misclassifies")
	}
	for k := SegFault; k <= ThreadPermFault; k++ {
		if k.String() == "" {
			t.Fatal("empty fault name")
		}
	}
}

func TestCountersSilentPercent(t *testing.T) {
	c := Counters{CondOps: 10, SilentOps: 9}
	if c.SilentPercent() != 90 {
		t.Fatalf("silent%% = %f", c.SilentPercent())
	}
	if (Counters{}).SilentPercent() != 0 {
		t.Fatal("zero ops should be 0%")
	}
}

func TestResultCondFreq(t *testing.T) {
	res := Result{Cycles: params.CyclesPerMicro * 1e6, Counts: Counters{CondOps: 500}}
	if got := res.CondFreqPerSec(); got != 500 {
		t.Fatalf("freq = %f", got)
	}
	if (Result{}).CondFreqPerSec() != 0 {
		t.Fatal("zero cycles should be 0")
	}
}

func TestLoadStoreBytes(t *testing.T) {
	_, ctx, p := newEnv(t, params.TT)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	o, _ := p.Alloc(128)
	msg := []byte("hello persistent world")
	if err := ctx.StoreBytes(o, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := ctx.LoadBytes(o, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("round trip: %q", got)
	}
}

func TestDRAMAccessChargesBase(t *testing.T) {
	_, ctx, _ := newEnv(t, params.TT)
	before := ctx.th.Costs[sim.Base]
	ctx.DRAMAccess(0x1000, 64)
	if ctx.th.Costs[sim.Base] <= before {
		t.Fatal("DRAM access free")
	}
}

func TestExposureWindowsBoundedUnderTT(t *testing.T) {
	// Long run with frequent op pairs: every closed EW must stay below
	// EW target + sweep slack.
	rt, ctx, p := newEnv(t, params.TT)
	o := pmo.OID(0)
	for i := 0; i < 400; i++ {
		if err := ctx.Attach(p, paging.ReadWrite); err != nil {
			t.Fatal(err)
		}
		if o.IsNil() {
			o, _ = p.Alloc(64)
		}
		if err := ctx.Store(o, uint64(i)); err != nil {
			t.Fatal(err)
		}
		ctx.Compute(2000) // ~0.9us inside
		if err := ctx.Detach(p); err != nil {
			t.Fatal(err)
		}
		ctx.Compute(3000)
	}
	rt.sweep(ctx.Now()+2*params.SweepPeriod, ctx.th)
	res := rt.Finish(ctx.Now())
	limit := float64(rt.Cfg.EWTarget) + 3*float64(params.SweepPeriod)
	if res.Exposure.MaxEW > limit {
		t.Fatalf("max EW %.0f exceeds limit %.0f", res.Exposure.MaxEW, limit)
	}
	if res.Exposure.EWCount == 0 {
		t.Fatal("no EWs recorded")
	}
	// Nearly all conditional ops must be silent here.
	if res.Counts.SilentPercent() < 80 {
		t.Fatalf("silent%% = %.1f", res.Counts.SilentPercent())
	}
}

func TestVAAccessPath(t *testing.T) {
	rt, ctx, p := newEnv(t, params.TT)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	o, _ := p.Alloc(8)
	base, ok := rt.MappingBase(p.ID)
	if !ok {
		t.Fatal("no mapping base")
	}
	va := base + o.Offset()
	if err := ctx.StoreVA(va, 77); err != nil {
		t.Fatal(err)
	}
	v, err := ctx.LoadVA(va)
	if err != nil || v != 77 {
		t.Fatalf("LoadVA = %d, %v", v, err)
	}
	// The same cell reads back through the OID path.
	if v, err := ctx.Load(o); err != nil || v != 77 {
		t.Fatalf("Load = %d, %v", v, err)
	}
	// Unmapped addresses segfault.
	if _, err := ctx.LoadVA(0xdead0000); !IsFault(err, SegFault) {
		t.Fatalf("wild VA: %v", err)
	}
	// After detach the thread permission gates VA access too.
	if err := ctx.Detach(p); err != nil {
		t.Fatal(err)
	}
	if err := ctx.StoreVA(va, 1); !IsFault(err, ThreadPermFault) {
		t.Fatalf("post-detach StoreVA: %v", err)
	}
	if _, ok := rt.MappingBase(999); ok {
		t.Fatal("MappingBase for unknown PMO")
	}
}

func TestRuntimeUserModeChecks(t *testing.T) {
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
	p, err := mgr.CreateAs("alice", "guarded", 1<<20, pmo.ModeRead|pmo.ModeWrite|pmo.ModeOtherRead)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(params.NewConfig(params.TT, 40), mgr)
	ctx := rt.NewThread(sim.SingleThread())
	rt.SetUser("bob")
	if rt.User() != "bob" {
		t.Fatal("user not set")
	}
	if err := ctx.Attach(p, paging.ReadWrite); err == nil {
		t.Fatal("bob write-attached a world-read PMO")
	}
	if err := ctx.Attach(p, paging.PermRead); err != nil {
		t.Fatalf("bob read attach: %v", err)
	}
	if err := ctx.Detach(p); err != nil {
		t.Fatal(err)
	}
	rt.SetUser("alice")
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatalf("owner attach: %v", err)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	rt, ctx, p := newEnv(t, params.TT)
	if rt.Manager() == nil || rt.AddressSpace() == nil || rt.Tracker() == nil {
		t.Fatal("nil accessor")
	}
	if ctx.Thread() == nil || ctx.Runtime() != rt {
		t.Fatal("thread accessors wrong")
	}
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	rt.Sweep(ctx) // exercised; nothing to expire yet
	if !rt.AddressSpace().Attached(p.ID) {
		t.Fatal("sweep detached a fresh window")
	}
}

func TestTraceKindStringsComplete(t *testing.T) {
	for k := TraceRealAttach; k <= TraceFault; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d empty", k)
		}
	}
}
