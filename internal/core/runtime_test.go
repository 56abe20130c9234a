package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpk"
	"repro/internal/nvm"
	"repro/internal/obs"
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

// runContention runs four threads that each attach one shared PMO, store
// to it, compute 4,625 cycles in steps of 125 and detach it, ten times
// over, on a machine with the given quantum, and returns the runtime and
// the end clock. Each quantum leaves a different part of the computing
// before a detach unyielded, so the waiters see the detach at different
// times.
func runContention(t *testing.T, s params.Scheme, quantum uint64) (*Runtime, uint64) {
	t.Helper()
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
	p, _ := mgr.Create("shared", 1<<20, pmo.ModeRead|pmo.ModeWrite)
	rt := NewRuntime(params.NewConfig(s, params.DefaultEWMicros), mgr)
	m := sim.NewMachine(1, quantum)
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
				for step := 0; step < 37; step++ {
					ctx.Compute(125)
				}
				if err := ctx.Detach(p); err != nil {
					panic(err)
				}
			}
		})
	}
	return rt, m.Run()
}

func TestBasicSemanticsSerializesThreads(t *testing.T) {
	_, basic := runContention(t, params.BasicSem, 200)
	_, tt := runContention(t, params.TT, 200)
	if basic <= tt {
		t.Fatalf("basic semantics (%d) should be slower than TT (%d)", basic, tt)
	}
}

// TestBasicContentionPinned pins what four threads contending for one
// PMO under Basic semantics add up to at three quanta: the blocked
// retries, the end clock and the cost accounts. The values were recorded
// when every retry still ran on the waiting thread's own coroutine.
func TestBasicContentionPinned(t *testing.T) {
	for _, tc := range []struct {
		quantum uint64
		blocks  uint64
		end     uint64
		costs   sim.Accounts
	}{
		{50, 4564, 382_600, sim.Accounts{201_160, 176_880, 144_320, 0, 0, 912_840}},
		{200, 4710, 380_200, sim.Accounts{201_160, 176_880, 144_320, 0, 0, 942_040}},
		{1000, 4126, 359_200, sim.Accounts{201_160, 176_880, 144_320, 0, 0, 825_240}},
	} {
		t.Run(fmt.Sprint(tc.quantum), func(t *testing.T) {
			rt, end := runContention(t, params.BasicSem, tc.quantum)
			res := rt.Finish(end)
			if rt.Counts.Blocks != tc.blocks || end != tc.end || res.Costs != tc.costs {
				t.Fatalf("blocks %d, end %d, costs %v; want %d, %d, %v",
					rt.Counts.Blocks, end, res.Costs, tc.blocks, tc.end, tc.costs)
			}
		})
	}
}

func TestAccessUnknownPool(t *testing.T) {
	_, ctx, _ := newEnv(t, params.TT)
	if _, err := ctx.Load(pmo.MakeOID(999, 64)); err == nil {
		t.Fatal("load from unknown pool accepted")
	}
}

// TestProtectionKeysOnlyForThreadWindows: an attach takes a protection
// key only under schemes that grant thread permission, and takes it
// before mapping the PMO. Base and MM attach more PMOs than MPK has
// keys; under TT the attach that finds no key fails whole and leaves
// nothing mapped.
func TestProtectionKeysOnlyForThreadWindows(t *testing.T) {
	for _, scheme := range []params.Scheme{params.Unprotected, params.MM, params.TT} {
		t.Run(scheme.String(), func(t *testing.T) {
			mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
			rt := NewRuntime(params.NewConfig(scheme, params.DefaultEWMicros), mgr)
			ctx := rt.NewThread(sim.SingleThread())
			for i := 0; i < mpk.NumDomains; i++ {
				p, err := mgr.Create(fmt.Sprintf("p%d", i), 1<<16, pmo.ModeRead|pmo.ModeWrite)
				if err != nil {
					t.Fatal(err)
				}
				o, err := p.Alloc(8)
				if err != nil {
					t.Fatal(err)
				}
				err = ctx.Attach(p, paging.ReadWrite)
				if scheme == params.TT && i == mpk.NumDomains-1 {
					if !errors.Is(err, mpk.ErrNoDomains) {
						t.Fatalf("attach %d: %v, want %v", i, err, mpk.ErrNoDomains)
					}
					if rt.as.Attached(p.ID) {
						t.Fatal("the failed attach left the PMO mapped")
					}
					if err := ctx.Store(o, 1); !IsFault(err, SegFault) {
						t.Fatalf("store after the failed attach: %v, want a segfault", err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("attach %d: %v", i, err)
				}
				if err := ctx.Store(o, uint64(i)); err != nil {
					t.Fatalf("store to PMO %d: %v", i, err)
				}
			}
		})
	}
}

// TestFailedFirstAttachLeavesNoBufferEntry: under the circular-buffer
// schemes, an attach whose system call fails (no protection key is left
// for a 16th held PMO) leaves no buffer entry behind. Its retry is a
// first attach again and fails the same way, instead of finding the
// entry, taking the silent path and mapping nothing.
func TestFailedFirstAttachLeavesNoBufferEntry(t *testing.T) {
	for _, scheme := range []params.Scheme{params.TT, params.PlusCB} {
		t.Run(scheme.String(), func(t *testing.T) {
			mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
			rt := NewRuntime(params.NewConfig(scheme, params.DefaultEWMicros), mgr)
			ctx := rt.NewThread(sim.SingleThread())
			var p *pmo.PMO
			for i := 0; i < mpk.NumDomains; i++ {
				var err error
				if p, err = mgr.Create(fmt.Sprintf("p%d", i), 1<<16, pmo.ModeRead|pmo.ModeWrite); err != nil {
					t.Fatal(err)
				}
				err = ctx.Attach(p, paging.ReadWrite)
				if i < mpk.NumDomains-1 && err != nil {
					t.Fatalf("attach %d: %v", i, err)
				}
				if i == mpk.NumDomains-1 && !errors.Is(err, mpk.ErrNoDomains) {
					t.Fatalf("attach %d: %v, want %v", i, err, mpk.ErrNoDomains)
				}
			}
			if live := rt.cb.Live(); live != mpk.NumDomains-1 {
				t.Fatalf("%d live buffer entries after the failed attach, want %d", live, mpk.NumDomains-1)
			}
			if err := ctx.Attach(p, paging.ReadWrite); !errors.Is(err, mpk.ErrNoDomains) {
				t.Fatalf("retried attach: %v, want %v", err, mpk.ErrNoDomains)
			}
			o, err := p.Alloc(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.Store(o, 1); !IsFault(err, SegFault) {
				t.Fatalf("store after the retried attach: %v, want a segfault", err)
			}
		})
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
	if rt.Manager() == nil || rt.AddressSpace() == nil {
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

// TestNestedPairRetiresOnTheFastPath: an inner attach/detach pair inside
// the thread's own window is silenced under EW-conscious semantics (Figure
// 3): it reaches no system call, grants and revokes nothing, leaves the
// outer window open for the store after it, and records one silent event.
func TestNestedPairRetiresOnTheFastPath(t *testing.T) {
	for _, scheme := range []params.Scheme{params.TT, params.TM, params.PlusCond, params.PlusCB} {
		t.Run(scheme.String(), func(t *testing.T) {
			rt, ctx, p := newObsEnv(t, scheme, obs.Config{Trace: true})
			o, err := p.Alloc(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.Attach(p, paging.ReadWrite); err != nil {
				t.Fatal(err)
			}
			before, cond := rt.Counts, ctx.th.Costs[sim.Cond]
			if err := ctx.Attach(p, paging.ReadWrite); err != nil {
				t.Fatalf("inner attach: %v", err)
			}
			if err := ctx.Store(o, 1); err != nil {
				t.Fatal(err)
			}
			if err := ctx.Detach(p); err != nil {
				t.Fatalf("inner detach: %v", err)
			}
			got := rt.Counts
			if got.CondOps-before.CondOps != 2 || got.SilentOps-before.SilentOps != 2 {
				t.Fatalf("inner pair: %d cond ops, %d fast path; want 2 and 2",
					got.CondOps-before.CondOps, got.SilentOps-before.SilentOps)
			}
			if got.AttachSyscalls != before.AttachSyscalls || got.DetachSyscalls != before.DetachSyscalls {
				t.Fatalf("inner pair made system calls: %+v -> %+v", before, got)
			}
			if d := ctx.th.Costs[sim.Cond] - cond; d != 2*params.SilentCondCost {
				t.Fatalf("inner pair charged %d Cond cycles, want %d", d, 2*params.SilentCondCost)
			}
			if err := ctx.Store(o, 2); err != nil {
				t.Fatalf("store after the inner detach: %v", err)
			}
			if err := ctx.Detach(p); err != nil {
				t.Fatalf("outer detach: %v", err)
			}
			res := rt.Finish(ctx.Now())
			if res.Exposure.TEWCount != 1 {
				t.Fatalf("%d TEWs closed, want 1", res.Exposure.TEWCount)
			}
			events := obs.Instants(res.Obs.Events)
			if n := len(obs.FilterInstants(events, obs.CatCore, "silent")); n != 1 {
				t.Fatalf("%d silent instants, want 1", n)
			}
		})
	}
}

// TestBufferOverflowFallsBackToSystemCalls: with the thread window off
// (TEWTarget 0, which terp.Options reaches by rounding a tiny TEW down),
// no protection key limits how many PMOs are held, so the 32-entry
// circular buffer fills. CONDAT and CONDDT on a PMO with no entry then
// fall back to system calls, and a real detach happens only for a PMO
// that is still mapped.
func TestBufferOverflowFallsBackToSystemCalls(t *testing.T) {
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
	cfg := params.NewConfig(params.TT, params.DefaultEWMicros)
	cfg.TEWTarget = 0
	rt := NewRuntime(cfg, mgr)
	ctx := rt.NewThread(sim.SingleThread())
	const n = params.CircularBufferEntries + 2
	ps := make([]*pmo.PMO, n)
	mapped := func() int {
		k := 0
		for _, p := range ps {
			if rt.as.Attached(p.ID) {
				k++
			}
		}
		return k
	}
	for i := range ps {
		p, err := mgr.Create(fmt.Sprintf("p%d", i), 1<<16, pmo.ModeRead|pmo.ModeWrite)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
		if err := ctx.Attach(p, paging.ReadWrite); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
	}
	if c := rt.Counts; c.AttachSyscalls != n || rt.cb.Live() != params.CircularBufferEntries || mapped() != n {
		t.Fatalf("after the attaches: %d attach syscalls, %d live entries, %d mapped; want %d, %d, %d",
			c.AttachSyscalls, rt.cb.Live(), mapped(), n, params.CircularBufferEntries, n)
	}
	if ctx.Now() != 632_632 {
		t.Fatalf("clock after the attaches = %d, want 632632", ctx.Now())
	}
	for i, p := range ps {
		if err := ctx.Detach(p); err != nil {
			t.Fatalf("detach %d: %v", i, err)
		}
	}
	if c := rt.Counts; c.DetachSyscalls != 26 || c.SilentOps != 24 {
		t.Fatalf("after the detaches: %d detach syscalls, %d fast path; want 26 and 24",
			c.DetachSyscalls, c.SilentOps)
	}
	// The rest are delayed detaches that the sweep has not reached yet.
	if rt.cb.Live() != 8 || mapped() != 8 {
		t.Fatalf("%d live entries, %d mapped; want 8 and 8", rt.cb.Live(), mapped())
	}
	if ctx.Now() != 1_529_472 {
		t.Fatalf("clock after the detaches = %d, want 1529472", ctx.Now())
	}
}

// TestBasicAttachGivesUp: under the Basic ablation a thread that attaches
// a PMO it already holds waits for a detach that never comes; after 2^22
// retries, each charging Other 200 cycles, the attach fails instead of
// spinning forever.
func TestBasicAttachGivesUp(t *testing.T) {
	rt, ctx, p := newEnv(t, params.BasicSem)
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Attach(p, paging.ReadWrite); err == nil {
		t.Fatal("a self-deadlocked Basic attach succeeded")
	}
	if rt.Counts.Blocks != 1<<22+1 || ctx.Now() != 838_865_422 {
		t.Fatalf("gave up after %d waits at clock %d; want %d at 838865422",
			rt.Counts.Blocks, ctx.Now(), 1<<22+1)
	}
}

// TestBasicAttachGivesUpOnMachine: on a machine, thread 0 attaches and
// returns still holding the PMO, so thread 1 waits for a detach that never
// comes, with its retries run by Machine.Run once thread 0 is done. After
// 2^22 retries its attach fails.
func TestBasicAttachGivesUpOnMachine(t *testing.T) {
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
	p, _ := mgr.Create("held", 1<<20, pmo.ModeRead|pmo.ModeWrite)
	rt := NewRuntime(params.NewConfig(params.BasicSem, params.DefaultEWMicros), mgr)
	m := sim.NewMachine(1, 200)
	rt.AttachMachine(m)
	errs := make([]error, 2)
	for i := range errs {
		m.AddThread(func(th *sim.Thread) {
			ctx := rt.NewThread(th)
			ctx.Compute(uint64(100 * i))
			errs[i] = ctx.Attach(p, paging.ReadWrite)
		})
	}
	end := m.Run()
	if errs[0] != nil {
		t.Fatalf("thread 0: %v", errs[0])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "deadlocked waiting for detach") {
		t.Fatalf("thread 1: %v, want a deadlock error", errs[1])
	}
	if rt.Counts.Blocks != 1<<22+1 || end != 838_861_100 {
		t.Fatalf("gave up after %d waits at clock %d; want %d at 838861100",
			rt.Counts.Blocks, end, 1<<22+1)
	}
}
