package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
)

// newObsEnv builds a runtime with observability enabled before the
// first thread exists (EnableObs must precede NewThread).
func newObsEnv(t *testing.T, scheme params.Scheme, cfg obs.Config) (*Runtime, *ThreadCtx, *pmo.PMO) {
	t.Helper()
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
	p, err := mgr.Create("test", 1<<20, pmo.ModeRead|pmo.ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(params.NewConfig(scheme, params.DefaultEWMicros), mgr)
	rt.EnableObs(cfg)
	ctx := rt.NewThread(sim.SingleThread())
	return rt, ctx, p
}

// drive runs a small attach/store/load/detach workload.
func drive(t *testing.T, ctx *ThreadCtx, p *pmo.PMO) {
	t.Helper()
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	o, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := ctx.Store(o, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.Load(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctx.Detach(p); err != nil {
		t.Fatal(err)
	}
}

func TestEnableObsTraceCollectsAcrossCategories(t *testing.T) {
	rt, ctx, p := newObsEnv(t, params.TT, obs.Config{Trace: true})
	drive(t, ctx, p)
	res := rt.Finish(ctx.Now())

	if res.Obs == nil {
		t.Fatal("no payload")
	}
	ev := res.Obs.Events
	if len(ev) == 0 {
		t.Fatal("no events recorded")
	}
	cats := map[obs.Cat]int{}
	for _, e := range ev {
		cats[e.Cat]++
	}
	// A TT attach/detach run must at least exercise the protection
	// events (CatCore), the syscall spans (also CatCore), the exposure
	// windows (CatExpo) and the TLB walks (CatPaging).
	for _, c := range []obs.Cat{obs.CatCore, obs.CatExpo, obs.CatPaging} {
		if cats[c] == 0 {
			t.Errorf("no events in category %v (have %v)", c, cats)
		}
	}
	// Sync spans balance per thread: every Begin has a matching End.
	depth := map[int]int{}
	for _, e := range ev {
		switch e.Type {
		case obs.Begin:
			depth[e.Thread]++
		case obs.End:
			depth[e.Thread]--
			if depth[e.Thread] < 0 {
				t.Fatalf("End without Begin on thread %d at ts=%d", e.Thread, e.TS)
			}
		}
	}
	for th, d := range depth {
		if d != 0 {
			t.Errorf("thread %d: %d unclosed spans", th, d)
		}
	}
	// Async exposure-window spans balance too (Finish drains open ones).
	open := map[string]int{}
	for _, e := range ev {
		key := e.Name + "/" + string(rune(e.Arg))
		switch e.Type {
		case obs.AsyncBegin:
			open[key]++
		case obs.AsyncEnd:
			open[key]--
		}
	}
	for k, d := range open {
		if d != 0 {
			t.Errorf("async span %q unbalanced by %d", k, d)
		}
	}
}

func TestObsSnapshotMatchesRuntimeCounts(t *testing.T) {
	// MM: its detach path always performs the real detach with a TLB
	// shootdown (TT defers detaches to the sweep).
	rt, ctx, p := newObsEnv(t, params.MM, obs.Config{Metrics: true})
	drive(t, ctx, p)
	res := rt.Finish(ctx.Now())

	if res.Obs == nil || res.Obs.Metrics == nil {
		t.Fatal("no snapshot")
	}
	s := res.Obs.Metrics
	checks := map[string]uint64{
		"core/attach_syscalls": res.Counts.AttachSyscalls,
		"core/detach_syscalls": res.Counts.DetachSyscalls,
		"core/cond_ops":        res.Counts.CondOps,
		"core/faults":          res.Counts.Faults,
		"merr/checks":          rt.matrix.Checks,
	}
	for name, want := range checks {
		if got := s.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for a := sim.Base; a <= sim.Other; a++ {
		if got := s.Get("sim/cycles/" + a.String()); got != ctx.th.Costs[a] {
			t.Errorf("sim/cycles/%s = %d, want %d", a, got, ctx.th.Costs[a])
		}
	}
	// The detach path invalidates the TLB; the flush counter must show it.
	if s.Get("paging/tlb/flushes") == 0 {
		t.Error("detach did not record a TLB flush")
	}
	if s.Get("paging/tlb/misses") == 0 {
		t.Error("no TLB misses recorded")
	}
	// Charge histograms saw every charge: total observed cycles equals
	// the thread's cost tally.
	var histSum, costSum uint64
	for a := sim.Base; a <= sim.Other; a++ {
		if h := s.Hists["sim/charge/"+a.String()]; h != nil {
			histSum += h.Sum
		}
		costSum += ctx.th.Costs[a]
	}
	if histSum != costSum {
		t.Errorf("charge hist sum = %d, cost sum = %d", histSum, costSum)
	}
}

func TestObsSnapshotNilWhenMetricsOff(t *testing.T) {
	rt, ctx, p := newObsEnv(t, params.TT, obs.Config{Trace: true})
	drive(t, ctx, p)
	res := rt.Finish(ctx.Now())
	if res.Obs == nil {
		t.Fatal("no payload with tracing on")
	}
	if s := res.Obs.Metrics; s != nil {
		t.Fatalf("snapshot with metrics off: %v", s)
	}
}

// TestFinishTwiceGivesEqualPayloads: the end-of-run snapshot is built on
// a copy, so a second Finish neither adds the end-of-run counters to the
// runtime's own snapshot again nor returns a different payload.
func TestFinishTwiceGivesEqualPayloads(t *testing.T) {
	rt, ctx, p := newObsEnv(t, params.TT, obs.Config{Trace: true, Metrics: true})
	drive(t, ctx, p)
	first := rt.Finish(ctx.Now())
	if first.Obs == nil || first.Obs.Metrics.Get("sim/cycles/base") == 0 || len(first.Obs.Events) == 0 {
		t.Fatalf("first payload is empty: %+v", first.Obs)
	}
	// Marshal before the second call: a payload that aliases the
	// runtime's snapshot would change under it.
	want, err := json.Marshal(first.Obs)
	if err != nil {
		t.Fatal(err)
	}
	second := rt.Finish(ctx.Now())
	got, err := json.Marshal(second.Obs)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("second Finish returned another payload:\nfirst  %s\nsecond %s", want, got)
	}
	if !reflect.DeepEqual(first.Obs.Events, second.Obs.Events) {
		t.Fatal("second Finish returned other events")
	}
}

// TestObsDoesNotPerturbCharges is the "observer effect" guard: the same
// workload with and without full observability charges identical cycles.
func TestObsDoesNotPerturbCharges(t *testing.T) {
	run := func(cfg obs.Config) sim.Accounts {
		mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<30))
		p, err := mgr.Create("test", 1<<20, pmo.ModeRead|pmo.ModeWrite)
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRuntime(params.NewConfig(params.TT, params.DefaultEWMicros), mgr)
		rt.EnableObs(cfg)
		ctx := rt.NewThread(sim.SingleThread())
		drive(t, ctx, p)
		// A payload comes back exactly when something was collected.
		if res := rt.Finish(ctx.Now()); (res.Obs != nil) != cfg.Enabled() {
			t.Fatalf("payload %+v with %+v", res.Obs, cfg)
		}
		return ctx.th.Costs
	}
	plain := run(obs.Config{})
	full := run(obs.Config{Trace: true, Metrics: true})
	if plain != full {
		t.Fatalf("observability changed charges:\nplain: %v\nfull:  %v", plain, full)
	}
}

// TestTraceRecordsProtectionEvents: with tracing on, the runtime's
// attach, grant, revoke and fault events land on the recorder as CatCore
// instants named attach, grant, revoke and FAULT, in time order.
func TestTraceRecordsProtectionEvents(t *testing.T) {
	rt, ctx, p := newObsEnv(t, params.TT, obs.Config{Trace: true})
	if err := ctx.Attach(p, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	o, _ := p.Alloc(8)
	if err := ctx.Store(o, 1); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Detach(p); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Load(o); !IsFault(err, ThreadPermFault) {
		t.Fatalf("expected fault, got %v", err)
	}
	events := obs.FilterInstants(obs.Instants(rt.Finish(ctx.Now()).Obs.Events), obs.CatCore, "")
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[string]bool{}
	for i, e := range events {
		kinds[e.Name] = true
		if i > 0 && e.TS < events[i-1].TS {
			t.Fatal("events out of order")
		}
	}
	for _, want := range []string{"attach", "grant", "revoke", "FAULT"} {
		if !kinds[want] {
			t.Fatalf("missing %s in trace (have %v)", want, kinds)
		}
	}
}
