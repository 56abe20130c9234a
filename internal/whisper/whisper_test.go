package whisper

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
	"repro/internal/txn"
)

const testOps = 1500

// unprotCfg is the unprotected configuration the structure tests run
// their contexts under.
func unprotCfg() params.Config {
	return params.NewConfig(params.Unprotected, params.DefaultEWMicros)
}

func runOne(t *testing.T, scheme params.Scheme, mk func() Workload) core.Result {
	t.Helper()
	cfg := params.NewConfig(scheme, params.DefaultEWMicros)
	res, err := Run(cfg, mk, RunOpts{Ops: testOps})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllWorkloadsRunUnderTT(t *testing.T) {
	for _, mk := range All() {
		mk := mk
		name := mk().Name()
		t.Run(name, func(t *testing.T) {
			res := runOne(t, params.TT, mk)
			if res.Counts.Faults != 0 {
				t.Fatalf("faults = %d", res.Counts.Faults)
			}
			if res.Counts.CondOps != 2*testOps {
				t.Fatalf("cond ops = %d, want %d", res.Counts.CondOps, 2*testOps)
			}
			if res.Exposure.EWCount == 0 {
				t.Fatal("no exposure windows")
			}
		})
	}
}

func TestTTSilentFractionHigh(t *testing.T) {
	res := runOne(t, params.TT, func() Workload { return NewHashmap() })
	if res.Counts.SilentPercent() < 70 {
		t.Fatalf("silent%% = %.1f, want most ops silent", res.Counts.SilentPercent())
	}
}

func TestTTExposureWindowNearTarget(t *testing.T) {
	res := runOne(t, params.TT, func() Workload { return NewRedis() })
	target := params.ToMicros(params.Micros(params.DefaultEWMicros))
	avg := params.ToMicros(uint64(res.Exposure.AvgEW))
	max := params.ToMicros(uint64(res.Exposure.MaxEW))
	// Stable windows near the target: avg within [50%, 120%], max
	// bounded by target plus sweep and idle slack.
	if avg < 0.5*target || avg > 1.2*target {
		t.Fatalf("avg EW %.1fus vs target %.1fus", avg, target)
	}
	if max > 1.5*target {
		t.Fatalf("max EW %.1fus vs target %.1fus", max, target)
	}
}

func TestTTThreadExposureTiny(t *testing.T) {
	res := runOne(t, params.TT, func() Workload { return NewHashmap() })
	if res.Exposure.TEWCount == 0 {
		t.Fatal("no TEWs")
	}
	avgTEW := params.ToMicros(uint64(res.Exposure.AvgTEW))
	if avgTEW > params.DefaultTEWMicros*2 {
		t.Fatalf("avg TEW %.2fus exceeds target x2", avgTEW)
	}
	if res.Exposure.TER >= res.Exposure.ER {
		t.Fatalf("TER %.3f should be far below ER %.3f", res.Exposure.TER, res.Exposure.ER)
	}
}

func TestMMWindowsUnstableAndBelowTarget(t *testing.T) {
	res := runOne(t, params.MM, func() Workload { return NewHashmap() })
	target := float64(params.Micros(params.DefaultEWMicros))
	if res.Exposure.AvgEW >= target {
		t.Fatalf("MM avg EW %.0f should sit below target %.0f", res.Exposure.AvgEW, target)
	}
	if res.Exposure.TEWCount != 0 {
		t.Fatal("MM must not record TEWs")
	}
	if res.Counts.SilentOps != 0 {
		t.Fatal("MM has no conditional ops")
	}
}

func TestOverheadOrderingTTvsMMvsTM(t *testing.T) {
	mk := func() Workload { return NewHashmap() }
	ovTT, _, _, err := Overhead(params.NewConfig(params.TT, 40), mk, RunOpts{Ops: testOps})
	if err != nil {
		t.Fatal(err)
	}
	ovMM, _, _, err := Overhead(params.NewConfig(params.MM, 40), mk, RunOpts{Ops: testOps})
	if err != nil {
		t.Fatal(err)
	}
	ovTM, _, _, err := Overhead(params.NewConfig(params.TM, 40), mk, RunOpts{Ops: testOps})
	if err != nil {
		t.Fatal(err)
	}
	if !(ovTT < ovMM && ovMM < ovTM) {
		t.Fatalf("overhead ordering TT(%.3f) < MM(%.3f) < TM(%.3f) violated", ovTT, ovMM, ovTM)
	}
	if ovTT < 0 || ovTT > 0.5 {
		t.Fatalf("TT overhead %.3f out of plausible range", ovTT)
	}
}

func TestLargerEWLowersOverhead(t *testing.T) {
	mk := func() Workload { return NewYCSB() }
	ov40, _, _, err := Overhead(params.NewConfig(params.TT, 40), mk, RunOpts{Ops: testOps})
	if err != nil {
		t.Fatal(err)
	}
	ov160, _, _, err := Overhead(params.NewConfig(params.TT, 160), mk, RunOpts{Ops: testOps})
	if err != nil {
		t.Fatal(err)
	}
	if ov160 > ov40+0.005 {
		t.Fatalf("overhead did not drop with larger EW: 40us=%.4f 160us=%.4f", ov40, ov160)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() Workload { return NewTPCC() }
	a, err := Run(params.NewConfig(params.TT, 40), mk, RunOpts{Ops: 500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(params.NewConfig(params.TT, 40), mk, RunOpts{Ops: 500})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Counts != b.Counts {
		t.Fatalf("non-deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"echo", "ycsb", "tpcc", "ctree", "hashmap", "redis"} {
		mk, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if mk().Name() != name {
			t.Fatalf("ByName(%q) returned %q", name, mk().Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestHashCorrectness(t *testing.T) {
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 2*pmoSize))
	rt := core.NewRuntime(unprotCfg(), mgr)
	ctx := rt.NewThread(sim.SingleThread())
	p, log, _, err := setupCommon(mgr, "t", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Attach(p, 3); err != nil {
		t.Fatal(err)
	}
	h, err := NewHash(p, 1<<10, log)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		k := uint64(r.Intn(300)) + 1
		v := r.Uint64()
		if err := h.Put(ctx, k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for k, v := range want {
		got, ok, err := h.Get(ctx, k)
		if err != nil || !ok || got != v {
			t.Fatalf("get %d = %d,%v,%v want %d", k, got, ok, err, v)
		}
	}
	if _, ok, _ := h.Get(ctx, 999999); ok {
		t.Fatal("missing key found")
	}
}

func TestTreeCorrectness(t *testing.T) {
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 2*pmoSize))
	rt := core.NewRuntime(unprotCfg(), mgr)
	ctx := rt.NewThread(sim.SingleThread())
	p, log, _, err := setupCommon(mgr, "t", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Attach(p, 3); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(p, log)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{}
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 400; i++ {
		k := uint64(r.Intn(200)) + 1
		v := r.Uint64()
		if err := tr.Insert(ctx, k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for k, v := range want {
		got, ok, err := tr.Lookup(ctx, k)
		if err != nil || !ok || got != v {
			t.Fatalf("lookup %d = %d,%v,%v want %d", k, got, ok, err, v)
		}
	}
	if _, ok, _ := tr.Lookup(ctx, 5000); ok {
		t.Fatal("missing key found")
	}
}

func TestHashRejectsBadCapacity(t *testing.T) {
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 2*pmoSize))
	rt := core.NewRuntime(unprotCfg(), mgr)
	ctx := rt.NewThread(sim.SingleThread())
	p, log, _, err := setupCommon(mgr, "t", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHash(p, 100, log); err == nil {
		t.Fatal("non-power-of-two capacity accepted")
	}
}

// TestCrashInjectionDuringPuts crashes the machine at random points in a
// stream of transactional puts and checks that recovery always leaves the
// table consistent: every committed key still reads its committed value
// and no torn entry survives.
func TestCrashInjectionDuringPuts(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		dev := nvm.NewDevice(nvm.NVM, 2*pmoSize)
		mgr := pmo.NewManager(dev)
		rt := core.NewRuntime(unprotCfg(), mgr)
		ctx := rt.NewThread(sim.SingleThread())
		p, err := mgr.Create("crash", 1<<22, pmo.ModeRead|pmo.ModeWrite)
		if err != nil {
			t.Fatal(err)
		}
		log, logOID, err := txn.NewLog(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		log.SetSink(ctx)
		if err := ctx.Attach(p, paging.ReadWrite); err != nil {
			t.Fatal(err)
		}
		h, err := NewHash(p, 1<<10, log)
		if err != nil {
			t.Fatal(err)
		}
		committed := map[uint64]uint64{}
		crashAfter := r.Intn(40)
		for i := 0; i <= crashAfter; i++ {
			k := uint64(r.Intn(100)) + 1
			v := r.Uint64()
			if i == crashAfter {
				// Begin the transaction but crash before commit:
				// log the key write only, leaving a torn state
				// that recovery must undo.
				if err := log.Begin(); err != nil {
					t.Fatal(err)
				}
				slot := h.slot(mix(k))
				if err := log.Write(slot, k); err != nil {
					t.Fatal(err)
				}
				break
			}
			if err := h.Put(ctx, k, v); err != nil {
				t.Fatal(err)
			}
			committed[k] = v
		}

		// Crash: volatile state gone, NVM intact. Recover the log.
		log2, err := txn.OpenLog(p, logOID, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log2.Recover(); err != nil {
			t.Fatal(err)
		}
		h2 := &Hash{p: p, base: h.base, cap: h.cap, log: log2}
		for k, v := range committed {
			got, ok, err := h2.Get(ctx, k)
			if err != nil || !ok || got != v {
				t.Fatalf("trial %d: committed key %d = %d,%v,%v want %d",
					trial, k, got, ok, err, v)
			}
		}
	}
}

func TestWorkloadCharacterDifferences(t *testing.T) {
	// The six workloads must be genuinely different programs, visible
	// in their exposure characters: redis (read-mostly, busy) runs more
	// ops per unit time than tpcc (multi-write transactions), and
	// write-heavy workloads make more attach requests with write
	// permission (observable through higher persistence cost).
	results := map[string]core.Result{}
	for _, mk := range All() {
		w := mk()
		res, err := Run(params.NewConfig(params.TT, 40), mk, RunOpts{Ops: 800})
		if err != nil {
			t.Fatal(err)
		}
		results[w.Name()] = res
	}
	if results["redis"].CondFreqPerSec() <= results["tpcc"].CondFreqPerSec() {
		t.Fatalf("redis (%f/s) should issue ops faster than tpcc (%f/s)",
			results["redis"].CondFreqPerSec(), results["tpcc"].CondFreqPerSec())
	}
	// All six must produce distinct cycle counts (not clones).
	seen := map[uint64]string{}
	for name, res := range results {
		if prev, dup := seen[res.Cycles]; dup {
			t.Fatalf("%s and %s have identical cycle counts", name, prev)
		}
		seen[res.Cycles] = name
	}
}

// setupWorkload runs a workload's Setup on a fresh machine and returns
// the pieces the audit tests need.
func setupWorkload(t *testing.T, mk func() Workload) (Recoverable, *pmo.Manager) {
	t.Helper()
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 2*pmoSize))
	ctx := core.NewRuntime(unprotCfg(), mgr).NewThread(sim.SingleThread())
	w := mk()
	if err := w.Setup(mgr, ctx, rand.New(rand.NewSource(9))); err != nil {
		t.Fatal(err)
	}
	r, ok := w.(Recoverable)
	if !ok {
		t.Fatalf("%s does not implement Recoverable", w.Name())
	}
	return r, mgr
}

func TestAllWorkloadsAreRecoverable(t *testing.T) {
	for _, mk := range All() {
		mk := mk
		t.Run(mk().Name(), func(t *testing.T) {
			w, _ := setupWorkload(t, mk)
			if w.LogOID().IsNil() {
				t.Fatal("nil log OID")
			}
			if _, err := txn.OpenLog(w.PMO(), w.LogOID(), LogCapacity); err != nil {
				t.Fatalf("log not openable at its OID: %v", err)
			}
			if err := w.CheckInvariants(w.PMO()); err != nil {
				t.Fatalf("fresh workload fails its own invariants: %v", err)
			}
		})
	}
}

// TestAuditReportsFirstViolation plants corruptions in freshly set-up
// workloads and pins the exact error each audit reports first, so a
// rewrite of an audit keeps both its checks and their order. A case that
// plants two violations pins which check runs first.
func TestAuditReportsFirstViolation(t *testing.T) {
	// firstEmpty returns the first empty slot of h at or after slot s.
	firstEmpty := func(p *pmo.PMO, h *Hash, s uint64) uint64 {
		for ; ; s++ {
			if k, _ := p.Read8(h.base + (s&(h.cap-1))*16); k == 0 {
				return s & (h.cap - 1)
			}
		}
	}
	// firstKey returns the first occupied slot of h whose key is
	// displaced from its home slot (displaced) or sits at it (!displaced).
	firstKey := func(p *pmo.PMO, h *Hash, displaced bool) (slot, key uint64) {
		for s := uint64(0); s < h.cap; s++ {
			k, _ := p.Read8(h.base + s*16)
			if k != 0 && (mix(k)&(h.cap-1) != s) == displaced {
				return s, k
			}
		}
		t.Fatal("no such key in the preload")
		return 0, 0
	}
	put := func(p *pmo.PMO, off, v uint64) {
		if err := p.Write8(off, v); err != nil {
			t.Fatal(err)
		}
	}
	hashmap := func() Workload { return NewHashmap() }
	tpcc := func() Workload { return NewTPCC() }
	echo := func() Workload { return NewEcho() }
	// echoArea returns the record area's offset and version counter.
	echoArea := func(w *Echo) (area, ver uint64) {
		raw, _ := w.p.Read8(w.logOff.Offset())
		ver, _ = w.p.Read8(w.logOff.Offset() + 8)
		return pmo.OID(raw).Offset(), ver
	}
	for _, tc := range []struct {
		name  string
		mk    func() Workload
		plant func(w Recoverable)
		want  string
	}{
		{"hash/key-out-of-range", hashmap, func(w Recoverable) {
			hm := w.(*Hashmap)
			put(hm.p, hm.h.base+firstEmpty(hm.p, hm.h, 0)*16, hm.keys+999)
		}, "whisper: hash slot 0 key 66535 out of range"},
		{"hash/hole-before-displaced-key", hashmap, func(w Recoverable) {
			hm := w.(*Hashmap)
			_, k := firstKey(hm.p, hm.h, true)
			put(hm.p, hm.h.base+(mix(k)&(hm.h.cap-1))*16, 0)
		}, "whisper: hash key 6434 at slot 88 hidden behind empty slot 87"},
		{"hash/duplicate-key", hashmap, func(w Recoverable) {
			hm := w.(*Hashmap)
			s, k := firstKey(hm.p, hm.h, false)
			put(hm.p, hm.h.base+firstEmpty(hm.p, hm.h, s)*16, k)
		}, "whisper: hash key 29045 duplicated at slots 8 and 9"},
		{"tpcc/district-out-of-range", tpcc, func(w Recoverable) {
			tp := w.(*TPCC)
			put(tp.p, tp.orders.Offset()+3*24+8, 10)
		}, "whisper: tpcc order 3 district 10 out of range"},
		{"tpcc/customer-out-of-range", tpcc, func(w Recoverable) {
			tp := w.(*TPCC)
			put(tp.p, tp.orders.Offset()+5*24+16, 3000)
		}, "whisper: tpcc order 5 customer 3000 out of range"},
		{"tpcc/line-number-out-of-range", tpcc, func(w Recoverable) {
			tp := w.(*TPCC)
			put(tp.p, tp.lines.Offset()+7*16+8, 15)
		}, "whisper: tpcc line 7 number 15 out of range"},
		{"tpcc/orders-before-lines", tpcc, func(w Recoverable) {
			tp := w.(*TPCC)
			put(tp.p, tp.lines.Offset()+8, 99)
			put(tp.p, tp.orders.Offset()+(tp.nOrders-1)*24+16, 4000)
		}, "whisper: tpcc order 16383 customer 4000 out of range"},
		{"echo/record-key-out-of-range", echo, func(w Recoverable) {
			ec := w.(*Echo)
			area, _ := echoArea(ec)
			put(ec.p, area+2*24, ec.keys+1)
		}, "whisper: echo record 2 key 32769 out of range"},
		{"echo/version-ahead-of-counter", echo, func(w Recoverable) {
			ec := w.(*Echo)
			area, ver := echoArea(ec)
			put(ec.p, area+4*24, 1)
			put(ec.p, area+4*24+8, ver+2)
		}, "whisper: echo record 4 version 2 ahead of counter 0"},
		{"echo/index-at-misaligned-record", echo, func(w Recoverable) {
			ec := w.(*Echo)
			area, _ := echoArea(ec)
			slot := ec.h.base + (mix(5)&(ec.h.cap-1))*16
			put(ec.p, slot, 5)
			put(ec.p, slot+8, uint64(pmo.MakeOID(ec.p.ID, area+3*24+4)))
		}, "whisper: echo index key 5 points at bad record offset 1053812"},
		{"echo/records-before-index", echo, func(w Recoverable) {
			ec := w.(*Echo)
			area, ver := echoArea(ec)
			slot := ec.h.base + (mix(7)&(ec.h.cap-1))*16
			put(ec.p, slot, 7)
			put(ec.p, slot+8, uint64(pmo.MakeOID(ec.p.ID, area+1)))
			last := (ec.keys*8*8/24 - 1) * 24
			put(ec.p, area+last, 7)
			put(ec.p, area+last+8, ver+5)
		}, "whisper: echo record 87380 version 5 ahead of counter 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := setupWorkload(t, tc.mk)
			if err := w.CheckInvariants(w.PMO()); err != nil {
				t.Fatalf("before the plant: %v", err)
			}
			tc.plant(w)
			err := w.CheckInvariants(w.PMO())
			if err == nil || err.Error() != tc.want {
				t.Fatalf("audit error %v, want %q", err, tc.want)
			}
			// The audit reads the structure in place: a second run over
			// the same state reports the same violation.
			if again := w.CheckInvariants(w.PMO()); again == nil || again.Error() != err.Error() {
				t.Fatalf("second audit %v, first %v", again, err)
			}
		})
	}
}

func TestTreeAuditDetectsCorruption(t *testing.T) {
	w, _ := setupWorkload(t, func() Workload { return NewCtree() })
	ct := w.(*Ctree)
	p := ct.PMO()
	rootRaw, _ := p.Read8(ct.t.root.Offset())
	root := pmo.OID(rootRaw)
	// Point the root's left child back at the root: cycle + BST breach.
	if err := p.Write8(root.Offset()+nodeLeft, uint64(root)); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckInvariants(p); err == nil {
		t.Fatal("tree cycle not detected")
	}
}

// TestSetupStatePinned pins each workload's state after Setup at seed 1
// on the machine Run builds: the device image, the measured thread's
// clock and cost accounts, and the workload rng's next draw. The load
// phase is not timed, so none of these may change with how it runs.
func TestSetupStatePinned(t *testing.T) {
	want := map[string]string{
		"echo":    "image 5c32036dcc4b972ebc9afdcfd77d091352a9966c6667e4d4ce85317db935e687 clock 0 costs [0 0 0 0 0 0] next 0x4d65822107fcfd52",
		"ycsb":    "image 890121fab95714fbecd11f05ed6829794a2db40be3cf8072307d3b13e695e7e7 clock 0 costs [0 0 0 0 0 0] next 0x4d65822107fcfd52",
		"tpcc":    "image e86bf1bbb4b0d25fc826ddeee1b0ed2586e3471ca37791b5b4b92816328ef3cf clock 0 costs [0 0 0 0 0 0] next 0x4d65822107fcfd52",
		"ctree":   "image 45d7280d081aaf91cd7a7412816c58835e43fd78522ea1dba8b8da70d75d1188 clock 12779520 costs [12779520 0 0 0 0 0] next 0xa422cbfd828d02da",
		"hashmap": "image 988928ea9632ebafc01c637f13f6b43a03869b50470cc68c5222d7b86f4c2176 clock 0 costs [0 0 0 0 0 0] next 0x4d65822107fcfd52",
		"redis":   "image 3345fe8d1a2f7d4fddeedc4a34701a2dc209b61aa9d8b84f65e561c49dbfdb1c clock 0 costs [0 0 0 0 0 0] next 0x4d65822107fcfd52",
	}
	for _, mk := range All() {
		w := mk()
		t.Run(w.Name(), func(t *testing.T) {
			dev, mgr, ctx := newMeasured()
			rng := rand.New(rand.NewSource(1))
			if err := w.Setup(mgr, ctx, rng); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("image %x clock %d costs %v next %#x",
				nvm.ImageHash(dev.Snapshot()), ctx.Now(), ctx.Thread().Costs, rng.Uint64())
			if got != want[w.Name()] {
				t.Errorf("post-Setup state\n got %s\nwant %s", got, want[w.Name()])
			}
		})
	}
}

// newMeasured builds the machine Run builds for a TT run at the default
// exposure window: a 2 GB NVM device, its manager and the measured
// thread.
func newMeasured() (*nvm.Device, *pmo.Manager, *core.ThreadCtx) {
	dev := nvm.NewDevice(nvm.NVM, 2*pmoSize)
	mgr := pmo.NewManager(dev)
	rt := core.NewRuntime(params.NewConfig(params.TT, params.DefaultEWMicros), mgr)
	return dev, mgr, rt.NewThread(sim.SingleThread())
}
