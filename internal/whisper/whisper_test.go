package whisper

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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
	res := runOne(t, params.TT, func() Workload { return &KV{row: hashmapRow} })
	if res.Counts.SilentPercent() < 70 {
		t.Fatalf("silent%% = %.1f, want most ops silent", res.Counts.SilentPercent())
	}
}

func TestTTExposureWindowNearTarget(t *testing.T) {
	res := runOne(t, params.TT, func() Workload { return &KV{row: redisRow} })
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
	res := runOne(t, params.TT, func() Workload { return &KV{row: hashmapRow} })
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
	res := runOne(t, params.MM, func() Workload { return &KV{row: hashmapRow} })
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

// overhead runs the workload under cfg and under the unprotected
// baseline with identical op streams and returns the relative
// execution-time overhead.
func overhead(t *testing.T, cfg params.Config, mk func() Workload) float64 {
	t.Helper()
	cycles := func(cfg params.Config) float64 {
		res, err := Run(cfg, mk, RunOpts{Ops: testOps})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Cycles)
	}
	base := cycles(params.Config{Scheme: params.Unprotected, Seed: cfg.Seed, EWTarget: cfg.EWTarget})
	return cycles(cfg)/base - 1
}

func TestOverheadOrderingTTvsMMvsTM(t *testing.T) {
	mk := func() Workload { return &KV{row: hashmapRow} }
	ovTT := overhead(t, params.NewConfig(params.TT, 40), mk)
	ovMM := overhead(t, params.NewConfig(params.MM, 40), mk)
	ovTM := overhead(t, params.NewConfig(params.TM, 40), mk)
	if !(ovTT < ovMM && ovMM < ovTM) {
		t.Fatalf("overhead ordering TT(%.3f) < MM(%.3f) < TM(%.3f) violated", ovTT, ovMM, ovTM)
	}
	if ovTT < 0 || ovTT > 0.5 {
		t.Fatalf("TT overhead %.3f out of plausible range", ovTT)
	}
}

func TestLargerEWLowersOverhead(t *testing.T) {
	mk := func() Workload { return &KV{row: ycsbRow} }
	ov40 := overhead(t, params.NewConfig(params.TT, 40), mk)
	ov160 := overhead(t, params.NewConfig(params.TT, 160), mk)
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
	var st store
	if err := st.open(mgr, "t", ctx); err != nil {
		t.Fatal(err)
	}
	p, log := st.p, st.log
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
	var st store
	if err := st.open(mgr, "t", ctx); err != nil {
		t.Fatal(err)
	}
	p, log := st.p, st.log
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
	var st store
	if err := st.open(mgr, "t", ctx); err != nil {
		t.Fatal(err)
	}
	p, log := st.p, st.log
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
func setupWorkload(t *testing.T, mk func() Workload) (Workload, *pmo.Manager) {
	t.Helper()
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 2*pmoSize))
	ctx := core.NewRuntime(unprotCfg(), mgr).NewThread(sim.SingleThread())
	w := mk()
	if err := w.Setup(mgr, ctx, rand.New(rand.NewSource(9))); err != nil {
		t.Fatal(err)
	}
	return w, mgr
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
	hashmap := func() Workload { return &KV{row: hashmapRow} }
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
		plant func(w Workload)
		want  string
	}{
		{"hash/key-out-of-range", hashmap, func(w Workload) {
			hm := w.(*KV)
			put(hm.p, hm.h.base+firstEmpty(hm.p, hm.h, 0)*16, kvKeys+999)
		}, "whisper: hash slot 0 key 66535 out of range"},
		{"hash/hole-before-displaced-key", hashmap, func(w Workload) {
			hm := w.(*KV)
			_, k := firstKey(hm.p, hm.h, true)
			put(hm.p, hm.h.base+(mix(k)&(hm.h.cap-1))*16, 0)
		}, "whisper: hash key 6434 at slot 88 hidden behind empty slot 87"},
		{"hash/duplicate-key", hashmap, func(w Workload) {
			hm := w.(*KV)
			s, k := firstKey(hm.p, hm.h, false)
			put(hm.p, hm.h.base+firstEmpty(hm.p, hm.h, s)*16, k)
		}, "whisper: hash key 29045 duplicated at slots 8 and 9"},
		{"tpcc/district-out-of-range", tpcc, func(w Workload) {
			tp := w.(*TPCC)
			put(tp.p, tp.orders.Offset()+3*24+8, 10)
		}, "whisper: tpcc order 3 district 10 out of range"},
		{"tpcc/customer-out-of-range", tpcc, func(w Workload) {
			tp := w.(*TPCC)
			put(tp.p, tp.orders.Offset()+5*24+16, 3000)
		}, "whisper: tpcc order 5 customer 3000 out of range"},
		{"tpcc/line-number-out-of-range", tpcc, func(w Workload) {
			tp := w.(*TPCC)
			put(tp.p, tp.lines.Offset()+7*16+8, 15)
		}, "whisper: tpcc line 7 number 15 out of range"},
		{"tpcc/orders-before-lines", tpcc, func(w Workload) {
			tp := w.(*TPCC)
			put(tp.p, tp.lines.Offset()+8, 99)
			put(tp.p, tp.orders.Offset()+(tp.nOrders-1)*24+16, 4000)
		}, "whisper: tpcc order 16383 customer 4000 out of range"},
		{"echo/record-key-out-of-range", echo, func(w Workload) {
			ec := w.(*Echo)
			area, _ := echoArea(ec)
			put(ec.p, area+2*24, ec.keys+1)
		}, "whisper: echo record 2 key 32769 out of range"},
		{"echo/version-ahead-of-counter", echo, func(w Workload) {
			ec := w.(*Echo)
			area, ver := echoArea(ec)
			put(ec.p, area+4*24, 1)
			put(ec.p, area+4*24+8, ver+2)
		}, "whisper: echo record 4 version 2 ahead of counter 0"},
		{"echo/index-at-misaligned-record", echo, func(w Workload) {
			ec := w.(*Echo)
			area, _ := echoArea(ec)
			slot := ec.h.base + (mix(5)&(ec.h.cap-1))*16
			put(ec.p, slot, 5)
			put(ec.p, slot+8, uint64(pmo.MakeOID(ec.p.ID, area+3*24+4)))
		}, "whisper: echo index key 5 points at bad record offset 1053812"},
		{"echo/records-before-index", echo, func(w Workload) {
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
// on the machine Run builds: the device image, its page count (ImageHash
// skips all-zero pages, so an added or missing zero page shows only
// here), the measured thread's clock and cost accounts, and the workload
// rng's next draw. The load phase is not timed, so none of these may
// change with how it runs.
func TestSetupStatePinned(t *testing.T) {
	want := map[string]string{
		"echo":    "image 5c32036dcc4b972ebc9afdcfd77d091352a9966c6667e4d4ce85317db935e687 pages 5 clock 0 costs [0 0 0 0 0 0] next 0x4d65822107fcfd52",
		"ycsb":    "image 890121fab95714fbecd11f05ed6829794a2db40be3cf8072307d3b13e695e7e7 pages 515 clock 0 costs [0 0 0 0 0 0] next 0x4d65822107fcfd52",
		"tpcc":    "image e86bf1bbb4b0d25fc826ddeee1b0ed2586e3471ca37791b5b4b92816328ef3cf pages 4 clock 0 costs [0 0 0 0 0 0] next 0x4d65822107fcfd52",
		"ctree":   "image 45d7280d081aaf91cd7a7412816c58835e43fd78522ea1dba8b8da70d75d1188 pages 83 clock 12779520 costs [12779520 0 0 0 0 0] next 0xa422cbfd828d02da",
		"hashmap": "image 988928ea9632ebafc01c637f13f6b43a03869b50470cc68c5222d7b86f4c2176 pages 515 clock 0 costs [0 0 0 0 0 0] next 0x4d65822107fcfd52",
		"redis":   "image 3345fe8d1a2f7d4fddeedc4a34701a2dc209b61aa9d8b84f65e561c49dbfdb1c pages 515 clock 0 costs [0 0 0 0 0 0] next 0x4d65822107fcfd52",
	}
	for _, mk := range All() {
		w := mk()
		t.Run(w.Name(), func(t *testing.T) {
			dev, mgr, ctx := newMeasured(params.TT)
			rng := rand.New(rand.NewSource(1))
			if err := w.Setup(mgr, ctx, rng); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("image %x pages %d clock %d costs %v next %#x",
				nvm.ImageHash(dev), dev.FootprintPages(), ctx.Now(), ctx.Thread().Costs, rng.Uint64())
			if got != want[w.Name()] {
				t.Errorf("post-Setup state\n got %s\nwant %s", got, want[w.Name()])
			}
		})
	}
}

// TestTreePreloadMatchesInserts: Tree.Preload(perm) leaves what the
// insert loop it replaces leaves, on the machine Run builds under base,
// MM, TM and TT: the device image and its page count, the measured
// thread's clock, cost accounts and every charge in order (the charge
// hook sees each Compute call), and the rng's next draw. The tree it
// builds passes Audit. TestSetupStatePinned pins one seed and the sums;
// this covers eight seeds, each charge, and trees of 0 to 3 keys, where
// the host builds none or few of the nodes.
func TestTreePreloadMatchesInserts(t *testing.T) {
	type state struct {
		image   [32]byte
		pages   int
		clock   uint64
		costs   sim.Accounts
		charges []uint64
		next    uint64
	}
	// build builds a tree of n keys in a fresh ctree PMO with preload, and
	// returns the machine's state and the tree.
	build := func(scheme params.Scheme, seed int64, n int, preload func(*Tree, *rand.Rand, int) error) (state, *Tree, *pmo.PMO) {
		dev, mgr, ctx := newMeasured(scheme)
		var charges []uint64
		ctx.Thread().ChargeHook = func(a sim.Account, c uint64) {
			charges = append(charges, uint64(a)<<56|c)
		}
		var st store
		if err := st.open(mgr, "whisper.ctree", ctx); err != nil {
			t.Fatal(err)
		}
		tr, err := NewTree(st.p, st.log)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		if err := preload(tr, rng, n); err != nil {
			t.Fatal(err)
		}
		return state{nvm.ImageHash(dev), dev.FootprintPages(), ctx.Now(),
			ctx.Thread().Costs, charges, rng.Uint64()}, tr, st.p
	}
	loop := func(tr *Tree, rng *rand.Rand, n int) error {
		for _, k := range rng.Perm(n) {
			if err := tr.Insert(untimed{tr.p}, uint64(k)+1, uint64(k)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, scheme := range []params.Scheme{params.Unprotected, params.MM, params.TM, params.TT} {
		for _, n := range []int{0, 1, 2, 3, 100, 8192} {
			for seed := int64(1); seed <= 8; seed++ {
				want, _, _ := build(scheme, seed, n, loop)
				if len(want.charges) != 5*n {
					t.Fatalf("%s: the insert loop of %d keys made %d charges, want 5 a key", scheme, n, len(want.charges))
				}
				got, tr, p := build(scheme, seed, n, (*Tree).Preload)
				if got.image != want.image || got.pages != want.pages || got.clock != want.clock ||
					got.costs != want.costs || got.next != want.next {
					t.Errorf("%s, %d keys, seed %d: Preload leaves image %x pages %d clock %d costs %v next %#x;"+
						" the insert loop image %x pages %d clock %d costs %v next %#x",
						scheme, n, seed, got.image, got.pages, got.clock, got.costs, got.next,
						want.image, want.pages, want.clock, want.costs, want.next)
				}
				if !slices.Equal(got.charges, want.charges) {
					t.Errorf("%s, %d keys, seed %d: Preload made %d charges, the insert loop %d, or in another order",
						scheme, n, seed, len(got.charges), len(want.charges))
				}
				if err := tr.Audit(p, uint64(n)); err != nil {
					t.Errorf("%s, %d keys, seed %d: %v", scheme, n, seed, err)
				}
			}
		}
	}
}

// TestTreePreloadRefusesNonEmptyTree: Preload into a tree that holds a key
// fails before it writes anything.
func TestTreePreloadRefusesNonEmptyTree(t *testing.T) {
	dev, mgr, ctx := newMeasured(params.TT)
	var st store
	if err := st.open(mgr, "whisper.ctree", ctx); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(st.p, st.log)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(untimed{st.p}, 7, 7); err != nil {
		t.Fatal(err)
	}
	before := nvm.ImageHash(dev)
	want := "whisper: preload into a tree that is not empty"
	if err := tr.Preload(rand.New(rand.NewSource(1)), 3); err == nil || err.Error() != want {
		t.Fatalf("Preload into a tree holding a key: %v, want %q", err, want)
	}
	if nvm.ImageHash(dev) != before {
		t.Fatal("the refused Preload changed the device")
	}
}

// TestPreloadSameAtEverySeed checks the premise Hash.Preload's memo
// rests on: hashmap, redis and ycsb leave the same device image and page
// count after Setup at every seed. The twelve Setups run at once, so the
// memo's first builds race each other.
func TestPreloadSameAtEverySeed(t *testing.T) {
	type state struct {
		image [32]byte
		pages int
	}
	mks := []func() Workload{
		func() Workload { return &KV{row: hashmapRow} },
		func() Workload { return &KV{row: redisRow} },
		func() Workload { return &KV{row: ycsbRow} },
	}
	got := make([][4]state, len(mks))
	var wg sync.WaitGroup
	for i, mk := range mks {
		for seed := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dev, mgr, ctx := newMeasured(params.TT)
				if err := mk().Setup(mgr, ctx, rand.New(rand.NewSource(int64(seed+1)))); err != nil {
					t.Error(err)
					return
				}
				got[i][seed] = state{nvm.ImageHash(dev), dev.FootprintPages()}
			}()
		}
	}
	wg.Wait()
	for i, mk := range mks {
		for seed := 1; seed < 4; seed++ {
			if got[i][seed] != got[i][0] {
				t.Errorf("%s: seed %d leaves image %x over %d pages, seed 1 %x over %d",
					mk().Name(), seed+1, got[i][seed].image, got[i][seed].pages, got[i][0].image, got[i][0].pages)
			}
		}
	}
}

// TestPreloadStopsWhenFull: like Put, Preload gives up once it has probed
// every slot. Four keys fill a 4-slot table; a fifth returns the error
// Put returns instead of probing forever.
func TestPreloadStopsWhenFull(t *testing.T) {
	table := func() (*Hash, *core.ThreadCtx) {
		_, mgr, ctx := newMeasured(params.TT)
		var st store
		if err := st.open(mgr, "t", ctx); err != nil {
			t.Fatal(err)
		}
		p, log := st.p, st.log
		if err := ctx.Attach(p, paging.ReadWrite); err != nil {
			t.Fatal(err)
		}
		h, err := NewHash(p, 4, log)
		if err != nil {
			t.Fatal(err)
		}
		return h, ctx
	}
	h, ctx := table()
	if err := h.Preload(4, 5); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		if v, ok, err := h.Get(ctx, k); err != nil || !ok || v != 5*k {
			t.Fatalf("key %d after the preload: %d, %v, %v; want %d", k, v, ok, err, 5*k)
		}
	}
	if err := h.Put(ctx, 9, 1); err == nil || err.Error() != "whisper: hash full" {
		t.Fatalf("Put into the full table: %v, want whisper: hash full", err)
	}
	h, _ = table()
	if err := h.Preload(5, 5); err == nil || err.Error() != "whisper: hash full" {
		t.Fatalf("Preload of 5 keys into 4 slots: %v, want whisper: hash full", err)
	}
}

// newMeasured builds the machine Run builds for a run of the scheme at
// the default exposure window: a 2 GB NVM device, its manager and the
// measured thread.
func newMeasured(scheme params.Scheme) (*nvm.Device, *pmo.Manager, *core.ThreadCtx) {
	dev := nvm.NewDevice(nvm.NVM, 2*pmoSize)
	mgr := pmo.NewManager(dev)
	rt := core.NewRuntime(params.NewConfig(scheme, params.DefaultEWMicros), mgr)
	return dev, mgr, rt.NewThread(sim.SingleThread())
}
