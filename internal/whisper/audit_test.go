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
	"repro/internal/pmo"
	"repro/internal/sim"
	"repro/internal/txn"
)

// A plant is a corruption: words written at PMO offsets, in order.
type plant []struct{ off, v uint64 }

// apply writes the plant into p and returns the plant that undoes it.
func (pl plant) apply(t *testing.T, p *pmo.PMO) plant {
	t.Helper()
	undo := make(plant, len(pl))
	for i, w := range pl {
		old, err := p.Read8(w.off)
		if err != nil {
			t.Fatal(err)
		}
		undo[len(pl)-1-i].off, undo[len(pl)-1-i].v = w.off, old
		if err := p.Write8(w.off, w.v); err != nil {
			t.Fatal(err)
		}
	}
	return undo
}

// An array is a run of n elements of size bytes at PMO offset off that an
// audit checks against the baseline img (nil for the zero state): the
// slots of the hash table h, or records when h is nil.
type array struct {
	off, n, size uint64
	img          *nvm.Image
	h            *Hash
}

// arrays returns what w's CheckInvariants audits in p.
func arrays(t *testing.T, w Workload, p *pmo.PMO) []array {
	t.Helper()
	table := func(h *Hash) array {
		a := array{off: h.base, n: h.cap, size: 16, h: h}
		if h.pre != nil {
			a.img = h.pre.img
		}
		return a
	}
	switch w := w.(type) {
	case *KV:
		return []array{table(w.h)}
	case *Echo:
		raw, err := p.Read8(w.logOff.Offset())
		if err != nil {
			t.Fatal(err)
		}
		return []array{{off: pmo.OID(raw).Offset(), n: w.keys * 8 * 8 / 24, size: 24}, table(w.h)}
	case *TPCC:
		return []array{{off: w.orders.Offset(), n: w.nOrders, size: 24}, {off: w.lines.Offset(), n: w.nOrders * 15, size: 16}}
	}
	t.Fatalf("%s audits no array", w.Name())
	return nil
}

// place picks an element of a in the view v by one of four placements,
// which it names: on a page that differs from the baseline (often at its
// end, where a probe chain runs on into the next page), on an unchanged
// page right after a changed one, at a page boundary, or among the
// array's last elements, where a hash table's probe chains wrap.
func place(r *rand.Rand, v *pmo.PMO, a array) (uint64, string) {
	spans := v.ChangedPages(nil, a.img, a.off, a.n*a.size)
	switch r.Intn(4) {
	case 0:
		if len(spans) > 0 {
			sp := spans[r.Intn(len(spans))]
			lo, hi := (sp.Lo-a.off)/a.size, (sp.Hi-a.off+a.size-1)/a.size
			if r.Intn(2) == 0 {
				return hi - 1 - min(uint64(r.Intn(8)), hi-1-lo), "changed page end"
			}
			return lo + uint64(r.Int63n(int64(hi-lo))), "changed page"
		}
	case 1:
		if len(spans) > 0 {
			sp := spans[r.Intn(len(spans))]
			if i := (sp.Hi-a.off+a.size-1)/a.size + uint64(r.Intn(8)); i < a.n {
				return i, "after a changed page"
			}
		}
	case 2:
		first, end := (v.DevOff+a.off)/4096+1, (v.DevOff+a.off+a.n*a.size-1)/4096
		if first <= end {
			b := (first+uint64(r.Int63n(int64(end-first+1))))*4096 - v.DevOff
			return (b-a.off)/a.size - uint64(r.Intn(2)), "page boundary"
		}
	}
	return a.n - 1 - uint64(r.Intn(8)), "last elements"
}

// hashPlant returns a corruption of the table h in v at or near slot s: a
// hole (the first occupied slot from s emptied), a duplicate (the nearest
// key before the first empty slot from s copied into it), a key out of
// range, or, when badValue is set, a value that the value check rejects.
func hashPlant(r *rand.Rand, v *pmo.PMO, h *Hash, s, maxKey, badValue uint64) plant {
	off := func(i uint64) uint64 { return h.base + (i&(h.cap-1))*16 }
	key := func(i uint64) uint64 {
		k, _ := v.Read8(off(i))
		return k
	}
	kinds := 3
	if badValue != 0 {
		kinds = 4
	}
	switch r.Intn(kinds) {
	case 0:
		for i := s; i < s+64; i++ {
			if key(i) != 0 {
				return plant{{off(i), 0}}
			}
		}
	case 1:
		for e := s; e < s+64; e++ {
			if key(e) != 0 {
				continue
			}
			for d := uint64(1); d <= 64; d++ {
				if k := key(e - d); k != 0 {
					return plant{{off(e), k}, {off(e) + 8, 1}}
				}
			}
			break
		}
	case 2:
		return plant{{off(s), maxKey + 1 + uint64(r.Intn(1000))}}
	default:
		for i := s; i < s+64; i++ {
			if key(i) != 0 {
				return plant{{off(i) + 8, badValue}}
			}
		}
	}
	return nil
}

// recordPlant returns a bad field in record i of the array a in v:
// tpcc's order district or customer or line number, or echo's record key
// or version.
func recordPlant(r *rand.Rand, w Workload, v *pmo.PMO, a array, i uint64) plant {
	rec := a.off + i*a.size
	switch w := w.(type) {
	case *TPCC:
		if a.size == 16 {
			return plant{{rec + 8, 15 + uint64(r.Intn(5))}}
		}
		if r.Intn(2) == 0 {
			return plant{{rec + 8, 10 + uint64(r.Intn(5))}}
		}
		return plant{{rec + 16, 3000 + uint64(r.Intn(100))}}
	case *Echo:
		if r.Intn(2) == 0 {
			return plant{{rec, w.keys + 1 + uint64(r.Intn(100))}}
		}
		ver, _ := v.Read8(w.logOff.Offset() + 8)
		pl := plant{{rec + 8, ver + 2 + uint64(r.Intn(100))}}
		if k, _ := v.Read8(rec); k == 0 {
			pl = append(pl, struct{ off, v uint64 }{rec, 1 + uint64(r.Intn(int(w.keys)))})
		}
		return pl
	}
	return nil
}

// holdEveryPage makes p's device hold its own copy of every page of a, by
// writing each page's bytes back, so that an audit rechecks every element.
func holdEveryPage(t *testing.T, p *pmo.PMO, a array) {
	t.Helper()
	page := make([]byte, 4096)
	for off, end := a.off, a.off+a.n*a.size; off < end; off += uint64(len(page)) {
		b := page[:min(uint64(len(page)), end-off)]
		if p.ReadAt(b, off) != nil || p.WriteAt(b, off) != nil {
			t.Fatal("copying an audited array failed")
		}
	}
	if sp := p.ChangedPages(nil, a.img, a.off, a.n*a.size); len(sp) != 1 || sp[0] != (nvm.Span{Lo: a.off, Hi: a.off + a.n*a.size}) {
		t.Fatalf("the copy does not hold every page of the array at %#x: %v", a.off, sp)
	}
}

// errText is err's text, or "nil".
func errText(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

// TestAuditMatchesFullAuditAtCrashStates is the audits' equivalence check
// at real crash states. Hashmap, echo and tpcc run over a persist buffer;
// at seeded persist events a crash view is taken (dropping a seeded half
// of the in-flight writebacks) and recovered, and one seeded corruption is
// planted in it (see place, hashPlant and recordPlant). CheckInvariants on
// the view, which rechecks only what differs from a baseline, must report
// what it reports on a copy of the recovered view that holds every page of
// every audited array, where every slot and record is rechecked. Hashmap
// also audits its preloaded table under a key bound below the preload and
// with a value check, where no baseline applies.
func TestAuditMatchesFullAuditAtCrashStates(t *testing.T) {
	for _, tc := range []struct {
		mk     func() Workload
		every  int // a view at one event in every
		plants int // per view
	}{
		{func() Workload { return &KV{row: hashmapRow} }, 80, 16},
		{func() Workload { return NewEcho() }, 150, 8},
		{func() Workload { return NewTPCC() }, 300, 8},
	} {
		if testing.Short() {
			tc.every *= 4
		}
		w := tc.mk()
		t.Run(w.Name(), func(t *testing.T) {
			dev := nvm.NewDevice(nvm.NVM, 2*pmoSize)
			mgr := pmo.NewManager(dev)
			ctx := core.NewRuntime(unprotCfg(), mgr).NewThread(sim.SingleThread())
			rng := rand.New(rand.NewSource(5))
			if err := w.Setup(mgr, ctx, rng); err != nil {
				t.Fatal(err)
			}
			if err := ctx.Attach(w.PMO(), paging.ReadWrite); err != nil {
				t.Fatal(err)
			}
			buf := dev.EnablePersistBuffer(0)
			r := rand.New(rand.NewSource(6))
			plants, violations, views := 0, 0, 0
			placed := map[string]int{}
			compare := func(what string, got, want error) {
				if errText(got) != errText(want) {
					t.Errorf("%s: audit of the view %q, of every page %q", what, errText(got), errText(want))
				}
			}
			buf.SetEventHook(func(e nvm.Event) {
				if r.Intn(tc.every) != 0 || t.Failed() {
					return
				}
				views++
				// view returns a recovered crash view of this instant; every
				// call drops the same writebacks.
				view := func() (*nvm.Device, *pmo.PMO) {
					drop := rand.New(rand.NewSource(int64(e.Index)))
					d := dev.CrashView(func(uint64) bool { return drop.Intn(2) == 0 })
					p, err := pmo.NewManager(d).Open(w.PMO().Name)
					if err != nil {
						t.Fatal(err)
					}
					l, err := txn.OpenLog(p, w.LogOID(), LogCapacity)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := l.Recover(); err != nil {
						t.Fatal(err)
					}
					return d, p
				}
				d, v := view()
				full := nvm.NewDevice(nvm.NVM, 2*pmoSize)
				full.Restore(d.Snapshot())
				all, err := pmo.NewManager(full).Open(w.PMO().Name)
				if err != nil {
					t.Fatal(err)
				}
				as := arrays(t, w, v)
				for _, a := range as {
					holdEveryPage(t, all, a)
				}
				compare(fmt.Sprintf("event %d, no plant", e.Index), w.CheckInvariants(v), w.CheckInvariants(all))
				if kv, ok := w.(*KV); ok {
					compare(fmt.Sprintf("event %d, key bound 1000", e.Index), kv.h.Audit(v, 1000, nil), kv.h.Audit(all, 1000, nil))
					odd := func(k, val uint64) error {
						if val != 3*k && val%5 == 0 {
							return fmt.Errorf("key %d value %d", k, val)
						}
						return nil
					}
					compare(fmt.Sprintf("event %d, value check", e.Index), kv.h.Audit(v, kvKeys, odd), kv.h.Audit(all, kvKeys, odd))
				}
				for range tc.plants {
					a := as[r.Intn(len(as))]
					i, how := place(r, v, a)
					var pl plant
					switch {
					case a.h == nil:
						pl = recordPlant(r, w, v, a, i)
					case w.Name() == "echo":
						// An index value that points inside a record.
						bad := uint64(pmo.MakeOID(v.ID, as[0].off+3*24+4))
						pl = hashPlant(r, v, a.h, i, w.(*Echo).keys, bad)
					default:
						pl = hashPlant(r, v, a.h, i, kvKeys, 0)
					}
					_, pv := view()
					pl.apply(t, pv)
					undo := pl.apply(t, all)
					got, want := w.CheckInvariants(pv), w.CheckInvariants(all)
					compare(fmt.Sprintf("event %d, plant %v (%s, element %d)", e.Index, pl, how, i), got, want)
					undo.apply(t, all)
					plants++
					placed[how]++
					if want != nil {
						violations++
					}
				}
			})
			for i := 0; i < 400; i++ {
				if err := w.Op(ctx, rng); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%d views, %d plants, %d violations, placements %v", views, plants, violations, placed)
			if len(placed) != 5 || violations < plants/3 {
				t.Errorf("%d of %d plants were violations, placements %v: want a third, and every placement", violations, plants, placed)
			}
		})
	}
}

// TestAuditRunWrapsPastTableEnd: a probe chain that starts on a table's
// last page runs past the table's end onto its first page. A hole torn
// into the chain on the last page hides the keys it carried onto the
// first page, which is unchanged, and the audit must report the first of
// them, as a check of every slot does, not only the hidden keys on the
// changed page.
func TestAuditRunWrapsPastTableEnd(t *testing.T) {
	const capacity = 1024 // four pages
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<24))
	p, err := mgr.Create("t", 1<<22, pmo.ModeRead|pmo.ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	base := 64*4096 - p.DevOff%4096 // the table starts a device page
	// Six keys whose home is slot 1020 fill slots 1020 to 1023, 0 and 1.
	words := make([]uint64, 2*capacity)
	var keys []uint64
	for k := uint64(1); len(keys) < 6; k++ {
		if mix(k)&(capacity-1) == 1020 {
			s := (1020 + uint64(len(keys))) % capacity
			words[2*s], words[2*s+1] = k, 1
			keys = append(keys, k)
		}
	}
	img := nvm.NewImage(words, p.DevOff+base)
	if err := p.MapImage(img); err != nil {
		t.Fatal(err)
	}
	h := &Hash{p: p, base: base, cap: capacity,
		pre: &preload{key: preloadKey{off: p.DevOff + base, capacity: capacity, n: slices.Max(keys)}, img: img}}
	if err := h.Audit(p, keys[5], nil); err != nil {
		t.Fatalf("before the hole: %v", err)
	}
	if err := p.Write8(base+1021*16, 0); err != nil {
		t.Fatal(err)
	}
	if sp := p.ChangedPages(nil, img, base, 16*capacity); len(sp) != 1 || sp[0].Lo != base+768*16 {
		t.Fatalf("changed spans %v, want the last page alone", sp)
	}
	want := fmt.Sprintf("whisper: hash key %d at slot 0 hidden behind empty slot 1021", keys[4])
	if err := h.Audit(p, keys[5], nil); err == nil || err.Error() != want {
		t.Fatalf("audit %v, want %q", err, want)
	}
	// A copy that holds every page rechecks every slot and agrees.
	full := nvm.NewDevice(nvm.NVM, 1<<24)
	full.Restore(mgr.Device().Snapshot())
	all, err := pmo.NewManager(full).Open("t")
	if err != nil {
		t.Fatal(err)
	}
	holdEveryPage(t, all, array{off: base, n: capacity, size: 16, img: img, h: h})
	if err := h.Audit(all, keys[5], nil); err == nil || err.Error() != want {
		t.Fatalf("audit of every page %v, want %q", err, want)
	}
}

// TestPreloadAuditSharedAcrossGoroutines: tables on several goroutines map
// one preload and audit at once, so their first audits race to audit the
// preload itself. Each audit reports its own table's state: clean, or the
// key planted out of range.
func TestPreloadAuditSharedAcrossGoroutines(t *testing.T) {
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := pmo.NewManager(nvm.NewDevice(nvm.NVM, 1<<24)).Create("t", 1<<22, pmo.ModeRead|pmo.ModeWrite)
			if err != nil {
				errs[i] = err
				return
			}
			h, err := NewHash(p, 1024, nil)
			if err == nil {
				err = h.Preload(300, 11)
			}
			if err == nil && i%2 == 1 {
				err = p.Write8(h.base+1000*16, 301)
			}
			if err == nil {
				err = h.Audit(p, 300, nil)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		want := "nil"
		if i%2 == 1 {
			want = "whisper: hash slot 1000 key 301 out of range"
		}
		if errText(err) != want {
			t.Errorf("goroutine %d: audit %v, want %s", i, err, want)
		}
	}
}
