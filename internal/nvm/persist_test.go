package nvm

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
)

func img8(t *testing.T, img *Device, off uint64) uint64 {
	t.Helper()
	v, err := img.Read8(off)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPersistBufferUnflushedWritesAreNotDurable(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.Write8(0, 1) // pre-buffer content is durable
	d.EnablePersistBuffer(64)
	d.Write8(0, 2)
	if v, _ := d.Read8(0); v != 2 {
		t.Fatalf("cache view = %d, want the newest value 2", v)
	}
	if v := img8(t, d.CrashView(nil), 0); v != 1 {
		t.Fatalf("durable view = %d, want pre-buffer 1", v)
	}
}

func TestPersistBufferFlushAloneIsNotDurable(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	d.Write8(128, 7)
	d.Flush(128, 8)
	if v := img8(t, d.CrashView(nil), 128); v != 7 {
		// Strict model: a retained flush is durable when not dropped.
		t.Fatalf("flushed line dropped under nil policy: %d", v)
	}
	// Under adversarial ordering the unfenced flush may be dropped.
	if v := img8(t, d.CrashView(func(uint64) bool { return true }), 128); v != 0 {
		t.Fatalf("dropped flushed line still durable: %d", v)
	}
	if got := b.UnfencedLines(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("unfenced flushed lines = %v, want [2]", got)
	}
}

func TestPersistBufferFenceDrains(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	d.Write8(0, 42)
	d.Flush(0, 8)
	d.Fence()
	if len(b.pending) != 0 {
		t.Fatalf("pending lines after fence = %d", len(b.pending))
	}
	// Even an adversarial crash keeps fenced data.
	if v := img8(t, d.CrashView(func(uint64) bool { return true }), 0); v != 42 {
		t.Fatalf("fenced write lost: %d", v)
	}
	if b.DrainedLines() != 1 || b.Flushes() != 1 || b.Fences() != 1 {
		t.Fatalf("stats = drained %d flushes %d fences %d", b.DrainedLines(), b.Flushes(), b.Fences())
	}
}

// TestPersistBufferRedirtyKeepsWritebackInFlight is the regression test
// for the model bug the litmus oracle found: a store to a line after its
// flush used to cancel the in-flight writeback entirely, so a fence
// could complete while the flushed value silently vanished — letting
// later persists land with the earlier, fence-ordered value lost, which
// Px86 forbids (clwb/clflushopt is ordered against same-line stores).
// The writeback must drain the bytes the flush captured; the newer store
// stays volatile until its own flush.
func TestPersistBufferRedirtyKeepsWritebackInFlight(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.EnablePersistBuffer(64)
	d.Write8(0, 1)
	d.Flush(0, 8)
	d.Write8(0, 2) // different bytes: the cache copy is dirty again
	d.Fence()      // ...but the issued writeback of 1 still drains
	if v := img8(t, d.CrashView(nil), 0); v != 1 {
		t.Fatalf("fence lost the in-flight writeback: durable = %d, want 1", v)
	}
	if v, _ := d.Read8(0); v != 2 {
		t.Fatalf("cache view = %d, want 2", v)
	}
	// The newer value becomes durable only via its own flush+fence.
	d.Flush(0, 8)
	d.Fence()
	if v := img8(t, d.CrashView(nil), 0); v != 2 {
		t.Fatalf("second flush+fence did not drain: durable = %d", v)
	}
}

// TestPersistBufferRedirtiedWritebackMayStillDrop checks the relaxed
// side: before the fence the re-dirtied line's image is either the
// pre-flush durable value (writeback not drained) or the flush capture —
// never the newer volatile store.
func TestPersistBufferRedirtiedWritebackMayStillDrop(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.EnablePersistBuffer(64)
	d.Write8(0, 1)
	d.Flush(0, 8)
	d.Write8(0, 2)
	if v := img8(t, d.CrashView(nil), 0); v != 1 {
		t.Fatalf("kept writeback = %d, want the flush capture 1", v)
	}
	if v := img8(t, d.CrashView(func(uint64) bool { return true }), 0); v != 0 {
		t.Fatalf("dropped writeback = %d, want pre-flush 0", v)
	}
}

func TestPersistBufferSilentStoreKeepsFlushInFlight(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.EnablePersistBuffer(64)
	d.Write8(0, 9)
	d.Flush(0, 8)
	d.Write8(0, 9) // identical bytes: writeback stays in flight
	d.Fence()
	if v := img8(t, d.CrashView(nil), 0); v != 9 {
		t.Fatalf("silent store blocked the drain: durable = %d", v)
	}
}

func TestPersistBufferEventHookOrderAndIndices(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	var got []Event
	b.SetEventHook(func(e Event) { got = append(got, e) })
	d.Write8(0, 1)
	d.Flush(0, 8)
	d.Fence()
	d.Flush(64, 8)
	want := []Event{{FlushEvent, 0}, {FenceEvent, 1}, {FlushEvent, 2}}
	if len(got) != len(want) {
		t.Fatalf("events = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
	if b.Events() != 3 {
		t.Fatalf("Events() = %d", b.Events())
	}
}

func TestPersistBufferHookSeesPreEventState(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	d.Write8(0, 5)
	d.Flush(0, 8)
	var durableAtFence uint64
	b.SetEventHook(func(e Event) {
		if e.Kind == FenceEvent {
			durableAtFence = img8(t, d.CrashView(func(uint64) bool { return true }), 0)
		}
	})
	d.Fence()
	if durableAtFence != 0 {
		t.Fatalf("crash at fence entry saw post-fence state: %d", durableAtFence)
	}
}

func TestPersistBufferLineGranularity(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.EnablePersistBuffer(64)
	d.Write8(0, 1)  // line 0
	d.Write8(64, 2) // line 1
	d.Flush(0, 8)   // only line 0
	d.Fence()
	img := d.CrashView(nil)
	if v := img8(t, img, 0); v != 1 {
		t.Fatalf("line 0 = %d", v)
	}
	if v := img8(t, img, 64); v != 0 {
		t.Fatalf("line 1 leaked to durability: %d", v)
	}
}

func TestPersistBufferZeroIsBuffered(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.Write8(0, 77)
	d.EnablePersistBuffer(64)
	if err := d.Zero(0, pageSize); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Read8(0); v != 0 {
		t.Fatalf("cache view after Zero = %d", v)
	}
	if v := img8(t, d.CrashView(nil), 0); v != 77 {
		t.Fatalf("unflushed Zero became durable: %d", v)
	}
}

func TestPersistBufferRestoreClears(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.Write8(0, 1)
	snap := d.Snapshot()
	b := d.EnablePersistBuffer(64)
	d.Write8(0, 2)
	d.Restore(snap)
	if len(b.pending) != 0 {
		t.Fatalf("pending lines survived power cycle: %d", len(b.pending))
	}
	if v := img8(t, d.CrashView(nil), 0); v != 1 {
		t.Fatalf("restored durable view = %d", v)
	}
}

func TestPersistBufferBadLineSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("line size 48 accepted")
		}
	}()
	NewDevice(NVM, 1<<20).EnablePersistBuffer(48)
}

// Satellite: Snapshot must be a deep copy — mutating the device after
// Snapshot must not alter the snapshot, and mutating the snapshot must
// not alter the device (nor a device later restored from it).
func TestSnapshotIsDeepCopy(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.Write8(0, 10)
	d.Write8(pageSize, 20)
	snap := d.Snapshot()

	// Device mutations must not leak into the snapshot.
	d.Write8(0, 11)
	if v := snap[0][0]; v != 10 {
		t.Fatalf("snapshot byte changed with the device: %d", v)
	}

	// Snapshot mutations must not leak into the device...
	snap[0][0] = 0xff
	if v, _ := d.Read8(0); v != 11 {
		t.Fatalf("device byte changed with the snapshot: %d", v)
	}

	// ...and Restore must copy again, isolating the restored device from
	// later snapshot mutations.
	d2 := NewDevice(NVM, 1<<20)
	d2.Restore(snap)
	snap[1][0] = 0xee
	if v, _ := d2.Read8(pageSize); v != 20 {
		t.Fatalf("restored device aliases the snapshot: %d", v)
	}
	if v, _ := d2.Read8(0); v != 0xff {
		t.Fatalf("restore lost snapshot content: %d", v)
	}
}

// TestPersistEventStreamFenceOrdered checks the per-stream ordering
// contract the crash injector and the observability layer both rely on:
// event indices are strictly increasing, and every line that becomes
// durable had its flush issued before the draining fence — no fence may
// drain a line whose flush appears later in the stream.
func TestPersistEventStreamFenceOrdered(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	var stream []Event
	b.SetEventHook(func(e Event) { stream = append(stream, e) })

	// Interleave writes, flushes and fences across three lines.
	d.Write8(0, 1)
	d.Flush(0, 8)
	d.Write8(64, 2)
	d.Fence() // drains line 0 only; line 1 is dirty and unflushed
	d.Flush(64, 8)
	d.Write8(128, 3)
	d.Flush(128, 8)
	d.Fence() // drains lines 1 and 2

	last := int64(-1)
	for i, e := range stream {
		if int64(e.Index) <= last {
			t.Fatalf("event %d: index %d not strictly increasing after %d", i, e.Index, last)
		}
		last = int64(e.Index)
	}
	// Each fence's drains are justified by earlier flushes: replay the
	// stream counting flushed-not-yet-fenced lines.
	if b.DrainedLines() != 3 {
		t.Fatalf("drained = %d, want 3", b.DrainedLines())
	}
	kinds := make([]EventKind, len(stream))
	for i, e := range stream {
		kinds[i] = e.Kind
	}
	want := []EventKind{FlushEvent, FenceEvent, FlushEvent, FlushEvent, FenceEvent}
	if len(kinds) != len(want) {
		t.Fatalf("stream = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("stream[%d] = %v, want %v (full: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

// TestPersistBufferObsEvents wires the obs track and occupancy histogram
// and checks flush/fence/drain instants carry the simulated clock and
// the pending-line occupancy is sampled per event.
func TestPersistBufferObsEvents(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	rec := obs.NewRecorder(0)
	var clock uint64
	b.Obs = rec.Track(obs.HWThread)
	b.NowFn = func() uint64 { return clock }
	occ := &obs.Hist{}
	b.Occupancy = occ

	clock = 10
	d.Write8(0, 1)
	d.Flush(0, 8)
	clock = 20
	d.Fence()

	ev := rec.Events()
	var names []string
	for _, e := range ev {
		names = append(names, e.Name)
	}
	want := []string{"flush", "fence", "drain"}
	if len(names) != len(want) {
		t.Fatalf("obs events = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("obs events = %v, want %v", names, want)
		}
	}
	if ev[0].TS != 10 || ev[1].TS != 20 || ev[2].TS != 20 {
		t.Fatalf("timestamps = %d %d %d", ev[0].TS, ev[1].TS, ev[2].TS)
	}
	if ev[2].Arg != 1 {
		t.Fatalf("drain count = %d, want 1", ev[2].Arg)
	}
	// Occupancy sampled at both persist events: 1 pending line each time.
	if occ.Count != 2 || occ.Max != 1 {
		t.Fatalf("occupancy hist: count=%d max=%d", occ.Count, occ.Max)
	}
}

// TestPersistBufferComparisonsAllocateNothing pins the scratch line the
// buffer compares device content in: a silent store to a clean line
// allocates nothing, and a store, flush and fence cycle allocates only
// the dirtied line's state, its durable copy and its writeback.
func TestPersistBufferComparisonsAllocateNothing(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.Write8(0, 7)
	d.EnablePersistBuffer(0)
	if a := testing.AllocsPerRun(100, func() { d.Write8(0, 7) }); a != 0 {
		t.Errorf("silent Write8 to a clean line: %v allocations, want 0", a)
	}
	var v uint64
	if a := testing.AllocsPerRun(100, func() {
		v++
		d.Write8(64, v)
		d.Flush(64, 8)
		d.Fence()
	}); a != 3 {
		t.Errorf("Write8+Flush+Fence: %v allocations, want 3", a)
	}
	if v := img8(t, d.CrashView(nil), 64); v != 101 {
		t.Fatalf("fenced word = %d, want 101", v)
	}
}

// refCrashImage is the snapshot-then-patch materialization the crash view
// replaced, kept as its reference: a snapshot of the device with each
// buffered line, in ascending order, patched with its durable content or,
// unless drop says so, its in-flight writeback.
func refCrashImage(d *Device, drop func(line uint64) bool) map[uint64][]byte {
	img := d.Snapshot()
	lines := make([]uint64, 0, len(d.buf.pending))
	for ln := range d.buf.pending {
		lines = append(lines, ln)
	}
	slices.Sort(lines)
	for _, ln := range lines {
		st := d.buf.pending[ln]
		content := st.durable
		if st.wb != nil && (drop == nil || !drop(ln)) {
			content = st.wb
		}
		off := ln * d.buf.line
		p := img[off/pageSize]
		if p == nil {
			p = make([]byte, pageSize)
			img[off/pageSize] = p
		}
		copy(p[off%pageSize:], content)
	}
	return img
}

// TestCrashViewMatchesSnapshotThenPatch is the view's property check: over
// seeded streams of writes, whole- and part-page zeroing, flushes and
// fences, at every step with at most 4 lines in flight and under every
// drop mask over them, a crash view's pages and the lines it consults
// the drop callback for match the snapshot-then-patch reference.
func TestCrashViewMatchesSnapshotThenPatch(t *testing.T) {
	const pages = 6
	checked := 0
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := NewDevice(NVM, pages*pageSize)
		for i := 0; i < 8; i++ { // durable content before the buffer
			d.Write8(uint64(r.Intn(pages*pageSize/8))*8, r.Uint64())
		}
		b := d.EnablePersistBuffer(0)
		for step := 0; step < 60; step++ {
			off := uint64(r.Intn(pages * pageSize))
			switch k := r.Intn(10); {
			case k < 4:
				n := 1 + r.Intn(min(200, pages*pageSize-int(off)))
				data := make([]byte, n)
				r.Read(data)
				d.WriteAt(data, off)
			case k == 4:
				d.Zero(off/pageSize*pageSize, pageSize)
			case k == 5:
				d.Zero(off, uint64(min(300, pages*pageSize-int(off))))
			case k < 9:
				d.Flush(off, uint64(1+r.Intn(128)))
			default:
				d.Fence()
			}
			inflight := b.UnfencedLines()
			if len(inflight) > 4 {
				continue
			}
			for mask := 0; mask < 1<<len(inflight); mask++ {
				var asked [2][]uint64
				drop := func(i int) func(uint64) bool {
					return func(ln uint64) bool {
						asked[i] = append(asked[i], ln)
						return mask>>slices.Index(inflight, ln)&1 == 1
					}
				}
				want := refCrashImage(d, drop(0))
				v := d.CrashView(drop(1))
				if got := v.Snapshot(); !maps.EqualFunc(got, want, bytes.Equal) {
					t.Fatalf("seed %d step %d mask %b: view image of %d pages differs from the reference's %d",
						seed, step, mask, len(got), len(want))
				}
				if !slices.Equal(asked[0], asked[1]) {
					t.Fatalf("seed %d step %d: view consulted lines %v, reference %v", seed, step, asked[1], asked[0])
				}
				checked++
			}
		}
	}
	if checked < 2000 {
		t.Fatalf("only %d images checked", checked)
	}
}

// TestCrashViewCostsWhatTheCrashChanged: a view copies the pages that
// hold buffered lines, not the device. Over 515 written pages with one
// buffered line it makes the same few allocations as over one page.
func TestCrashViewCostsWhatTheCrashChanged(t *testing.T) {
	allocs := func(pages uint64) float64 {
		d := NewDevice(NVM, 2<<30)
		for pn := uint64(0); pn < pages; pn++ {
			d.Write8(pn*pageSize, pn+1)
		}
		d.EnablePersistBuffer(0)
		d.Write8(8, 7)
		return testing.AllocsPerRun(20, func() { d.CrashView(nil) })
	}
	one, many := allocs(1), allocs(515)
	if many != one || many > 5 {
		t.Fatalf("CrashView allocations: %v over 515 pages, %v over one page; want the same, at most 5", many, one)
	}
}

// TestCrashViewIsolation: writes to a view, whole-page zeroing included,
// reach neither the device it views nor a sibling view, and a view reads
// the device's later writes only until it is dropped — which is why a
// view must not outlive the instant it was taken at.
func TestCrashViewIsolation(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.Write8(0, 1)
	d.Write8(pageSize, 2)
	d.EnablePersistBuffer(0)
	d.Write8(16, 3) // buffered: the views show the durable 0
	a, b := d.CrashView(nil), d.CrashView(nil)
	a.Write8(pageSize+8, 4)
	a.Zero(0, pageSize)
	b.Zero(pageSize, 8)
	if v, _ := a.Read8(0); v != 0 {
		t.Fatalf("zeroed page reads %d through to the device", v)
	}
	if v, _ := a.Read8(pageSize + 8); v != 4 {
		t.Fatalf("view lost its own write: %d", v)
	}
	for _, c := range []struct {
		name string
		dev  *Device
		want [4]uint64 // words 0, 2, 512 and 513
	}{{"device", d, [4]uint64{1, 3, 2, 0}}, {"view", a, [4]uint64{0, 0, 2, 4}}, {"sibling", b, [4]uint64{1, 0, 0, 0}}} {
		var got [4]uint64
		for i, off := range []uint64{0, 16, pageSize, pageSize + 8} {
			var w [8]byte
			c.dev.ReadAt(w[:], off)
			got[i] = le64(w[:])
		}
		if got != c.want {
			t.Errorf("%s: ReadAt words %v, want %v", c.name, got, c.want)
		}
		all := make([]uint64, 2*pageSize/8)
		c.dev.ReadWords(all, 0)
		if got := [4]uint64{all[0], all[2], all[pageSize/8], all[pageSize/8+1]}; got != c.want {
			t.Errorf("%s: ReadWords words %v, want %v", c.name, got, c.want)
		}
	}
	if a.FootprintPages() != 2 || b.FootprintPages() != 2 || d.FootprintPages() != 2 {
		t.Errorf("pages: view %d, sibling %d, device %d; want 2 each",
			a.FootprintPages(), b.FootprintPages(), d.FootprintPages())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a crash view of a crash view did not panic")
			}
		}()
		a.CrashView(nil)
	}()
	// Restoring a view replaces its whole image: it stops reading through.
	b.Restore(map[uint64][]byte{2: make([]byte, pageSize)})
	if v, _ := b.Read8(0); v != 0 || b.FootprintPages() != 1 {
		t.Errorf("restored view reads word 0 = %d over %d pages, want 0 over 1", v, b.FootprintPages())
	}
}
