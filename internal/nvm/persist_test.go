package nvm

import (
	"testing"

	"repro/internal/obs"
)

func img8(t *testing.T, img map[uint64][]byte, off uint64) uint64 {
	t.Helper()
	d := NewDevice(NVM, 1<<20)
	d.Restore(img)
	v, err := d.Read8(off)
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
	if v := img8(t, d.CrashImage(nil), 0); v != 1 {
		t.Fatalf("durable view = %d, want pre-buffer 1", v)
	}
}

func TestPersistBufferFlushAloneIsNotDurable(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	d.Write8(128, 7)
	d.Flush(128, 8)
	if v := img8(t, d.CrashImage(nil), 128); v != 7 {
		// Strict model: a retained flush is durable when not dropped.
		t.Fatalf("flushed line dropped under nil policy: %d", v)
	}
	// Under adversarial ordering the unfenced flush may be dropped.
	if v := img8(t, d.CrashImage(func(uint64) bool { return true }), 128); v != 0 {
		t.Fatalf("dropped flushed line still durable: %d", v)
	}
	if got := b.UnfencedFlushedLines(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("unfenced flushed lines = %v, want [2]", got)
	}
}

func TestPersistBufferFenceDrains(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	d.Write8(0, 42)
	d.Flush(0, 8)
	d.Fence()
	if b.PendingLines() != 0 {
		t.Fatalf("pending lines after fence = %d", b.PendingLines())
	}
	// Even an adversarial crash keeps fenced data.
	if v := img8(t, d.CrashImage(func(uint64) bool { return true }), 0); v != 42 {
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
	if v := img8(t, d.CrashImage(nil), 0); v != 1 {
		t.Fatalf("fence lost the in-flight writeback: durable = %d, want 1", v)
	}
	if v, _ := d.Read8(0); v != 2 {
		t.Fatalf("cache view = %d, want 2", v)
	}
	// The newer value becomes durable only via its own flush+fence.
	d.Flush(0, 8)
	d.Fence()
	if v := img8(t, d.CrashImage(nil), 0); v != 2 {
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
	if v := img8(t, d.CrashImage(nil), 0); v != 1 {
		t.Fatalf("kept writeback = %d, want the flush capture 1", v)
	}
	if v := img8(t, d.CrashImage(func(uint64) bool { return true }), 0); v != 0 {
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
	if v := img8(t, d.CrashImage(nil), 0); v != 9 {
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
			durableAtFence = img8(t, d.CrashImage(func(uint64) bool { return true }), 0)
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
	img := d.CrashImage(nil)
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
	if v := img8(t, d.CrashImage(nil), 0); v != 77 {
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
	if b.PendingLines() != 0 {
		t.Fatalf("pending lines survived power cycle: %d", b.PendingLines())
	}
	if v := img8(t, d.CrashImage(nil), 0); v != 1 {
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
	if v := img8(t, d.CrashImage(nil), 64); v != 101 {
		t.Fatalf("fenced word = %d, want 101", v)
	}
}
