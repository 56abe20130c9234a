package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// bigDevice is 8 GB, a directory of 2048 leaves: larger than any device
// the simulator creates.
const bigDevice = 8 << 30

// forEachBacking runs f on an NVM device of the given size and on an
// 8 GB one, so a device test checks that nothing depends on capacity.
// The subtests keep the names of the flat-table and map layouts that
// covered these two sizes before the page directory replaced both.
func forEachBacking(t *testing.T, size uint64, f func(t *testing.T, d *Device)) {
	t.Helper()
	t.Run("table", func(t *testing.T) { f(t, NewDevice(NVM, size)) })
	t.Run("map", func(t *testing.T) { f(t, NewDevice(NVM, bigDevice)) })
}

func TestDeviceReadWriteRoundTrip(t *testing.T) {
	forEachBacking(t, 1<<20, func(t *testing.T, d *Device) {
		msg := []byte("persistent memory object")
		if err := d.WriteAt(msg, 100); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if err := d.ReadAt(got, 100); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("got %q want %q", got, msg)
		}
	})
}

func TestDeviceCrossPageAccess(t *testing.T) {
	forEachBacking(t, 1<<20, func(t *testing.T, d *Device) {
		// Write spanning a page boundary.
		msg := make([]byte, 5000)
		for i := range msg {
			msg[i] = byte(i)
		}
		off := uint64(pageSize - 100)
		if err := d.WriteAt(msg, off); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if err := d.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("cross-page round trip mismatch")
		}
		if d.FootprintPages() < 2 {
			t.Fatalf("expected at least 2 materialized pages, got %d", d.FootprintPages())
		}
	})
}

func TestDeviceUnwrittenReadsZero(t *testing.T) {
	d := NewDevice(DRAM, 1<<16)
	b := make([]byte, 64)
	b[0] = 0xff
	if err := d.ReadAt(b, 4096); err != nil {
		t.Fatal(err)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, v)
		}
	}
}

func TestDeviceOutOfRange(t *testing.T) {
	d := NewDevice(NVM, 1024)
	if err := d.WriteAt([]byte{1}, 1024); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := d.ReadAt(make([]byte, 8), 1020); err == nil {
		t.Fatal("expected out-of-range error for straddling read")
	}
	if err := d.WriteAt([]byte{1}, ^uint64(0)); err == nil {
		t.Fatal("expected overflow to be rejected")
	}
}

func TestDeviceWord(t *testing.T) {
	forEachBacking(t, 1<<16, func(t *testing.T, d *Device) {
		if err := d.Write8(40, 0xdeadbeefcafef00d); err != nil {
			t.Fatal(err)
		}
		v, err := d.Read8(40)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0xdeadbeefcafef00d {
			t.Fatalf("got %#x", v)
		}
	})
}

func TestDeviceSnapshotRestore(t *testing.T) {
	forEachBacking(t, 1<<16, func(t *testing.T, d *Device) {
		d.Write8(0, 111)
		snap := d.Snapshot()
		d.Write8(0, 222)
		d.Write8(8192, 333)
		d.Restore(snap)
		if v, _ := d.Read8(0); v != 111 {
			t.Fatalf("restored value = %d, want 111", v)
		}
		if v, _ := d.Read8(8192); v != 0 {
			t.Fatalf("page written after snapshot should be gone, got %d", v)
		}
	})
}

func TestDeviceZero(t *testing.T) {
	forEachBacking(t, 1<<16, func(t *testing.T, d *Device) {
		for off := uint64(0); off < 3*pageSize; off += 8 {
			d.Write8(off, off+1)
		}
		if err := d.Zero(100, 2*pageSize); err != nil {
			t.Fatal(err)
		}
		if v, _ := d.Read8(96); v == 0 {
			t.Fatal("byte before zero range was cleared")
		}
		if v, _ := d.Read8(104); v != 0 {
			t.Fatalf("zeroed word = %d", v)
		}
	})
}

func TestDeviceCounters(t *testing.T) {
	forEachBacking(t, 1<<16, func(t *testing.T, d *Device) {
		d.Write8(0, 1)
		d.Read8(0)
		d.Read8(0)
		d.ReadWords(make([]uint64, 3), 0)
		if d.Writes != 8 || d.Reads != 40 {
			t.Fatalf("counters = %d writes %d reads, want 8/40", d.Writes, d.Reads)
		}
	})
}

// Property: arbitrary word writes at arbitrary aligned offsets read back.
func TestDeviceWordProperty(t *testing.T) {
	d := NewDevice(NVM, 1<<24)
	f := func(off uint32, v uint64) bool {
		o := uint64(off) % (1<<24 - 8)
		if err := d.Write8(o, v); err != nil {
			return false
		}
		got, err := d.Read8(o)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeviceRestoreRejectsPagePastCapacity: a snapshot page at or past
// the device's page count is a caller bug, reported with a descriptive
// panic rather than an index error or a page kept out of range.
func TestDeviceRestoreRejectsPagePastCapacity(t *testing.T) {
	for _, size := range []uint64{1 << 16, bigDevice} {
		pages := size / pageSize
		page := func(v byte) []byte { return bytes.Repeat([]byte{v}, pageSize) }
		d := NewDevice(NVM, size)
		d.Restore(map[uint64][]byte{0: page(1), pages - 1: page(2)})
		if v, err := d.Read8(size - 8); err != nil || v != 0x0202020202020202 {
			t.Fatalf("size %d: last word = %#x, %v", size, v, err)
		}
		for _, pn := range []uint64{pages, pages + leafPages, 1 << 40} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "nvm: snapshot page") {
						t.Errorf("size %d: Restore of page %d: recovered %q, want the snapshot-page panic", size, pn, msg)
					}
				}()
				NewDevice(NVM, size).Restore(map[uint64][]byte{0: page(1), pn: page(2)})
			}()
		}
	}
}

// TestDeviceCostIndependentOfCapacity: a device touched at its first and
// last word costs its two pages, two leaves and a directory of one
// pointer per 4 MB, however large its capacity.
func TestDeviceCostIndependentOfCapacity(t *testing.T) {
	for _, tc := range []struct{ size, limit uint64 }{
		{2 << 30, 64 << 10},
		{1 << 40, 4 << 20},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDevice(NVM, tc.size)
		if err := d.Write8(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.Write8(tc.size-8, 2); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.limit {
			t.Errorf("%d-byte device touched at both ends allocated %d bytes, want <= %d", tc.size, got, tc.limit)
		}
		if d.FootprintPages() != 2 {
			t.Errorf("%d-byte device: %d pages, want 2", tc.size, d.FootprintPages())
		}
	}
}

// byteModel is the reference the device is checked against: the nonzero
// bytes by offset and the set of pages a write has materialized. kept,
// when set, names the pages zeroing does not drop: those the device reads
// through to.
type byteModel struct {
	bytes map[uint64]byte
	pages map[uint64]bool
	kept  func(pn uint64) bool
}

func (m *byteModel) write(off uint64, b []byte) {
	for i, v := range b {
		if v == 0 {
			delete(m.bytes, off+uint64(i))
		} else {
			m.bytes[off+uint64(i)] = v
		}
	}
	if len(b) > 0 {
		for pn := off / pageSize; pn <= (off+uint64(len(b))-1)/pageSize; pn++ {
			m.pages[pn] = true
		}
	}
}

func (m *byteModel) zero(off, n uint64) {
	for a := off; a < off+n; a++ {
		delete(m.bytes, a)
	}
	for pn := (off + pageSize - 1) / pageSize; (pn+1)*pageSize <= off+n; pn++ {
		if m.kept == nil || !m.kept(pn) {
			delete(m.pages, pn) // only pages the range covers whole are dropped
		}
	}
}

func (m *byteModel) read(off, n uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = m.bytes[off+uint64(i)]
	}
	return b
}

// check compares the whole device with the model through a snapshot, reads
// every page back (reaching the pages a device reads through to on its own
// read path, which a snapshot does not take), and checks that
// Snapshot -> Restore -> Snapshot preserves the image. A
// device with a persist buffer or a crash view is restored into a fresh
// device instead: restoring it would empty its buffer or end the view.
func (m *byteModel) check(t *testing.T, d *Device, step int) {
	t.Helper()
	if d.FootprintPages() != len(m.pages) {
		t.Fatalf("step %d: %d pages, model has %d", step, d.FootprintPages(), len(m.pages))
	}
	snap := d.Snapshot()
	nonzero := 0
	for pn, p := range snap {
		if !m.pages[pn] {
			t.Fatalf("step %d: page %d materialized, not in the model", step, pn)
		}
		for i, v := range p {
			if off := pn*pageSize + uint64(i); v != m.bytes[off] {
				t.Fatalf("step %d: byte %d = %#x, model %#x", step, off, v, m.bytes[off])
			}
			if v != 0 {
				nonzero++
			}
		}
	}
	if len(snap) != len(m.pages) || nonzero != len(m.bytes) {
		t.Fatalf("step %d: snapshot has %d pages and %d nonzero bytes, model %d and %d",
			step, len(snap), nonzero, len(m.pages), len(m.bytes))
	}
	b := make([]byte, pageSize)
	for pn, p := range snap {
		n := min(pageSize, d.size-pn*pageSize)
		if err := d.ReadAt(b[:n], pn*pageSize); err != nil || !bytes.Equal(b[:n], p[:n]) {
			t.Fatalf("step %d: page %d reads differently from its snapshot (err %v)", step, pn, err)
		}
	}
	want := ImageHash(snap)
	r := d
	if d.buf != nil || d.base != nil {
		r = NewDevice(d.kind, d.size)
	}
	r.Restore(snap)
	if got := ImageHash(r.Snapshot()); got != want || r.FootprintPages() != len(m.pages) {
		t.Fatalf("step %d: Snapshot -> Restore -> Snapshot changed the image", step)
	}
}

// modelOf returns the byte model of an image: its pages and nonzero bytes.
func modelOf(img map[uint64][]byte) *byteModel {
	m := &byteModel{bytes: map[uint64]byte{}, pages: map[uint64]bool{}}
	for pn, p := range img {
		m.pages[pn] = true
		for i, v := range p {
			if v != 0 {
				m.bytes[pn*pageSize+uint64(i)] = v
			}
		}
	}
	return m
}

// TestDeviceMatchesByteMapModel drives a device and a byte-map model with
// the same seeded random accesses, clustered where the page directory has
// edges: page boundaries, the first leaf boundary (pages 1023-1025) and
// the device's last page and end. Out-of-range accesses must fail and
// change nothing. The "image" input is a device that mapped an image
// while holding one of its boundary pages, checked against the model
// seeded with the image. The "view" and "image-view" inputs are crash
// views over such devices, populated, with buffered and in-flight lines,
// checked against the model of their crash image; the accesses must leave
// the device they view as it was.
func TestDeviceMatchesByteMapModel(t *testing.T) {
	small := uint64(leafPages+2)*pageSize + 1000 // ends inside page 1026
	for i, size := range []uint64{small, bigDevice} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			d := NewDevice(NVM, size)
			driveModel(t, rand.New(rand.NewSource(int64(i+1))), d, modelOf(nil), 600)
		})
	}
	t.Run("image", func(t *testing.T) {
		r := rand.New(rand.NewSource(4))
		d, m := mappedDevice(t, testImage(r), small)
		driveModel(t, r, d, m, 600)
	})
	t.Run("view", func(t *testing.T) {
		driveViews(t, rand.New(rand.NewSource(3)), NewDevice(NVM, small), modelOf(nil))
	})
	t.Run("image-view", func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		d, m := mappedDevice(t, testImage(r), small)
		driveViews(t, r, d, m)
	})
}

// driveViews populates base, modelled by m, first directly and then
// through a persist buffer, leaves two lines buffered, one of them in
// flight, and drives six crash views of it against the model of their
// crash image. The views must leave base as it was.
func driveViews(t *testing.T, r *rand.Rand, base *Device, m *byteModel) {
	t.Helper()
	size := base.Size()
	driveModel(t, r, base, m, 300)
	buf := base.EnablePersistBuffer(0)
	driveModel(t, r, base, m, 300)
	// Drain the buffer, then leave two lines buffered, one of them in
	// flight, so the view holds two pages and borrows the others.
	base.Flush(0, size)
	base.Fence()
	base.Write8(leafPages*pageSize+8, 0x1111)
	base.Flush(leafPages*pageSize, 8)
	base.Write8(8, 0x2222)
	if buf.PendingLines() != 2 || len(buf.UnfencedFlushedLines()) != 1 || base.FootprintPages() < 4 {
		t.Fatalf("%d buffered lines, %d in flight, %d pages: want 2, 1 and at least 4",
			buf.PendingLines(), len(buf.UnfencedFlushedLines()), base.FootprintPages())
	}
	// A view soon holds every page it touches, so six fresh views take
	// 100 steps each.
	image, pending := ImageHash(base.Snapshot()), buf.PendingLines()
	for _, drop := range []func(uint64) bool{nil, func(uint64) bool { return true }} {
		for range 3 {
			m := modelOf(refCrashImage(base, drop))
			m.kept = func(pn uint64) bool { return base.lookup(pn) != nil || base.borrowed(pn) != nil }
			driveModel(t, r, base.CrashView(drop), m, 100)
		}
	}
	if ImageHash(base.Snapshot()) != image || buf.PendingLines() != pending {
		t.Fatal("accesses through the crash views changed the device they view")
	}
}

// driveModel runs steps seeded random accesses on d and m and checks d
// against m after each.
func driveModel(t *testing.T, r *rand.Rand, d *Device, m *byteModel, steps int) {
	t.Helper()
	size := d.Size()
	anchors := []uint64{0, pageSize, (leafPages - 1) * pageSize, leafPages * pageSize,
		(leafPages + 1) * pageSize, (size - 1) / pageSize * pageSize, size}
	offset := func() uint64 {
		a := anchors[r.Intn(len(anchors))]
		if r.Intn(4) == 0 {
			return a + uint64(r.Intn(pageSize)) // anywhere in the page
		}
		if a += uint64(r.Intn(81)); a >= 40 {
			return a - 40 // within 40 bytes of the boundary
		}
		return 0
	}
	length := func() uint64 {
		switch r.Intn(4) {
		case 0:
			return uint64(r.Intn(3 * pageSize))
		case 1:
			return uint64(1+r.Intn(2)) * pageSize
		default:
			return uint64(r.Intn(24))
		}
	}
	for step := 0; step < steps; step++ {
		off := offset()
		var n uint64
		var err error
		switch r.Intn(9) {
		case 0: // WriteAt
			n = length()
			b := make([]byte, n)
			for j := range b {
				if r.Intn(3) > 0 {
					b[j] = byte(1 + r.Intn(255))
				}
			}
			if err = d.WriteAt(b, off); err == nil {
				m.write(off, b)
			}
		case 1: // Write8
			n = 8
			v := r.Uint64()
			if r.Intn(4) == 0 {
				v = 0
			}
			var b [8]byte
			put64(b[:], v)
			if err = d.Write8(off, v); err == nil {
				m.write(off, b[:])
			}
		case 2: // ReadAt
			n = length()
			b := make([]byte, n)
			if err = d.ReadAt(b, off); err == nil && !bytes.Equal(b, m.read(off, n)) {
				t.Fatalf("step %d: ReadAt(%d, %d) differs from the model", step, off, n)
			}
		case 3: // Read8
			n = 8
			var v uint64
			if v, err = d.Read8(off); err == nil && v != le64(m.read(off, 8)) {
				t.Fatalf("step %d: Read8(%d) = %#x, model %#x", step, off, v, le64(m.read(off, 8)))
			}
		case 4: // ReadWords
			words := make([]uint64, r.Intn(3*pageSize/8))
			n = 8 * uint64(len(words))
			if err = d.ReadWords(words, off); err == nil {
				for j, v := range words {
					if want := le64(m.read(off+uint64(j)*8, 8)); v != want {
						t.Fatalf("step %d: ReadWords(%d) word %d = %#x, model %#x", step, off, j, v, want)
					}
				}
			}
		case 5: // Zero, whole pages
			off = off / pageSize * pageSize
			n = uint64(1+r.Intn(2)) * pageSize
			if err = d.Zero(off, n); err == nil {
				m.zero(off, n)
			}
		case 6: // Zero, partial
			n = length()
			if err = d.Zero(off, n); err == nil {
				m.zero(off, n)
			}
		case 7: // Flush: changes no byte and takes any range
			d.Flush(off, length())
			off = 0
		case 8: // Fence: changes no byte
			d.Fence()
			off = 0
		}
		if inRange := off+n <= size; inRange != (err == nil) || (err != nil && !errors.Is(err, ErrOutOfRange)) {
			t.Fatalf("step %d: access [%d, %d) on a %d-byte device: err %v", step, off, off+n, size, err)
		}
		m.check(t, d, step)
	}
}
