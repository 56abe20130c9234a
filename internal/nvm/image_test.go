package nvm

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// testImage returns an image of random words over ten pages that span
// the first leaf boundary: it starts 40 bytes into page 1016 and ends 240
// bytes into page 1025. Page 1023 is all zero, so the image does not hold
// it. Near the image, driveModel's accesses cluster at pages 1022-1026,
// so pages 1017-1021 stay read through while it runs.
func testImage(r *rand.Rand) *Image {
	lo := uint64(leafPages-8)*pageSize + 40
	words := make([]uint64, (9*pageSize+200)/8)
	for i := range words {
		if (lo+8*uint64(i))/pageSize != leafPages-1 && r.Intn(4) > 0 {
			words[i] = r.Uint64() | 1
		}
	}
	return NewImage(words, lo)
}

// mappedDevice returns a device of the given size that mapped img while
// holding page 0 and the page of the word just before img's range (where
// a hash table's allocator block header lies), with the byte model of the
// result: the device's own bytes and the image's.
func mappedDevice(t *testing.T, img *Image, size uint64) (*Device, *byteModel) {
	t.Helper()
	d := NewDevice(NVM, size)
	m := modelOf(nil)
	for _, off := range []uint64{0, img.lo - 8} {
		write8(d, m, off, 0xb10c)
	}
	if err := d.MapImage(img); err != nil {
		t.Fatal(err)
	}
	held := maps.Clone(m.pages)
	b := make([]byte, img.hi-img.lo)
	img.dev.readRaw(b, img.lo)
	m.write(img.lo, b)
	m.pages = held
	for pn := range img.dev.Snapshot() {
		m.pages[pn] = true
	}
	m.kept = func(pn uint64) bool { return img.dev.lookup(pn) != nil }
	return d, m
}

// write8 writes v at off to d and to its model m.
func write8(d *Device, m *byteModel, off, v uint64) {
	var b [8]byte
	put64(b[:], v)
	d.Write8(off, v)
	m.write(off, b[:])
}

// TestImageHoldsOnlyNonzeroPages: an image holds the pages with a nonzero
// word of its range and no other, and a device that mapped it gains the
// image's pages it did not hold, as writing the words would have left.
func TestImageHoldsOnlyNonzeroPages(t *testing.T) {
	img := testImage(rand.New(rand.NewSource(1)))
	if got := img.dev.FootprintPages(); got != 9 || img.dev.lookup(leafPages-1) != nil {
		t.Fatalf("image holds %d pages (page %d: %v), want 9 without the all-zero one",
			got, leafPages-1, img.dev.lookup(leafPages-1) != nil)
	}
	d, m := mappedDevice(t, img, 2<<30)
	if d.FootprintPages() != 10 || len(m.pages) != 10 {
		t.Fatalf("mapped device has %d pages, model %d; want page 0 and the image's 9", d.FootprintPages(), len(m.pages))
	}
	words := make([]uint64, (img.hi-img.lo)/8)
	written := NewDevice(NVM, 2<<30)
	written.Write8(0, 0xb10c)
	written.Write8(img.lo-8, 0xb10c)
	img.dev.ReadWords(words, img.lo)
	for i, w := range words {
		if w != 0 {
			written.Write8(img.lo+8*uint64(i), w)
		}
	}
	if ImageHash(d) != ImageHash(written) || d.FootprintPages() != written.FootprintPages() {
		t.Fatal("mapping the image differs from writing its nonzero words")
	}
}

// TestMapImageContract: mapping onto a device with a persist buffer, onto
// a crash view or a second time is a caller's bug and panics, stating the
// contract; a range past the device's end is an error and maps nothing.
func TestMapImageContract(t *testing.T) {
	img := NewImage([]uint64{1, 2, 3}, 2*pageSize)
	panics := func(name, want string, d *Device) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Errorf("%s: recovered %q, want a panic naming %q", name, msg, want)
			}
		}()
		d.MapImage(img)
	}
	buffered := NewDevice(NVM, 1<<20)
	buffered.EnablePersistBuffer(0)
	panics("persist buffer", "persist buffer", buffered)
	panics("crash view", "crash view", NewDevice(NVM, 1<<20).CrashView(nil))
	twice := NewDevice(NVM, 1<<20)
	if err := twice.MapImage(img); err != nil {
		t.Fatal(err)
	}
	panics("second image", "already mapped an image", twice)
	short := NewDevice(NVM, 2*pageSize+16)
	if err := short.MapImage(img); err == nil || short.base != nil {
		t.Fatalf("image past the device's end: err %v, mapped %v", err, short.base != nil)
	}
}

// TestImageMappingsIsolated is the image's property check. Two devices
// map one image, and seeded rounds mutate either one by every kind of
// write: Write8, WriteAt, whole-page and part-page Zero, Restore, writes
// through a persist buffer, and recovery writes to a crash view. After
// each, the image is unchanged and each device, and the view, reads its
// own writes and nothing of the other's.
func TestImageMappingsIsolated(t *testing.T) {
	const size = uint64(leafPages+8) * pageSize // every access below is in range
	r := rand.New(rand.NewSource(7))
	img := testImage(r)
	want := ImageHash(img.dev)
	offset := func() uint64 { // around the image's range
		return img.lo - 2*pageSize + uint64(r.Intn(int(img.hi-img.lo)+4*pageSize))
	}
	kinds := map[int]int{}
	for round := 0; round < 6; round++ {
		var devs [2]*Device
		var models [2]*byteModel
		for i := range devs {
			devs[i], models[i] = mappedDevice(t, img, size)
		}
		for step := 0; step < 40; step++ {
			i := r.Intn(2)
			d, m := devs[i], models[i]
			kind := r.Intn(7)
			kinds[kind]++
			switch kind {
			case 0: // Write8
				write8(d, m, offset(), r.Uint64())
			case 1: // WriteAt
				off := offset()
				b := make([]byte, r.Intn(2*pageSize))
				r.Read(b)
				d.WriteAt(b, off)
				m.write(off, b)
			case 2: // Zero, whole pages
				off := offset() / pageSize * pageSize
				d.Zero(off, pageSize)
				m.zero(off, pageSize)
			case 3: // Zero, partial
				off, n := offset(), uint64(r.Intn(pageSize))
				d.Zero(off, n)
				m.zero(off, n)
			case 4: // Restore: the device stops reading through
				d.Restore(d.Snapshot())
				m.kept = nil
			case 5: // writes through a persist buffer, flushed and fenced
				if d.PersistBuffer() == nil {
					d.EnablePersistBuffer(0)
				}
				for range 3 {
					off := offset()
					write8(d, m, off, r.Uint64())
					d.Flush(off, 8)
				}
				if r.Intn(2) == 0 {
					d.Fence()
				}
			case 6: // recovery writes to a crash view
				var vm *byteModel
				if d.PersistBuffer() == nil {
					vm = modelOf(d.Snapshot())
				} else {
					vm = modelOf(refCrashImage(d, nil))
				}
				vm.kept = func(pn uint64) bool { return d.lookup(pn) != nil || d.borrowed(pn) != nil }
				v := d.CrashView(nil)
				for range 4 {
					write8(v, vm, offset(), r.Uint64())
				}
				vm.check(t, v, step)
			}
			if ImageHash(img.dev) != want || img.dev.npages != 9 {
				t.Fatalf("round %d step %d: a write of kind %d reached the image", round, step, kind)
			}
			for j := range devs {
				models[j].check(t, devs[j], step)
			}
		}
	}
	if len(kinds) != 7 {
		t.Fatalf("mutation kinds run: %v, want all 7", kinds)
	}
}

// TestImageMappingsConcurrent: devices on several goroutines map one
// image, write, zero and read it, and take crash views of it at once.
// Under the race detector this shows that no path writes the image; each
// device must read only its own writes.
func TestImageMappingsConcurrent(t *testing.T) {
	img := testImage(rand.New(rand.NewSource(8)))
	want := ImageHash(img.dev)
	const workers = 4
	devs := make([]*Device, workers)
	models := make([]*byteModel, workers)
	for i := range devs {
		devs[i], models[i] = mappedDevice(t, img, 2<<30)
	}
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func(d *Device, m *byteModel, r *rand.Rand) {
			defer wg.Done()
			for step := 0; step < 300; step++ {
				off := img.lo - pageSize + uint64(r.Intn(int(img.hi-img.lo)+2*pageSize))
				switch r.Intn(5) {
				case 0:
					write8(d, m, off, r.Uint64())
				case 1:
					off = off / pageSize * pageSize
					d.Zero(off, pageSize)
					m.zero(off, pageSize)
				case 2:
					if v, _ := d.Read8(off); v != le64(m.read(off, 8)) {
						t.Errorf("step %d: Read8(%d) = %#x, model %#x", step, off, v, le64(m.read(off, 8)))
						return
					}
				case 3:
					v := d.CrashView(nil)
					v.Write8(off, 7)
					if got, _ := v.Read8(off); got != 7 {
						t.Errorf("step %d: crash view lost its write", step)
						return
					}
				case 4:
					words := make([]uint64, r.Intn(pageSize/8))
					d.ReadWords(words, off)
					for j, w := range words {
						if want := le64(m.read(off+8*uint64(j), 8)); w != want {
							t.Errorf("step %d: ReadWords(%d) word %d = %#x, model %#x", step, off, j, w, want)
							return
						}
					}
				}
			}
			got := make([]byte, img.hi-img.lo+2*pageSize)
			d.ReadAt(got, img.lo-pageSize)
			if !bytes.Equal(got, m.read(img.lo-pageSize, uint64(len(got)))) {
				t.Error("device differs from its model after the run")
			}
		}(devs[i], models[i], rand.New(rand.NewSource(int64(10+i))))
	}
	wg.Wait()
	if ImageHash(img.dev) != want {
		t.Fatal("the image changed")
	}
}

// TestMapImageCostIndependentOfPages: mapping copies into the pages the
// device already holds and reads through to the rest, so mapping a
// 512-page image (a preloaded hash table) makes the same allocations as
// mapping a one-page one: none.
func TestMapImageCostIndependentOfPages(t *testing.T) {
	allocs := func(pages int) float64 {
		const runs = 20
		words := make([]uint64, pages*pageSize/8)
		for i := range words {
			words[i] = uint64(i) + 1
		}
		img := NewImage(words, 1<<20+8)
		devs := make([]*Device, runs+1) // AllocsPerRun makes one warm-up call
		for i := range devs {
			devs[i] = NewDevice(NVM, 2<<30)
			devs[i].Write8(1<<20, 1) // the first page of the range
		}
		n := 0
		return testing.AllocsPerRun(runs, func() {
			if err := devs[n].MapImage(img); err != nil {
				panic(err)
			}
			n++
		})
	}
	if one, many := allocs(1), allocs(512); many != one || many != 0 {
		t.Fatalf("MapImage allocations: %v for 512 pages, %v for one; want none for both", many, one)
	}
}

// TestChangedPages: a page counts as changed against an image once the
// device reads it from a backing page other than the image's: after a
// write (a fresh page, or the copy of an image page), in a crash view
// that patched a buffered line into it or that recovery wrote, after
// Restore, and where the device held the page when it mapped the image.
// It counts as unchanged while the device reads it through to the image,
// and, against no image, while it was never written or a whole-page Zero
// dropped it. Spans are clipped to the range, ascending, and merge
// adjacent pages but not a span dst already held.
func TestChangedPages(t *testing.T) {
	page := func(pn uint64) Span { return Span{pn * pageSize, (pn + 1) * pageSize} }
	check := func(name string, got []Span, want ...Span) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s: changed %v, want %v", name, got, want)
		}
	}
	// The image covers pages 1 to 4 but holds no page 3, which is all zero.
	words := make([]uint64, 4*pageSize/8)
	for i := range words {
		if i*8/pageSize != 2 {
			words[i] = uint64(i) + 1
		}
	}
	img := NewImage(words, pageSize)

	d := NewDevice(NVM, 16*pageSize)
	d.Write8(pageSize+8, 7) // held when the image is mapped
	if err := d.MapImage(img); err != nil {
		t.Fatal(err)
	}
	check("mapped", d.ChangedPages(nil, img, pageSize, 4*pageSize), page(1))
	d.Write8(4*pageSize, 9) // copies an image page
	check("copy-on-write", d.ChangedPages(nil, img, pageSize, 4*pageSize), page(1), page(4))
	check("clipped", d.ChangedPages(nil, img, pageSize+100, 4*pageSize-200),
		Span{pageSize + 100, 2 * pageSize}, Span{4 * pageSize, 5*pageSize - 100})
	d.Write8(2*pageSize, 1) // joins page 1's span
	check("merged", d.ChangedPages(nil, img, pageSize, 4*pageSize), Span{pageSize, 3 * pageSize}, page(4))
	check("appended", d.ChangedPages([]Span{page(0)}, img, pageSize, pageSize), page(0), page(1))
	check("empty range", d.ChangedPages(nil, img, pageSize+8, 0))

	// Against no image: never written, written, and dropped by Zero.
	d.Write8(7*pageSize, 1)
	d.Write8(8*pageSize, 1)
	if err := d.Zero(8*pageSize, pageSize); err != nil {
		t.Fatal(err)
	}
	check("no image", d.ChangedPages(nil, nil, 6*pageSize, 4*pageSize), page(7))
	check("image pages against no image", d.ChangedPages(nil, nil, 3*pageSize, 2*pageSize), page(4))
	if err := d.Zero(3*pageSize, pageSize); err != nil { // the image's zero page: nothing to copy
		t.Fatal(err)
	}
	check("zeroed zero page", d.ChangedPages(nil, img, 3*pageSize, pageSize))

	// A crash view: a buffered line is patched into a page of its own,
	// recovery writes copy a page, the rest reads through to the image.
	e := NewDevice(NVM, 16*pageSize)
	if err := e.MapImage(img); err != nil {
		t.Fatal(err)
	}
	e.EnablePersistBuffer(0)
	e.Write8(2*pageSize+64, 5)
	v := e.CrashView(nil)
	if v.lookup(2) == nil {
		t.Fatal("the view holds no copy of the page with the buffered line")
	}
	check("view", v.ChangedPages(nil, img, pageSize, 4*pageSize), page(2))
	v.Write8(4*pageSize+8, 3)
	check("recovery write", v.ChangedPages(nil, img, pageSize, 4*pageSize), page(2), page(4))
	check("live device under the view", e.ChangedPages(nil, img, pageSize, 4*pageSize), page(2))

	// Restore leaves the device holding every page it restores.
	f := NewDevice(NVM, 16*pageSize)
	if err := f.MapImage(img); err != nil {
		t.Fatal(err)
	}
	check("read through", f.ChangedPages(nil, img, pageSize, 4*pageSize))
	f.Restore(f.Snapshot())
	check("restored", f.ChangedPages(nil, img, pageSize, 4*pageSize), Span{pageSize, 3 * pageSize}, page(4))
}
