package nvm

import (
	"reflect"
	"testing"
)

// TestCrashImagePartialLineStraddle covers stores that straddle a line
// boundary: each overlapped line persists independently, so a crash can
// tear the store — one half durable, the other reverted.
func TestCrashImagePartialLineStraddle(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	d.EnablePersistBuffer(64)
	// 8 bytes at offset 60: bytes 60-63 land in line 0, 64-67 in line 1.
	var v uint64 = 0x1111222233334444
	d.Write8(60, v)
	d.Flush(60, 8)

	read8 := func(img map[uint64][]byte, off uint64) uint64 {
		t.Helper()
		r := NewDevice(NVM, 1<<20)
		r.Restore(img)
		got, err := r.Read8(off)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Keep line 0's writeback, drop line 1's: the low half persists.
	img := d.CrashImage(func(ln uint64) bool { return ln == 1 })
	if got := read8(img, 60); got != v&0xffffffff {
		t.Fatalf("torn straddle low half = %#x, want %#x", got, v&0xffffffff)
	}
	// Keep line 1's, drop line 0's: the high half persists.
	img = d.CrashImage(func(ln uint64) bool { return ln == 0 })
	if got := read8(img, 60); got != v&^uint64(0xffffffff) {
		t.Fatalf("torn straddle high half = %#x, want %#x", got, v&^uint64(0xffffffff))
	}
	// Fence makes the whole store durable.
	d.Fence()
	if got := read8(d.CrashImage(func(uint64) bool { return true }), 60); got != v {
		t.Fatalf("fenced straddle = %#x, want %#x", got, v)
	}
}

// TestCrashImageDropCallbackOrdering pins the documented contract the
// enumerator's bitmask addressing relies on: the drop callback is
// consulted exactly once per in-flight writeback, in ascending line
// order, matching AppendUnfenced.
func TestCrashImageDropCallbackOrdering(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	// Dirty and flush lines 5, 1, 9 (insertion order scrambled), plus a
	// dirty-unflushed line 3 that must not be consulted.
	for _, ln := range []uint64{5, 1, 9} {
		d.Write8(ln*64, ln+1)
		d.Flush(ln*64, 8)
	}
	d.Write8(3*64, 7)

	var consulted []uint64
	d.CrashImage(func(ln uint64) bool {
		consulted = append(consulted, ln)
		return false
	})
	want := []uint64{1, 5, 9}
	if !reflect.DeepEqual(consulted, want) {
		t.Fatalf("drop callback order = %v, want %v", consulted, want)
	}
	if got := b.AppendUnfenced(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendUnfenced = %v, want %v", got, want)
	}
}

// TestAppendUnfencedIsAllocationStable reuses one backing slice across
// calls and checks both the sort order and that no per-call allocation
// is needed once capacity exists.
func TestAppendUnfencedIsAllocationStable(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	for _, ln := range []uint64{8, 2, 4} {
		d.Write8(ln*64, 1)
		d.Flush(ln*64, 8)
	}
	buf := make([]uint64, 0, 8)
	got := b.AppendUnfenced(buf)
	if !reflect.DeepEqual(got, []uint64{2, 4, 8}) {
		t.Fatalf("sorted lines = %v", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = b.AppendUnfenced(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendUnfenced allocates %v per call with reused dst", allocs)
	}
	// Appending after existing content must not disturb the prefix.
	pre := []uint64{99}
	got = b.AppendUnfenced(pre)
	if !reflect.DeepEqual(got, []uint64{99, 2, 4, 8}) {
		t.Fatalf("append-with-prefix = %v", got)
	}
}

// TestForEachCrashImageEnumeratesAllSubsets checks the exhaustive walk:
// with k in-flight writebacks there are exactly 2^k images, they are
// pairwise distinct when the lines hold distinct dirty values, and the
// all-kept image equals CrashImage(nil).
func TestForEachCrashImageEnumeratesAllSubsets(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	for _, ln := range []uint64{0, 1, 2} {
		d.Write8(ln*64, ln+10)
		d.Flush(ln*64, 8)
	}
	seen := make(map[[32]byte]bool)
	n := 0
	if err := b.ForEachCrashImage(func(img map[uint64][]byte) bool {
		seen[ImageHash(img)] = true
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 8 || len(seen) != 8 {
		t.Fatalf("enumerated %d images, %d distinct; want 8/8", n, len(seen))
	}
	if !seen[ImageHash(d.CrashImage(nil))] {
		t.Fatal("strict (all-kept) image missing from the enumeration")
	}
	// Early exit stops the walk.
	n = 0
	if err := b.ForEachCrashImage(func(map[uint64][]byte) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early exit visited %d images, want 3", n)
	}
}

// TestForEachCrashImageCapsLineCount rejects exponential blowups.
func TestForEachCrashImageCapsLineCount(t *testing.T) {
	d := NewDevice(NVM, 1<<24)
	b := d.EnablePersistBuffer(64)
	for ln := uint64(0); ln <= MaxEnumLines; ln++ {
		d.Write8(ln*64, ln+1)
		d.Flush(ln*64, 8)
	}
	if err := b.ForEachCrashImage(func(map[uint64][]byte) bool { return true }); err == nil {
		t.Fatalf("%d writebacks accepted beyond the %d-line cap", MaxEnumLines+1, MaxEnumLines)
	}
}

// TestImageHashNormalizesZeroPages: an image with an explicit all-zero
// page hashes like one where that page was never materialized, and page
// content/number both feed the digest.
func TestImageHashNormalizesZeroPages(t *testing.T) {
	a := map[uint64][]byte{1: make([]byte, pageSize)}
	if ImageHash(a) != ImageHash(map[uint64][]byte{}) {
		t.Fatal("all-zero page changed the hash")
	}
	p := make([]byte, pageSize)
	p[5] = 1
	h1 := ImageHash(map[uint64][]byte{1: p})
	h2 := ImageHash(map[uint64][]byte{2: p})
	if h1 == h2 {
		t.Fatal("page number not part of the hash")
	}
	q := make([]byte, pageSize)
	q[6] = 1
	if ImageHash(map[uint64][]byte{1: p}) == ImageHash(map[uint64][]byte{1: q}) {
		t.Fatal("page content not part of the hash")
	}
}
