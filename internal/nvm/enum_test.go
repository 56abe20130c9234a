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

	// Keep line 0's writeback, drop line 1's: the low half persists.
	if got := img8(t, d.CrashView(func(ln uint64) bool { return ln == 1 }), 60); got != v&0xffffffff {
		t.Fatalf("torn straddle low half = %#x, want %#x", got, v&0xffffffff)
	}
	// Keep line 1's, drop line 0's: the high half persists.
	if got := img8(t, d.CrashView(func(ln uint64) bool { return ln == 0 }), 60); got != v&^uint64(0xffffffff) {
		t.Fatalf("torn straddle high half = %#x, want %#x", got, v&^uint64(0xffffffff))
	}
	// Fence makes the whole store durable.
	d.Fence()
	if got := img8(t, d.CrashView(func(uint64) bool { return true }), 60); got != v {
		t.Fatalf("fenced straddle = %#x, want %#x", got, v)
	}
}

// TestCrashImageDropCallbackOrdering pins the documented contract the
// enumerator's bitmask addressing relies on: the drop callback is
// consulted exactly once per in-flight writeback, in ascending line
// order, matching UnfencedLines.
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
	d.CrashView(func(ln uint64) bool {
		consulted = append(consulted, ln)
		return false
	})
	want := []uint64{1, 5, 9}
	if !reflect.DeepEqual(consulted, want) {
		t.Fatalf("drop callback order = %v, want %v", consulted, want)
	}
	if got := b.UnfencedLines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("UnfencedLines = %v, want %v", got, want)
	}
}

// TestForEachCrashImageEnumeratesAllSubsets checks the exhaustive walk:
// with k in-flight writebacks there are exactly 2^k images, they are
// pairwise distinct when the lines hold distinct dirty values, and the
// all-kept image equals CrashView(nil)'s.
func TestForEachCrashImageEnumeratesAllSubsets(t *testing.T) {
	d := NewDevice(NVM, 1<<20)
	b := d.EnablePersistBuffer(64)
	for _, ln := range []uint64{0, 1, 2} {
		d.Write8(ln*64, ln+10)
		d.Flush(ln*64, 8)
	}
	seen := make(map[[32]byte]bool)
	n := 0
	if err := b.ForEachCrashImage(func(view *Device) bool {
		seen[ImageHash(view)] = true
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 8 || len(seen) != 8 {
		t.Fatalf("enumerated %d images, %d distinct; want 8/8", n, len(seen))
	}
	if !seen[ImageHash(d.CrashView(nil))] {
		t.Fatal("strict (all-kept) image missing from the enumeration")
	}
	// Early exit stops the walk.
	n = 0
	if err := b.ForEachCrashImage(func(*Device) bool { n++; return n < 3 }); err != nil {
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
	if err := b.ForEachCrashImage(func(*Device) bool { return true }); err == nil {
		t.Fatalf("%d writebacks accepted beyond the %d-line cap", MaxEnumLines+1, MaxEnumLines)
	}
}

// TestImageHashNormalizesZeroPages: an image with an explicit all-zero
// page hashes like one where that page was never materialized, page
// content and number both feed the digest, and a view's borrowed pages
// hash in page order with its own.
func TestImageHashNormalizesZeroPages(t *testing.T) {
	empty := ImageHash(NewDevice(NVM, 1<<20))
	a := NewDevice(NVM, 1<<20)
	a.Write8(pageSize+8, 0)
	if a.FootprintPages() != 1 || ImageHash(a) != empty {
		t.Fatal("all-zero page changed the hash")
	}
	hash := func(off uint64, v uint64) [32]byte {
		d := NewDevice(NVM, 1<<20)
		d.Write8(off, v)
		return ImageHash(d)
	}
	if hash(pageSize+5, 1) == hash(2*pageSize+5, 1) {
		t.Fatal("page number not part of the hash")
	}
	if hash(pageSize+5, 1) == hash(pageSize+6, 1) {
		t.Fatal("page content not part of the hash")
	}
	d := NewDevice(NVM, 1<<20)
	d.Write8(pageSize+5, 1)
	d.Write8(2*pageSize+5, 1)
	want := ImageHash(d)
	d.EnablePersistBuffer(0)
	d.Write8(2*pageSize+64, 7) // buffered: the view owns page 2, borrows page 1
	if ImageHash(d.CrashView(nil)) != want {
		t.Fatal("a view's own and borrowed pages hash differently from the durable image")
	}
}
