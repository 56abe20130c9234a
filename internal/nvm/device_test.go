package nvm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// forEachBacking runs f on a table-backed NVM device of the given size
// and on a map-backed one past maxTablePages pages, so a device test
// covers both storage representations.
func forEachBacking(t *testing.T, size uint64, f func(t *testing.T, d *Device)) {
	t.Helper()
	table, sparse := NewDevice(NVM, size), NewDevice(NVM, 2*maxTablePages*pageSize)
	if table.table == nil || sparse.pages == nil {
		t.Fatal("want one table-backed and one map-backed device")
	}
	t.Run("table", func(t *testing.T) { f(t, table) })
	t.Run("map", func(t *testing.T) { f(t, sparse) })
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
		if d.Writes != 8 || d.Reads != 16 {
			t.Fatalf("counters = %d writes %d reads, want 8/16", d.Writes, d.Reads)
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

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache(32<<10, 8, 64)
	if c.Access(0) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0) {
		t.Fatal("second access should hit")
	}
	if !c.Access(63) {
		t.Fatal("same-line access should hit")
	}
	if c.Access(64) {
		t.Fatal("next line should miss")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 sets x 2 ways x 64B lines = 256 bytes.
	c := NewCache(256, 2, 64)
	// Fill set 0 with two lines: addresses 0 and 128 map to set 0.
	c.Access(0)
	c.Access(128)
	c.Access(0) // make 0 most-recent
	// A third line in set 0 must evict 128 (LRU).
	c.Access(256)
	if !c.Access(0) {
		t.Fatal("MRU line was evicted")
	}
	if c.Access(128) {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	c := NewCache(1<<10, 4, 64)
	c.Access(0)
	c.InvalidateAll()
	if c.Access(0) {
		t.Fatal("access after invalidate should miss")
	}
}

func TestCacheHitRateOnLoop(t *testing.T) {
	c := NewCache(32<<10, 8, 64)
	// Working set that fits: expect high hit rate after warmup.
	for pass := 0; pass < 10; pass++ {
		for a := uint64(0); a < 16<<10; a += 64 {
			c.Access(a)
		}
	}
	if c.HitRate() < 0.85 {
		t.Fatalf("hit rate %f too low for fitting working set", c.HitRate())
	}
}

func TestCacheRandomizedNoCrash(t *testing.T) {
	c := NewCache(8<<10, 4, 64)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		c.Access(r.Uint64() % (1 << 40))
	}
	hits, misses := c.Stats()
	if hits+misses != 10000 {
		t.Fatalf("accesses lost: %d", hits+misses)
	}
}
