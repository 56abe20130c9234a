package nvm

import "testing"

// BenchmarkCacheAccessHit measures the simulated-cache lookup on a
// hit-heavy pattern (a short ring that fits in the cache).
func BenchmarkCacheAccessHit(b *testing.B) {
	c := NewCache(32*1024, 8, 64)
	b.ReportAllocs()
	var a uint64
	for i := 0; i < b.N; i++ {
		c.Access(a)
		a = (a + 64) % (16 * 1024)
	}
}

// BenchmarkCacheAccessMiss measures the lookup on a miss-heavy pattern (a
// stride walk over a footprint far larger than the cache).
func BenchmarkCacheAccessMiss(b *testing.B) {
	c := NewCache(32*1024, 8, 64)
	b.ReportAllocs()
	var a uint64
	for i := 0; i < b.N; i++ {
		c.Access(a)
		a = (a + 4096 + 64) % (1 << 30)
	}
}

// BenchmarkDeviceRead8 measures the word read fast path.
func BenchmarkDeviceRead8(b *testing.B) {
	d := NewDevice(NVM, 1<<26)
	for off := uint64(0); off < 1<<20; off += 8 {
		if err := d.Write8(off, off); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var off uint64
	for i := 0; i < b.N; i++ {
		if _, err := d.Read8(off); err != nil {
			b.Fatal(err)
		}
		off = (off + 8) % (1 << 20)
	}
}

// BenchmarkDeviceWrite8 measures the word write fast path.
func BenchmarkDeviceWrite8(b *testing.B) {
	d := NewDevice(NVM, 1<<26)
	b.ReportAllocs()
	var off uint64
	for i := 0; i < b.N; i++ {
		if err := d.Write8(off, uint64(i)); err != nil {
			b.Fatal(err)
		}
		off = (off + 8) % (1 << 20)
	}
}

// BenchmarkNewDevice measures creating a 2 GB device and writing one
// word: what crash recovery pays for every image it checks on a fresh
// device.
func BenchmarkNewDevice(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := NewDevice(NVM, 2<<30).Write8(0, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
