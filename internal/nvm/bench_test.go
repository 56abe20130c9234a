package nvm

import (
	"math/rand"
	"testing"

	"repro/internal/params"
)

// BenchmarkCacheAccessMix measures the lookup on a seeded stream for
// each Table II model, shaped like the mix a serial fig9 grid (ops
// 10000, seed 1) drives through it: the percentage of accesses that hit
// the most-recently-used way of their set, that hit another way, and
// (the rest) that miss. The L2 and the L2 TLB see only what misses the
// level above, so nearly all their lookups miss. Every pass replays the
// stream from full sets, a cell's steady state.
func BenchmarkCacheAccessMix(b *testing.B) {
	for _, g := range []struct {
		name             string
		size, ways, line int
		mru, hit         int
	}{
		{"L1D", params.L1DSize, params.L1DWays, params.LineSize, 62, 9},
		{"L2", params.L2Size, params.L2Ways, params.LineSize, 1, 3},
		{"L1TLB", params.L1TLBEntries * params.PageSize, params.L1TLBWays, params.PageSize, 84, 4},
		{"L2TLB", params.L2TLBEntries * params.PageSize, params.L2TLBWays, params.PageSize, 4, 2},
	} {
		b.Run(g.name, func(b *testing.B) {
			const n = 1 << 16
			warm, stream := mixedStream(g.size, g.ways, g.line, g.mru, g.hit, n)
			c := NewCache(g.size, g.ways, g.line)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					b.StopTimer()
					c.InvalidateAll()
					for _, a := range warm {
						c.Access(a)
					}
					b.StartTimer()
				}
				c.Access(stream[i%n])
			}
		})
	}
}

// mixedStream returns a warm-up that fills every set of the given cache
// geometry, and a seeded stream of n addresses that, run after it, hits
// the most-recently-used way of its set on mru percent of accesses, hits
// another way on hit percent and misses on the rest.
func mixedStream(size, ways, line, mru, hit, n int) (warm, stream []uint64) {
	ref := newRefLRU(size, ways, line)
	nsets := uint64(ref.nsets)
	fresh := uint64(0)
	freshLine := func(set uint64) uint64 {
		fresh++
		return (fresh*nsets + set) * ref.line
	}
	for set := uint64(0); set < nsets; set++ {
		for w := 0; w < ways; w++ {
			a := freshLine(set)
			ref.access(a)
			warm = append(warm, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	prev := warm[len(warm)-1]
	for len(stream) < n {
		a := prev
		switch k := rng.Intn(100); {
		case k < mru:
		case k < mru+hit:
			a = ref.olderLine(rng)
		default:
			a = freshLine(uint64(rng.Int63n(int64(nsets))))
		}
		ref.access(a)
		stream = append(stream, a)
		prev = a
	}
	return warm, stream
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
