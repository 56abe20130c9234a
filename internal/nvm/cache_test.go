package nvm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/params"
)

// accessAll runs addrs through c and returns how many hit and missed.
func accessAll(c *Cache, addrs ...uint64) (hits, misses int) {
	for _, a := range addrs {
		if c.Access(a) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
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
	c = NewCache(32<<10, 8, 64)
	if hits, misses := accessAll(c, 0, 0, 63, 64); hits != 2 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d", hits, misses)
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
	var hits, total int
	for pass := 0; pass < 10; pass++ {
		for a := uint64(0); a < 16<<10; a += 64 {
			h, _ := accessAll(c, a)
			hits += h
			total++
		}
	}
	if rate := float64(hits) / float64(total); rate < 0.85 {
		t.Fatalf("hit rate %f too low for fitting working set", rate)
	}
}

func TestCacheRandomizedNoCrash(t *testing.T) {
	c := NewCache(8<<10, 4, 64)
	r := rand.New(rand.NewSource(7))
	var hits, misses int
	for i := 0; i < 10000; i++ {
		h, m := accessAll(c, r.Uint64()%(1<<40))
		hits += h
		misses += m
	}
	if hits+misses != 10000 {
		t.Fatalf("accesses lost: %d", hits+misses)
	}
}

// TestCacheInvalidateAllEpochWrap checks that a set last filled 2^32
// invalidations ago does not look current when the epoch counter wraps.
func TestCacheInvalidateAllEpochWrap(t *testing.T) {
	c := NewCache(1<<10, 4, 64)
	c.Access(0)
	c.epoch = math.MaxUint32 // as after 2^32-1 more invalidations
	c.InvalidateAll()
	if c.Access(0) {
		t.Fatal("line survived 2^32 invalidations")
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestNewCacheRejectsNonPowerOfTwoGeometry checks the geometries that
// set indexing by mask would alias: with 3 sets, line 64 would hit after
// only line 0 was accessed.
func TestNewCacheRejectsNonPowerOfTwoGeometry(t *testing.T) {
	mustPanic(t, "has 3 sets, not a power of two", func() { NewCache(384, 2, 64) })
	mustPanic(t, "line size 48 is not a power of two", func() { NewCache(3<<10, 2, 48) })
}

// TestNewCacheRejectsAssociativityAbove16 checks the packed recency
// order's limit of sixteen ways (the 16-way L2 of
// TestCacheMatchesReferenceLRU is the largest accepted).
func TestNewCacheRejectsAssociativityAbove16(t *testing.T) {
	mustPanic(t, "associativity 17 outside [1, 16]", func() { NewCache(17*4*64, 17, 64) })
	mustPanic(t, "associativity 0 outside [1, 16]", func() { NewCache(1<<10, 0, 64) })
}

// refLRU is the naive reference the cache model must agree with: each
// way holds a full line number and the tick of its last use (0 while
// invalid); a miss fills the first invalid way, else the way with the
// smallest tick.
type refLRU struct {
	nsets, nways int
	line         uint64
	lines, ticks []uint64
	now          uint64
}

func newRefLRU(size, ways, line int) *refLRU {
	nsets := size / (ways * line)
	return &refLRU{
		nsets: nsets, nways: ways, line: uint64(line),
		lines: make([]uint64, nsets*ways),
		ticks: make([]uint64, nsets*ways),
	}
}

func (r *refLRU) access(a uint64) bool {
	ln := a / r.line
	base := int(ln%uint64(r.nsets)) * r.nways
	r.now++
	victim := base
	for i := base; i < base+r.nways; i++ {
		if r.ticks[i] != 0 && r.lines[i] == ln {
			r.ticks[i] = r.now
			return true
		}
		if r.ticks[i] < r.ticks[victim] {
			victim = i
		}
	}
	r.lines[victim], r.ticks[victim] = ln, r.now
	return false
}

func (r *refLRU) invalidateAll() { clear(r.ticks) }

// olderLine returns the address of a line in a random full set that is
// not the set's most recently used one.
func (r *refLRU) olderLine(rng *rand.Rand) uint64 {
	base := rng.Intn(r.nsets) * r.nways
	ticks := r.ticks[base : base+r.nways]
	mru := 0
	for i := range ticks {
		if ticks[i] > ticks[mru] {
			mru = i
		}
	}
	i := rng.Intn(r.nways - 1)
	if i >= mru {
		i++
	}
	return r.lines[base+i] * r.line
}

// cacheGeometries are the four Table II models plus the smallest
// set-associative one.
var cacheGeometries = []struct {
	name             string
	size, ways, line int
}{
	{"L1D", params.L1DSize, params.L1DWays, params.LineSize},
	{"L2", params.L2Size, params.L2Ways, params.LineSize},
	{"L1TLB", params.L1TLBEntries * params.PageSize, params.L1TLBWays, params.PageSize},
	{"L2TLB", params.L2TLBEntries * params.PageSize, params.L2TLBWays, params.PageSize},
	{"2set2way", 256, 2, 64},
}

// TestCacheMatchesReferenceLRU drives the model and the reference with
// the same seeded streams and requires every Access result to agree.
// The streams mix repeats of the previous line, reuse of a recent line
// and random lines over four times the capacity, under a random base.
// An InvalidateAll comes about every 1,000 accesses, or every eight
// capacities' worth in the larger models, so that their sets fill and
// evict between invalidations.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, g := range cacheGeometries {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				c, ref := NewCache(g.size, g.ways, g.line), newRefLRU(g.size, g.ways, g.line)
				rng := rand.New(rand.NewSource(seed))
				line := uint64(g.line)
				span := uint64(4 * g.size / g.line)
				invalidateEvery := max(1000, 2*int(span))
				accesses := max(200_000, 4*invalidateEvery)
				base := rng.Uint64() >> 8 / line * line
				var recent [64]uint64
				prev := base
				hits := 0
				for i := 0; i < accesses; i++ {
					if rng.Intn(invalidateEvery) == 0 {
						c.InvalidateAll()
						ref.invalidateAll()
					}
					var a uint64
					switch k := rng.Intn(10); {
					case k < 3:
						a = prev
					case k < 6:
						a = recent[rng.Intn(len(recent))]
					default:
						a = base + uint64(rng.Int63n(int64(span)))*line
					}
					a = a/line*line + uint64(rng.Intn(g.line))
					recent[i%len(recent)] = a
					prev = a
					got, want := c.Access(a), ref.access(a)
					if got != want {
						t.Fatalf("access %d (%#x): model hit=%v, reference hit=%v", i, a, got, want)
					}
					if got {
						hits++
					}
				}
				if hits < accesses/10 || hits > accesses*9/10 {
					t.Fatalf("stream hit %d of %d accesses: too uniform to test replacement", hits, accesses)
				}
			})
		}
	}
}
