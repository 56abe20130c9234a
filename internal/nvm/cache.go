package nvm

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative cache model with LRU replacement, used for
// the simulated L1D and shared L2 of Table II (and, in internal/paging,
// for the two TLB levels). It tracks tags only (data lives in the
// devices); lookups report hit/miss so the memory hierarchy can charge
// the right latency.
//
// Replacement semantics are exactly the classic model: a hit makes its
// way the most recently used; a miss fills the first invalid way, else
// the least-recently-used one.
//
// The representation is tuned for the simulator's hottest loop: every
// simulated memory access walks up to four of these models, and most L2
// lookups miss. A set is one 16-byte header plus one uint64 tag per way:
//
//   - The header holds the count n of valid ways and the set's recency
//     order, packed 4 bits per way into one word: nibble 0 names the
//     most-recently-used way, nibble n-1 the least.
//   - A lookup first compares the most-recently-used way's tag, the
//     common hit, then scans the tags of the n valid ways. A miss in a
//     full 16-way set reads the header and two host cache lines of tags.
//   - InvalidateAll bumps a cache epoch; a set empties itself on its next
//     access when it sees the epoch moved.
//
// This is exact LRU, not an approximation of it:
//
//   - Ways fill in index order and are only cleared all at once, so the
//     valid ways are always the prefix 0..n-1: the first invalid way is
//     way n.
//   - Every hit and fill updates the recency order, so its last entry is
//     the way whose last use is oldest: the victim a last-use timestamp
//     per way would pick, since such timestamps never tie.
//
// TestCacheMatchesReferenceLRU checks every Access result against a
// timestamp-per-way reference model.
type Cache struct {
	sets     []cset
	tags     []uint64
	nways    int
	setMask  uint64
	lineBits uint
	tagShift uint
	epoch    uint32
}

// cset is a set header.
type cset struct {
	order uint64 // valid way indices by recency, nibble 0 the MRU way
	n     uint32 // valid ways: ways 0..n-1
	epoch uint32 // cache epoch the header was last reset under
}

// maxWays is the associativity the recency order can hold: sixteen 4-bit
// way indices fill its word.
const maxWays = 16

// NewCache builds a cache of the given total size, associativity and line
// size, all in bytes. The line size and the set count size/(ways*line)
// must be powers of two and ways at most 16; NewCache panics otherwise,
// since any other geometry would index distinct lines to one set entry.
func NewCache(size, ways, line int) *Cache {
	if ways < 1 || ways > maxWays {
		panic(fmt.Sprintf("nvm: cache associativity %d outside [1, %d]", ways, maxWays))
	}
	if line < 1 || line&(line-1) != 0 {
		panic(fmt.Sprintf("nvm: cache line size %d is not a power of two", line))
	}
	nsets := max(size/(ways*line), 1)
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("nvm: cache of %d bytes, %d ways and %d-byte lines has %d sets, not a power of two",
			size, ways, line, nsets))
	}
	return &Cache{
		sets:     make([]cset, nsets),
		tags:     make([]uint64, nsets*ways),
		nways:    ways,
		setMask:  uint64(nsets - 1),
		lineBits: uint(bits.TrailingZeros(uint(line))),
		tagShift: uint(bits.TrailingZeros(uint(nsets))),
	}
}

// Access looks up address a, inserting the line on a miss, and reports
// whether it hit.
func (c *Cache) Access(a uint64) bool {
	lineAddr := a >> c.lineBits
	set := int(lineAddr & c.setMask)
	tag := lineAddr >> c.tagShift
	s := &c.sets[set]
	if s.epoch != c.epoch {
		*s = cset{epoch: c.epoch}
	}
	tags := c.tags[set*c.nways : (set+1)*c.nways]
	n := int(s.n)
	if n > 0 && tags[s.order&0xF] == tag {
		return true
	}
	for w, t := range tags[:n] {
		if t == tag {
			s.promote(w)
			return true
		}
	}
	w := n
	if n < c.nways {
		s.n++
	} else {
		// The victim is the last of the n ranks. (& 63 changes nothing
		// but spares the compiler's check for shifts of 64 or more.)
		w = int(s.order >> (uint(4*(n-1)) & 63) & 0xF)
	}
	s.order = s.order<<4 | uint64(w)
	tags[w] = tag
	return false
}

// promote moves valid way w to the front of the set's recency order.
func (s *cset) promote(w int) {
	// w's rank r is the lowest nibble of order equal to w: the lowest
	// zero nibble of v = order^(w in every nibble), flagged by the SWAR
	// zero test (a borrow can raise false flags only above it). With
	// at = 4r, the ranks below r move up one and those above r stay; for
	// r = 15, 16<<at overflows to 0 and its mask to all ones.
	const nibbleLSB, nibbleMSB = 0x1111111111111111, 0x8888888888888888
	o := s.order
	v := o ^ nibbleLSB*uint64(w)
	at := uint(bits.TrailingZeros64((v-nibbleLSB)&^v&nibbleMSB)) & 60
	s.order = o&^(16<<at-1) | (o&(1<<at-1))<<4 | uint64(w)
}

// InvalidateAll empties the cache (used on randomization remaps, which
// change the virtual placement of PMO lines in a virtually-indexed model).
// It is O(1): each set resets its valid count lazily on its next access
// when it notices the cache epoch moved.
func (c *Cache) InvalidateAll() {
	c.epoch++
	if c.epoch == 0 {
		// The epoch wrapped: a set last touched 2^32 invalidations ago
		// would look current, so empty every set now.
		clear(c.sets)
	}
}
