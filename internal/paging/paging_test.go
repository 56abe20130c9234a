package paging

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/params"
)

func newAS() *AddressSpace {
	return NewAddressSpace(rand.New(rand.NewSource(1)))
}

func dev() *nvm.Device { return nvm.NewDevice(nvm.NVM, 1<<32) }

func TestAttachLookupDetach(t *testing.T) {
	s := newAS()
	d := dev()
	m, err := s.Attach(1, 1<<30, d, 0, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if m.Base%(1<<30) != 0 {
		t.Fatalf("base %#x not 1GB-aligned", m.Base)
	}
	got, err := s.Lookup(m.Base + 12345)
	if err != nil || got != m {
		t.Fatalf("lookup failed: %v", err)
	}
	if _, err := s.Lookup(m.Base + m.Size); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("lookup past end should segfault, got %v", err)
	}
	if err := s.Detach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(m.Base); !errors.Is(err, ErrNotMapped) {
		t.Fatal("lookup after detach should segfault")
	}
}

func TestDoubleAttachRejected(t *testing.T) {
	s := newAS()
	d := dev()
	if _, err := s.Attach(1, 1<<20, d, 0, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Attach(1, 1<<20, d, 0, PermRead); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("second attach: %v", err)
	}
}

func TestDetachUnmappedRejected(t *testing.T) {
	s := newAS()
	if err := s.Detach(9); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("detach unmapped: %v", err)
	}
}

func TestRandomizeMovesBase(t *testing.T) {
	s := newAS()
	d := dev()
	m, err := s.Attach(1, 1<<26, d, 0, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	old := m.Base
	moved := false
	for i := 0; i < 8; i++ {
		nm, err := s.Randomize(1)
		if err != nil {
			t.Fatal(err)
		}
		if nm.Base != old {
			moved = true
		}
		if _, err := s.Lookup(nm.Base + 5); err != nil {
			t.Fatalf("lookup after randomize: %v", err)
		}
		old = nm.Base
	}
	if !moved {
		t.Fatal("randomize never moved the base")
	}
}

func TestRandomBasesDiffer(t *testing.T) {
	s := newAS()
	d := dev()
	seen := map[uint64]bool{}
	for i := uint32(1); i <= 6; i++ {
		m, err := s.Attach(i, 1<<24, d, uint64(i)<<24, ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		if seen[m.Base] {
			t.Fatalf("duplicate base %#x", m.Base)
		}
		seen[m.Base] = true
	}
	if len(s.maps) != 6 {
		t.Fatalf("attached = %d", len(s.maps))
	}
}

func TestMappingAccessors(t *testing.T) {
	s := newAS()
	d := dev()
	m, _ := s.Attach(3, 1<<20, d, 100, PermRead)
	if got, ok := s.Mapping(3); !ok || got != m {
		t.Fatal("Mapping accessor failed")
	}
	if !s.Attached(3) || s.Attached(4) {
		t.Fatal("Attached accessor failed")
	}
	if !m.Contains(m.Base) || m.Contains(m.Base+m.Size) {
		t.Fatal("Contains boundary wrong")
	}
}

func TestPermBits(t *testing.T) {
	if !ReadWrite.Allows(PermRead) || !ReadWrite.Allows(PermWrite) {
		t.Fatal("ReadWrite must allow both")
	}
	if PermRead.Allows(PermWrite) {
		t.Fatal("read-only must not allow write")
	}
	if got := ReadWrite.String(); got != "rw-" {
		t.Fatalf("String() = %q", got)
	}
	if got := (PermRead | PermExec).String(); got != "r-x" {
		t.Fatalf("String() = %q", got)
	}
}

func TestTLBLatencies(t *testing.T) {
	tlb := NewTLB()
	// Cold: full walk.
	if c := tlb.Lookup(0x1000); c != params.L1TLBLatency+params.L2TLBLatency+params.TLBMissPenalty {
		t.Fatalf("cold lookup cost = %d", c)
	}
	// Warm: L1 hit.
	if c := tlb.Lookup(0x1000); c != params.L1TLBLatency {
		t.Fatalf("warm lookup cost = %d", c)
	}
	if tlb.Misses != 1 || tlb.L1Hits != 1 {
		t.Fatalf("counters: %d misses %d l1hits", tlb.Misses, tlb.L1Hits)
	}
}

func TestTLBL2Hit(t *testing.T) {
	tlb := NewTLB()
	// Touch enough distinct pages to exceed L1 capacity (64 entries)
	// but stay within L2 (1536); then revisit the first page.
	for p := uint64(0); p < 512; p++ {
		tlb.Lookup(p << params.PageShift)
	}
	c := tlb.Lookup(0)
	if c != params.L1TLBLatency+params.L2TLBLatency {
		t.Fatalf("expected L2 hit cost, got %d", c)
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB()
	tlb.Lookup(0x5000)
	tlb.Invalidate()
	if c := tlb.Lookup(0x5000); c <= params.L1TLBLatency+params.L2TLBLatency {
		t.Fatalf("post-invalidate lookup should walk, cost %d", c)
	}
}

func TestRandomBaseEntropy(t *testing.T) {
	// With 47-bit space and 1 GB alignment there are ~2^17 slots; bases
	// from independent spaces should rarely repeat.
	seen := map[uint64]int{}
	for seed := int64(0); seed < 64; seed++ {
		s := NewAddressSpace(rand.New(rand.NewSource(seed)))
		b, err := s.RandomBase(1 << 30)
		if err != nil {
			t.Fatal(err)
		}
		seen[b]++
	}
	if len(seen) < 55 {
		t.Fatalf("poor base diversity: %d distinct of 64", len(seen))
	}
}

// Property: any sequence of attach/randomize/detach operations keeps all
// live mappings pairwise disjoint and lookups land in the right mapping.
func TestMappingDisjointnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	s := NewAddressSpace(rand.New(rand.NewSource(3)))
	d := dev()
	live := map[uint32]uint64{} // id -> size
	nextID := uint32(1)
	for step := 0; step < 600; step++ {
		switch op := r.Intn(3); {
		case op == 0 && len(live) < 10:
			size := uint64(1) << (20 + uint(r.Intn(10)))
			if _, err := s.Attach(nextID, size, d, 0, ReadWrite); err != nil {
				t.Fatal(err)
			}
			live[nextID] = size
			nextID++
		case op == 1 && len(live) > 0:
			id := anyKey(r, live)
			if _, err := s.Randomize(id); err != nil {
				t.Fatal(err)
			}
		case op == 2 && len(live) > 0:
			id := anyKey(r, live)
			if err := s.Detach(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		}
		// Invariants: every live mapping is found by lookup at its
		// base and end-1; mappings are disjoint.
		type span struct{ base, size uint64 }
		var spans []span
		for id, size := range live {
			m, ok := s.Mapping(id)
			if !ok || m.Size != size {
				t.Fatalf("step %d: mapping %d lost", step, id)
			}
			if got, err := s.Lookup(m.Base); err != nil || got != m {
				t.Fatalf("step %d: base lookup wrong", step)
			}
			if got, err := s.Lookup(m.Base + m.Size - 1); err != nil || got != m {
				t.Fatalf("step %d: end lookup wrong", step)
			}
			spans = append(spans, span{m.Base, m.Size})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.base < b.base+b.size && b.base < a.base+a.size {
					t.Fatalf("step %d: overlapping mappings", step)
				}
			}
		}
	}
}

func anyKey(r *rand.Rand, m map[uint32]uint64) uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys[r.Intn(len(keys))]
}

// TestTLBCountersAcrossFlushPaths walks the TLB through the hit/miss/
// flush lifecycle the attach/detach paths exercise: warm entries hit L1,
// an L1-evicted entry hits L2, a shootdown (Invalidate, as issued by
// detach and randomization) bumps Flushes and forces full walks again.
func TestTLBCountersAcrossFlushPaths(t *testing.T) {
	tlb := NewTLB()
	// Cold walk, then a warm L1 hit.
	tlb.Lookup(0x1000)
	tlb.Lookup(0x1000)
	if tlb.Misses != 1 || tlb.L1Hits != 1 || tlb.L2Hits != 0 {
		t.Fatalf("after warmup: l1=%d l2=%d miss=%d", tlb.L1Hits, tlb.L2Hits, tlb.Misses)
	}
	// Evict page 1 from L1 (64 entries) but not L2; revisiting hits L2.
	for p := uint64(2); p < 2+512; p++ {
		tlb.Lookup(p << params.PageShift)
	}
	tlb.Lookup(0x1000)
	if tlb.L2Hits == 0 {
		t.Fatalf("expected an L2 hit, counters: l1=%d l2=%d miss=%d", tlb.L1Hits, tlb.L2Hits, tlb.Misses)
	}
	// Detach-path shootdown: both levels flushed, next lookups walk.
	missesBefore := tlb.Misses
	tlb.Invalidate()
	if tlb.Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", tlb.Flushes)
	}
	tlb.Lookup(0x1000)
	tlb.Lookup(0x2000)
	if tlb.Misses != missesBefore+2 {
		t.Fatalf("post-flush lookups did not walk: %d -> %d", missesBefore, tlb.Misses)
	}
	tlb.Invalidate()
	if tlb.Flushes != 2 {
		t.Fatalf("Flushes = %d, want 2", tlb.Flushes)
	}
}

// TestTLBObsWalkEvents wires an obs track and checks that exactly the
// full misses emit "tlb-walk" instants stamped with the supplied clock
// and the missing page number.
func TestTLBObsWalkEvents(t *testing.T) {
	rec := obs.NewRecorder(0)
	tlb := NewTLB()
	var clock uint64
	tlb.Obs = rec.Track(0)
	tlb.Now = func() uint64 { return clock }
	clock = 100
	tlb.Lookup(5 << params.PageShift) // miss
	clock = 200
	tlb.Lookup(5 << params.PageShift) // L1 hit: no event
	clock = 300
	tlb.Lookup(9 << params.PageShift) // miss
	ev := rec.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2 (misses only): %v", len(ev), ev)
	}
	if ev[0].TS != 100 || ev[0].Name != "tlb-walk" || ev[0].Arg != 5 {
		t.Fatalf("first walk event = %+v", ev[0])
	}
	if ev[1].TS != 300 || ev[1].Arg != 9 {
		t.Fatalf("second walk event = %+v", ev[1])
	}
}
