// Package paging models the virtual memory system of the simulated
// machine: a per-process address space with PMO mappings installed by the
// constant-cost embedded-page-table attach of MERR (Figure 1a), two-level
// TLBs with the Table II geometry, page walks, shootdowns, and the
// space-layout randomization that picks a fresh attach base.
//
// Because MERR embeds a page-table subtree inside each PMO, an attach only
// installs a single upper-level entry regardless of PMO size; the model
// therefore represents each attached PMO as one Mapping covering the whole
// PMO, and the cost of installing or removing it is constant (charged by
// the caller from the Table II syscall latencies).
package paging

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/params"
)

// Perm is a bitmask of access permissions.
type Perm uint8

// Permission bits.
const (
	// PermRead allows loads.
	PermRead Perm = 1 << iota
	// PermWrite allows stores.
	PermWrite
	// PermExec allows instruction fetch.
	PermExec
)

// ReadWrite is the common read+write permission.
const ReadWrite = PermRead | PermWrite

// Allows reports whether p includes every bit of want.
func (p Perm) Allows(want Perm) bool { return p&want == want }

// String renders the permission in rwx form.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Errors returned by the address space.
var (
	// ErrNotMapped is returned when a virtual address has no mapping
	// (a segmentation fault in the paper's terms).
	ErrNotMapped = errors.New("paging: address not mapped (segfault)")
	// ErrAlreadyMapped is returned when a PMO is attached twice.
	ErrAlreadyMapped = errors.New("paging: PMO already attached")
	// ErrNoSpace is returned when no randomized base can be found.
	ErrNoSpace = errors.New("paging: no address space hole found")
)

// attachAlign is the alignment of attach bases. Aligning to 1 GB means a
// PMO's embedded subtree hangs off a single L3 (PUD) entry, which is what
// makes attach cost constant; it also yields the 18 bits of placement
// entropy within a 47-bit user space that Table V's analysis assumes
// (2^47 / 2^30 / 2 usable ≈ 2^18 positions for a 1 GB PMO).
const attachAlign = 1 << 30

// userSpaceBits is the size of the simulated user virtual address space.
const userSpaceBits = 47

// Mapping is one attached PMO: a contiguous virtual range backed by a
// device range. It stands for the single upper-level PTE pointing at the
// PMO's embedded page-table subtree.
type Mapping struct {
	// PMOID identifies the attached PMO.
	PMOID uint32
	// Base is the virtual base address (attachAlign-aligned).
	Base uint64
	// Size is the length of the mapping in bytes.
	Size uint64
	// Dev is the backing device.
	Dev *nvm.Device
	// DevOff is the offset of the PMO within the device.
	DevOff uint64
	// Perm is the process-wide permission of the mapping: the PMO's row
	// of the MERR permission matrix (internal/merr checks it; thread
	// permissions are layered on top by the MPK model).
	Perm Perm
}

// Contains reports whether va falls inside the mapping.
func (m *Mapping) Contains(va uint64) bool {
	return va >= m.Base && va < m.Base+m.Size
}

// AddressSpace is one process's virtual address space.
type AddressSpace struct {
	rng  *rand.Rand
	maps []*Mapping // sorted by Base
	byID []*Mapping // indexed by PMO ID; nil when detached
}

// NewAddressSpace creates an empty address space with a deterministic
// randomization source.
func NewAddressSpace(rng *rand.Rand) *AddressSpace {
	return &AddressSpace{rng: rng}
}

// RandomBase picks a randomized, attachAlign-aligned base for a mapping of
// the given size that does not overlap any existing mapping.
func (s *AddressSpace) RandomBase(size uint64) (uint64, error) {
	slots := uint64(1) << (userSpaceBits - 30)
	need := (size + attachAlign - 1) / attachAlign
	if need == 0 {
		need = 1
	}
	for try := 0; try < 4096; try++ {
		slot := s.rng.Uint64() % (slots - need)
		base := slot * attachAlign
		if base == 0 {
			continue // keep page zero unmapped
		}
		if !s.overlaps(base, need*attachAlign) {
			return base, nil
		}
	}
	return 0, ErrNoSpace
}

func (s *AddressSpace) overlaps(base, size uint64) bool {
	for _, m := range s.maps {
		if base < m.Base+m.Size && m.Base < base+size {
			return true
		}
	}
	return false
}

// Attach installs a mapping for the PMO at a randomized base and returns
// it. It fails if the PMO is already attached.
func (s *AddressSpace) Attach(pmoID uint32, size uint64, dev *nvm.Device, devOff uint64, perm Perm) (*Mapping, error) {
	if s.Attached(pmoID) {
		return nil, fmt.Errorf("%w: pmo %d", ErrAlreadyMapped, pmoID)
	}
	base, err := s.RandomBase(size)
	if err != nil {
		return nil, err
	}
	m := &Mapping{PMOID: pmoID, Base: base, Size: size, Dev: dev, DevOff: devOff, Perm: perm}
	s.insert(m)
	for int(pmoID) >= len(s.byID) {
		s.byID = append(s.byID, nil)
	}
	s.byID[pmoID] = m
	return m, nil
}

func (s *AddressSpace) insert(m *Mapping) {
	i := sort.Search(len(s.maps), func(i int) bool { return s.maps[i].Base >= m.Base })
	s.maps = append(s.maps, nil)
	copy(s.maps[i+1:], s.maps[i:])
	s.maps[i] = m
}

// Detach removes the PMO's mapping. The caller is responsible for
// charging the TLB shootdown cost and flushing TLB entries.
func (s *AddressSpace) Detach(pmoID uint32) error {
	m, ok := s.Mapping(pmoID)
	if !ok {
		return fmt.Errorf("%w: detach pmo %d", ErrNotMapped, pmoID)
	}
	s.byID[pmoID] = nil
	for i, mm := range s.maps {
		if mm == m {
			s.maps = append(s.maps[:i], s.maps[i+1:]...)
			break
		}
	}
	return nil
}

// Randomize moves the PMO's mapping to a fresh random base (PMO space
// layout randomization) and returns the new mapping. The old TLB entries
// must be shot down by the caller.
func (s *AddressSpace) Randomize(pmoID uint32) (*Mapping, error) {
	m, ok := s.Mapping(pmoID)
	if !ok {
		return nil, fmt.Errorf("%w: randomize pmo %d", ErrNotMapped, pmoID)
	}
	// Remove, pick a new hole, reinsert.
	for i, mm := range s.maps {
		if mm == m {
			s.maps = append(s.maps[:i], s.maps[i+1:]...)
			break
		}
	}
	base, err := s.RandomBase(m.Size)
	if err != nil {
		// Put it back where it was; the caller sees the error.
		s.insert(m)
		return nil, err
	}
	m.Base = base
	s.insert(m)
	return m, nil
}

// Lookup translates a virtual address to its mapping, or ErrNotMapped.
func (s *AddressSpace) Lookup(va uint64) (*Mapping, error) {
	i := sort.Search(len(s.maps), func(i int) bool { return s.maps[i].Base+s.maps[i].Size > va })
	if i < len(s.maps) && s.maps[i].Contains(va) {
		return s.maps[i], nil
	}
	return nil, fmt.Errorf("%w: va %#x", ErrNotMapped, va)
}

// Mapping returns the current mapping of a PMO, if attached.
func (s *AddressSpace) Mapping(pmoID uint32) (*Mapping, bool) {
	if int(pmoID) >= len(s.byID) || s.byID[pmoID] == nil {
		return nil, false
	}
	return s.byID[pmoID], true
}

// Attached reports whether the PMO is currently mapped.
func (s *AddressSpace) Attached(pmoID uint32) bool {
	_, ok := s.Mapping(pmoID)
	return ok
}

// TLB is the two-level data TLB of Table II. Entries map virtual page
// numbers to the PMO mapping that covers them.
type TLB struct {
	l1 *nvm.Cache
	l2 *nvm.Cache

	// L1Hits, L2Hits, Misses count lookups by where they were served.
	L1Hits, L2Hits, Misses uint64

	// Flushes counts Invalidate calls (attach/detach/randomization
	// shootdowns).
	Flushes uint64

	// Obs, when set, records full-miss page walks as instant events; Now
	// supplies the owning thread's simulated clock for those events.
	Obs *obs.Track
	Now func() uint64
}

// NewTLB builds the Table II TLB pair.
func NewTLB() *TLB {
	return &TLB{
		l1: nvm.NewCache(params.L1TLBEntries*params.PageSize, params.L1TLBWays, params.PageSize),
		l2: nvm.NewCache(params.L2TLBEntries*params.PageSize, params.L2TLBWays, params.PageSize),
	}
}

// Lookup simulates a TLB lookup for va and returns the cycle cost of
// translation (L1 hit, L2 hit, or full walk penalty).
func (t *TLB) Lookup(va uint64) uint64 {
	if t.l1.Access(va) {
		t.L1Hits++
		return params.L1TLBLatency
	}
	if t.l2.Access(va) {
		t.L2Hits++
		return params.L1TLBLatency + params.L2TLBLatency
	}
	t.Misses++
	if t.Obs != nil && t.Now != nil {
		t.Obs.Instant(t.Now(), obs.CatPaging, "tlb-walk", int64(va>>params.PageShift))
	}
	return params.L1TLBLatency + params.L2TLBLatency + params.TLBMissPenalty
}

// Invalidate flushes both TLB levels (a shootdown; the cycle cost is
// charged by the caller from params.TLBInvalidate).
func (t *TLB) Invalidate() {
	t.Flushes++
	t.l1.InvalidateAll()
	t.l2.InvalidateAll()
}
