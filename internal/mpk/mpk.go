// Package mpk models Intel MPK-style intra-process isolation: protection
// domains (protection keys) assigned to attached PMOs and per-thread
// permission registers (PKRU-like) that grant or revoke a thread's access
// to a domain without kernel involvement. TERP's thread exposure windows
// (TEWs) are implemented as grants and revokes on these registers; the
// cycle cost of a change (params.SilentCondCost, which includes the memory
// fences of a real WRPKRU) is charged by the runtime.
package mpk

import (
	"errors"
	"fmt"

	"repro/internal/paging"
)

// NumDomains is the number of hardware protection keys (Intel MPK has 16).
const NumDomains = 16

// Domain is a protection key index.
type Domain int

// NoDomain marks a PMO with no assigned key.
const NoDomain Domain = -1

// Errors returned by the allocator and registers.
var (
	// ErrNoDomains is returned when all protection keys are in use.
	ErrNoDomains = errors.New("mpk: out of protection domains")
	// ErrNotAllocated is returned when using an unallocated domain.
	ErrNotAllocated = errors.New("mpk: domain not allocated")
)

// Allocator hands out protection domains to attached PMOs, one per PMO,
// and recycles them on detach (Section V-B: "each attached PMO is assigned
// its own protection domain").
//
// Domain 0 is reserved (like MPK's default key) and never handed out, so
// the zero Allocator is empty and a zero entry of byPMO means no domain.
type Allocator struct {
	owner [NumDomains]uint32 // PMO ID or 0
	byPMO []Domain           // indexed by PMO ID
}

// NewAllocator creates an empty domain allocator.
func NewAllocator() *Allocator { return &Allocator{} }

// Assign allocates a domain for the PMO, or returns its existing one.
func (a *Allocator) Assign(pmoID uint32) (Domain, error) {
	if d, ok := a.DomainOf(pmoID); ok {
		return d, nil
	}
	for d := 1; d < NumDomains; d++ {
		if a.owner[d] == 0 {
			a.owner[d] = pmoID
			for int(pmoID) >= len(a.byPMO) {
				a.byPMO = append(a.byPMO, 0)
			}
			a.byPMO[pmoID] = Domain(d)
			return Domain(d), nil
		}
	}
	return NoDomain, ErrNoDomains
}

// Release returns the PMO's domain to the free pool (on full detach).
func (a *Allocator) Release(pmoID uint32) {
	if d, ok := a.DomainOf(pmoID); ok {
		a.owner[d] = 0
		a.byPMO[pmoID] = 0
	}
}

// DomainOf returns the domain currently assigned to the PMO.
func (a *Allocator) DomainOf(pmoID uint32) (Domain, bool) {
	if int(pmoID) >= len(a.byPMO) || a.byPMO[pmoID] == 0 {
		return NoDomain, false
	}
	return a.byPMO[pmoID], true
}

// Registers is one thread's permission register file: the access rights
// the thread holds for each protection domain. The zero value denies
// everything, which is the secure default.
type Registers struct {
	perm [NumDomains]paging.Perm
}

// Grant opens the thread's access to the domain with the given rights.
func (r *Registers) Grant(d Domain, p paging.Perm) error {
	if d <= 0 || int(d) >= NumDomains {
		return fmt.Errorf("%w: %d", ErrNotAllocated, d)
	}
	r.perm[d] = p
	return nil
}

// Revoke closes the thread's access to the domain.
func (r *Registers) Revoke(d Domain) error {
	if d <= 0 || int(d) >= NumDomains {
		return fmt.Errorf("%w: %d", ErrNotAllocated, d)
	}
	r.perm[d] = 0
	return nil
}

// Allows reports whether the thread's rights on the domain include want.
func (r *Registers) Allows(d Domain, want paging.Perm) bool {
	if d <= 0 || int(d) >= NumDomains {
		return false
	}
	return r.perm[d].Allows(want)
}
