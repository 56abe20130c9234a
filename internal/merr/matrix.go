// Package merr models the MERR baseline architecture of ASPLOS'20 that
// TERP builds on (Section II): the process-wide permission matrix checked
// on every load/store after the TLB lookup (Figure 1b), combined with the
// constant-cost attach/detach enabled by the embedded page-table subtree
// and PMO space-layout randomization (both modeled in internal/paging).
//
// A matrix row is the attached PMO's paging.Mapping: attach installs it,
// detach removes it, randomization moves it and a thread grant widens its
// Perm. The Matrix itself holds only the check's counters.
package merr

import (
	"repro/internal/obs"
	"repro/internal/paging"
)

// Matrix is the per-process permission matrix's check unit. A ld/st
// checks its requested access against the row of the mapping its address
// translated through (1 cycle, charged by the runtime).
type Matrix struct {
	// Checks and Denials count permission matrix lookups.
	Checks, Denials uint64

	// Obs, when set, records denials as instant events on the hardware
	// track (nil = off).
	Obs *obs.Track
}

// CheckAt reports whether row m allows the access rights want, counting
// the check and recording a denial at simulated cycle now.
func (x *Matrix) CheckAt(m *paging.Mapping, want paging.Perm, now uint64) bool {
	x.Checks++
	if m.Perm.Allows(want) {
		return true
	}
	x.Denials++
	x.Obs.Instant(now, obs.CatMERR, "perm-denied", int64(m.PMOID))
	return false
}
