// Package terphw models the TERP architecture support of Section V-B: a
// 32-entry circular buffer tracking attached PMOs (PMO ID, attach
// timestamp, thread counter, delayed-detach bit), a coarse timer swept
// periodically, and the conditional attach (CONDAT) and conditional detach
// (CONDDT) instruction logic of Figure 7. The buffer implements window
// combining: closely spaced exposure windows are merged by delaying
// detaches (DD bit) and silencing the attach that follows, and the sweep
// enforces the maximum exposure window by self-detaching idle PMOs and
// randomizing PMOs still held by threads (the three cases of Figure 6).
package terphw

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/params"
)

// Case identifies which of the Figure 7 execution cases a conditional
// instruction took; the runtime charges costs accordingly.
type Case int

// The conditional attach/detach cases of Figure 7 (b) and (c).
const (
	// CaseFirstAttach: PMO not in the buffer; allocate an entry and
	// make the full attach system call (Case 1).
	CaseFirstAttach Case = iota + 1
	// CaseSubsequentAttach: PMO present with DD=0; another thread
	// attached it; set thread permission, bump the counter (Case 2).
	CaseSubsequentAttach
	// CaseSilentAttach: PMO present with DD=1 (delayed detach); reset
	// DD — a detach+attach system call pair has been elided (Case 3).
	CaseSilentAttach
	// CasePartialDetach: other threads still hold the PMO; revoke this
	// thread's permission and decrement the counter (Case 4).
	CasePartialDetach
	// CaseFullDetach: last holder and the maximum EW has been reached;
	// make the full detach system call and free the entry (Case 5).
	CaseFullDetach
	// CaseDelayedDetach: last holder but the EW has room; set DD and
	// revoke thread permission; the sweep will detach later (Case 6).
	CaseDelayedDetach
	// CaseOverflow: the buffer is full and no entry can be reclaimed;
	// the instruction falls back to an unconditional system call.
	CaseOverflow
)

// String names the case.
func (c Case) String() string {
	switch c {
	case CaseFirstAttach:
		return "first-attach"
	case CaseSubsequentAttach:
		return "subsequent-attach"
	case CaseSilentAttach:
		return "silent-attach"
	case CasePartialDetach:
		return "partial-detach"
	case CaseFullDetach:
		return "full-detach"
	case CaseDelayedDetach:
		return "delayed-detach"
	case CaseOverflow:
		return "overflow"
	}
	return fmt.Sprintf("case(%d)", int(c))
}

// Entry is one circular buffer row (Figure 7a): 34 bits in hardware.
type Entry struct {
	// PMOID identifies the attached PMO (10 bits in hardware).
	PMOID uint32
	// TS is the time of the last real attach or randomization.
	TS uint64
	// Ctr counts threads that have made an attach call.
	Ctr int
	// DD is the delayed-detach status.
	DD bool

	valid bool
}

// SweepAction is what the sweep decided for one expired entry.
type SweepAction struct {
	// PMOID is the affected PMO.
	PMOID uint32
	// Detach is true for a full self-detach (Ctr==0); false means the
	// PMO is still held and was randomized instead.
	Detach bool
}

// Buffer is the TERP hardware circular buffer plus its timer.
type Buffer struct {
	entries []Entry
	maxEW   uint64

	// Stats of interest to the evaluation.
	Elided     uint64 // detach+attach syscall pairs elided (Case 3)
	SelfDetach uint64 // sweep-triggered detaches
	SweepRand  uint64 // sweep-triggered randomizations

	// Obs, when set, records every conditional-instruction case and
	// sweep action as instant events on the hardware track (nil = off).
	Obs *obs.Track

	lastSweep uint64

	// deadline/dlFound cache NextDeadline's answer; dlDirty forces a
	// rescan after any mutation that can move an entry's TS or validity.
	// NextDeadline runs on every computation charge, mutations only on
	// conditional attach/detach traffic, so the cache almost always hits.
	// maxTS rides along: the latest attach timestamp among live entries,
	// which Sweep needs to spot entries stamped ahead of the sweeping
	// thread's clock (multi-thread clock skew).
	deadline uint64
	maxTS    uint64
	dlFound  bool
	dlDirty  bool
}

// NewBuffer creates the buffer with the given maximum exposure window in
// cycles and the standard 32 entries.
func NewBuffer(maxEW uint64) *Buffer {
	return &Buffer{
		entries: make([]Entry, params.CircularBufferEntries),
		maxEW:   maxEW,
		dlDirty: true,
	}
}

// find returns the valid entry for the PMO, or nil.
func (b *Buffer) find(pmo uint32) *Entry {
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].PMOID == pmo {
			return &b.entries[i]
		}
	}
	return nil
}

// Live returns the number of valid entries.
func (b *Buffer) Live() int {
	n := 0
	for i := range b.entries {
		if b.entries[i].valid {
			n++
		}
	}
	return n
}

// CondAttach executes the CONDAT logic of Figure 7b for the PMO at time
// now and returns which case applied. For CaseFirstAttach the runtime
// must perform the full attach system call; for the other cases it only
// sets the thread permission.
func (b *Buffer) CondAttach(pmo uint32, now uint64) Case {
	b.dlDirty = true
	if e := b.find(pmo); e != nil {
		if e.DD {
			// Case 3: elide the delayed detach and this attach.
			e.DD = false
			e.Ctr = 1
			b.Elided++
			b.Obs.Instant(now, obs.CatHW, "condat-silent", int64(pmo))
			return CaseSilentAttach
		}
		// Case 2: subsequent attach by another thread.
		e.Ctr++
		b.Obs.Instant(now, obs.CatHW, "condat-sub", int64(pmo))
		return CaseSubsequentAttach
	}
	// Case 1: allocate an entry.
	slot := b.freeSlot()
	if slot < 0 {
		b.Obs.Instant(now, obs.CatHW, "condat-overflow", int64(pmo))
		return CaseOverflow
	}
	b.entries[slot] = Entry{PMOID: pmo, TS: now, Ctr: 1, DD: false, valid: true}
	b.Obs.Instant(now, obs.CatHW, "condat-first", int64(pmo))
	return CaseFirstAttach
}

// Drop frees the PMO's entry, if it has one. The runtime calls it when
// the attach system call of a CaseFirstAttach fails, so that no entry
// outlives the attach it recorded: a retry is then a first attach again.
func (b *Buffer) Drop(pmo uint32) {
	if e := b.find(pmo); e != nil {
		e.valid = false
		b.dlDirty = true
	}
}

// freeSlot returns the first invalid slot, or -1 when every entry is valid
// (overflow). A delayed-detach entry stays valid, and so is not reclaimed
// here, until a sweep self-detaches it.
func (b *Buffer) freeSlot() int {
	for i := range b.entries {
		if !b.entries[i].valid {
			return i
		}
	}
	return -1
}

// CondDetach executes the CONDDT logic of Figure 7c for the PMO at time
// now. For CaseFullDetach the runtime must perform the full detach system
// call; CasePartialDetach and CaseDelayedDetach only revoke the thread
// permission. Detaching a PMO that is not in the buffer is an overflow
// fallback (unconditional system call).
func (b *Buffer) CondDetach(pmo uint32, now uint64) Case {
	b.dlDirty = true
	e := b.find(pmo)
	if e == nil {
		b.Obs.Instant(now, obs.CatHW, "conddt-overflow", int64(pmo))
		return CaseOverflow
	}
	if e.Ctr > 1 {
		// Case 4: not the last holder.
		e.Ctr--
		b.Obs.Instant(now, obs.CatHW, "conddt-partial", int64(pmo))
		return CasePartialDetach
	}
	e.Ctr = 0
	if now-e.TS >= b.maxEW {
		// Case 5: EW met or exceeded; really detach.
		e.valid = false
		b.Obs.Instant(now, obs.CatHW, "conddt-full", int64(pmo))
		return CaseFullDetach
	}
	// Case 6: delay the detach for window combining.
	e.DD = true
	b.Obs.Instant(now, obs.CatHW, "conddt-delay", int64(pmo))
	return CaseDelayedDetach
}

// Sweep advances the timer to now and returns the actions for every entry
// whose exposure window has expired: idle delayed-detach entries are
// self-detached (freed here; the runtime performs the detach system call),
// and still-held entries are randomized (their TS restarts). Sweeps run at
// params.SweepPeriod granularity; calls within the same period return nil.
func (b *Buffer) Sweep(now uint64) []SweepAction {
	if now < b.lastSweep+params.SweepPeriod {
		return nil
	}
	b.lastSweep = now - now%params.SweepPeriod
	if dl, ok := b.NextDeadline(); !ok || (dl > now && b.maxTS <= now) {
		// Nothing can be expired: every live window opened at or before
		// now and the earliest deadline is still ahead. (An entry with
		// TS beyond the sweeping clock — possible under multi-thread
		// clock skew — counts as expired via unsigned wraparound in the
		// scan below, so it forces the scan.) The scan would find
		// nothing and mutate nothing; advancing lastSweep first keeps
		// the period gating identical to the scanning path.
		return nil
	}
	b.dlDirty = true
	var acts []SweepAction
	for i := range b.entries {
		e := &b.entries[i]
		if !e.valid || now-e.TS < b.maxEW {
			continue
		}
		if e.Ctr == 0 && e.DD {
			// Self-detach: no thread works on the PMO.
			e.valid = false
			b.SelfDetach++
			b.Obs.Instant(now, obs.CatHW, "sweep-detach", int64(e.PMOID))
			acts = append(acts, SweepAction{PMOID: e.PMOID, Detach: true})
		} else if e.Ctr > 0 {
			// Still held: randomize in place and restart the
			// window (partial combining, Figure 6c).
			e.TS = now
			b.SweepRand++
			b.Obs.Instant(now, obs.CatHW, "sweep-rand", int64(e.PMOID))
			acts = append(acts, SweepAction{PMOID: e.PMOID, Detach: false})
		}
	}
	return acts
}

// NextDeadline returns the earliest time at which some live entry's
// exposure window expires (TS + maxEW), so the runtime can model the
// continuously running hardware timer across long computation phases.
func (b *Buffer) NextDeadline() (uint64, bool) {
	if b.dlDirty {
		var best, maxTS uint64
		found := false
		for i := range b.entries {
			e := &b.entries[i]
			if !e.valid {
				continue
			}
			dl := e.TS + b.maxEW
			if !found || dl < best {
				best = dl
				found = true
			}
			if e.TS > maxTS {
				maxTS = e.TS
			}
		}
		b.deadline, b.maxTS, b.dlFound, b.dlDirty = best, maxTS, found, false
	}
	return b.deadline, b.dlFound
}
