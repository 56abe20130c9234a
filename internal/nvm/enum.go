package nvm

import (
	"crypto/sha256"
	"fmt"
	"slices"
)

// Exhaustive crash-image enumeration. A crash at any instant leaves the
// durable image CrashView presents, parameterized by which in-flight
// writebacks drained before power failed — one image per subset. The
// stateless-model-checker-style litmus engine (internal/litmus) walks a
// program's persist events and unions these per-instant sets into the
// exact reachable-state set; the sampling injector (internal/crash)
// verifies recovery on a CrashView of its own and uses the same walk to
// check that every image it samples is a member. Enumeration and sampling
// thus share one materialization path and cannot drift.

// MaxEnumLines caps the in-flight writeback count ForEachCrashImage will
// exhaustively enumerate (2^n images). Litmus programs stay far below
// it; workload-scale buffers that exceed it get an error instead of an
// exponential blowup.
const MaxEnumLines = 16

// ForEachCrashImage presents every durable image reachable by a crash at
// this instant — one per subset of in-flight writebacks — as a crash view
// (CrashView) and invokes fn with each. CrashView consults its drop
// callback once per in-flight line in ascending order, so bit i of the
// drop mask decides the i-th line of UnfencedLines; masks ascend, so the
// sequence is deterministic. fn returns false to stop early (membership
// checks). A view is valid only until the live device is next written.
func (b *PersistBuffer) ForEachCrashImage(fn func(view *Device) bool) error {
	n := len(b.UnfencedLines())
	if n > MaxEnumLines {
		return fmt.Errorf("nvm: %d in-flight writebacks exceed the %d-line enumeration cap", n, MaxEnumLines)
	}
	for mask := uint64(0); mask < 1<<n; mask++ {
		bit := 0
		view := b.dev.CrashView(func(uint64) bool {
			drop := mask>>bit&1 == 1
			bit++
			return drop
		})
		if !fn(view) {
			return nil
		}
	}
	return nil
}

// ImageHash returns a canonical digest of a device's image, the pages it
// reads through its base chain included: pages are visited in ascending
// page-number order and all-zero pages are skipped, so two images
// differing only in materialized-but-untouched pages hash identically.
// The digest is byte-stable across runs and worker counts — it is the
// dedup key for exhaustive state counts and the membership key for the
// injector cross-check.
func ImageHash(d *Device) [32]byte {
	var pns []uint64
	d.eachPage(func(pn uint64, p *[pageSize]byte) {
		if *p != [pageSize]byte{} {
			pns = append(pns, pn)
		}
	})
	slices.Sort(pns)
	h := sha256.New()
	var num [8]byte
	for _, pn := range pns {
		p := d.lookup(pn)
		if p == nil {
			p = d.borrowed(pn)
		}
		put64(num[:], pn)
		h.Write(num[:])
		h.Write(p[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
