package nvm

import (
	"crypto/sha256"
	"fmt"
	"sort"
)

// Exhaustive crash-image enumeration. A crash at any instant leaves the
// durable image CrashImage materializes, parameterized by which in-flight
// writebacks drained before power failed — one image per subset. The
// stateless-model-checker-style litmus engine (internal/litmus) walks a
// program's persist events and unions these per-instant sets into the
// exact reachable-state set; the sampling injector (internal/crash) uses
// the same call to check that every image it samples is a member.
// CrashImage and the injector's CrashView patch buffered lines through
// one step (patchLines), so enumeration and sampling share one
// materialization path and cannot drift.

// MaxEnumLines caps the in-flight writeback count ForEachCrashImage will
// exhaustively enumerate (2^n images). Litmus programs stay far below
// it; workload-scale buffers that exceed it get an error instead of an
// exponential blowup.
const MaxEnumLines = 16

// ForEachCrashImage materializes every durable image reachable by a
// crash at this instant — one per subset of in-flight writebacks — and
// invokes fn with each. Images arrive in ascending drop-mask order over
// the sorted unfenced lines (AppendUnfenced), so the sequence is
// deterministic; fn returns false to stop early (membership checks).
// Each image is freshly materialized through CrashImage and may be
// retained by fn.
func (b *PersistBuffer) ForEachCrashImage(fn func(img map[uint64][]byte) bool) error {
	lines := b.AppendUnfenced(nil)
	if len(lines) > MaxEnumLines {
		return fmt.Errorf("nvm: %d in-flight writebacks exceed the %d-line enumeration cap", len(lines), MaxEnumLines)
	}
	pos := make(map[uint64]uint, len(lines))
	for i, ln := range lines {
		pos[ln] = uint(i)
	}
	for mask := uint64(0); mask < 1<<len(lines); mask++ {
		img := b.dev.CrashImage(func(ln uint64) bool { return mask>>pos[ln]&1 == 1 })
		if !fn(img) {
			return nil
		}
	}
	return nil
}

// ImageHash returns a canonical digest of a crash image: pages are
// visited in ascending page-number order and all-zero pages are skipped,
// so two images differing only in materialized-but-untouched pages hash
// identically. The digest is byte-stable across runs, worker counts and
// map iteration orders — it is the dedup key for exhaustive state counts
// and the membership key for the injector cross-check.
func ImageHash(img map[uint64][]byte) [32]byte {
	pns := make([]uint64, 0, len(img))
	for pn, p := range img {
		if allZero(p) {
			continue
		}
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	h := sha256.New()
	var num [8]byte
	for _, pn := range pns {
		put64(num[:], pn)
		h.Write(num[:])
		h.Write(img[pn])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
