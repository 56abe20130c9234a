package litmus

import (
	"encoding/binary"
	"fmt"
)

// The declarative Px86-style persistency oracle. It never consults the
// persist-buffer model: its only input is the litmus program itself (its
// stores with their bytes, flushes and fences), from which it computes
// the sets of post-crash images the *specification* allows. The spec is
// the Px86 discipline of Raad et al. restricted to a single thread:
//
//  1. Per-line prefix order. Stores to one cache line persist in the
//     order they were issued, and each store persists atomically, so a
//     line's durable content is always the content after some prefix
//     of its stores — including prefixes the program never flushed
//     (hardware may evict a dirty line at any time).
//
//  2. Fence ordering. A flush captures its line's content; a fence
//     orders every earlier flush before every later persist. So if any
//     store issued after the fence is durable in the crash image, every
//     line flushed before the fence must be durable at least at its
//     captured content. Nothing else is guaranteed: a fence by itself
//     does not make data durable (a crash can lose everything), it only
//     constrains which *combinations* survive.
//
// The oracle computes two image sets. images() is the full spec: every
// per-line version assignment satisfying both rules, eviction persists
// included. noEvictImages() is the spec with spontaneous evictions
// removed — lines persist only through explicit flushes, where flushes
// separated by a fence or targeting the same line are ordered and
// unfenced cross-line flushes may persist in any order (clflushopt), so
// the persisted flushes at a crash form exactly the downward-closed
// subsets of that partial order. The model (no evictions) must stay
// inside noEvictImages(); the gap between the two sets is what only an
// eviction can reach.
type oracle struct {
	lines int
	// versions[l] is line l's content history: versions[l][0] is the
	// initial (all-zero) content, versions[l][k] the content after its
	// k-th store.
	versions [][][]byte
	// flushes records every flush in program order.
	flushes []flushRec
	// rules are the fence-ordering implications of rule 2.
	rules []rule
}

// flushRec is one recorded flush: the line it captured, the line's
// version at capture time, and the epoch (fences issued before it).
type flushRec struct {
	line, ver, epoch int
}

// rule encodes "if line s reached version sv, line f reached at least
// version fv": a flush of f capturing fv, a fence, then s's sv-th store.
type rule struct {
	f, fv int
	s, sv int
}

// newOracle replays the program's ops (validated by RunProgram), building
// every line's version history, the flush records and the fence-ordering
// rules.
func newOracle(ops []Op, lines int) *oracle {
	o := &oracle{lines: lines}
	cur := make([][]byte, lines)
	o.versions = make([][][]byte, lines)
	for l := 0; l < lines; l++ {
		cur[l] = make([]byte, LineSize)
		o.versions[l] = [][]byte{append([]byte(nil), cur[l]...)}
	}

	fences := 0
	var data [8]byte
	for _, op := range ops {
		switch op.Kind {
		case OpStore:
			binary.LittleEndian.PutUint64(data[:], op.Val)
			first := op.Off / LineSize
			last := (op.Off + op.Len - 1) / LineSize
			for ln := first; ln <= last; ln++ {
				l := int(ln)
				lo, hi := ln*LineSize, (ln+1)*LineSize
				if op.Off > lo {
					lo = op.Off
				}
				if op.Off+op.Len < hi {
					hi = op.Off + op.Len
				}
				copy(cur[l][lo-ln*LineSize:], data[lo-op.Off:hi-op.Off])
				o.versions[l] = append(o.versions[l], append([]byte(nil), cur[l]...))
				sv := len(o.versions[l]) - 1
				// Rule 2, RHS side: this store is "after" every flush from
				// an earlier (fence-closed) epoch.
				for _, f := range o.flushes {
					if f.epoch >= fences {
						continue // not yet fenced; no ordering
					}
					if f.line == l && sv >= f.ver {
						continue // same line: prefix order already implies it
					}
					o.rules = append(o.rules, rule{f: f.line, fv: f.ver, s: l, sv: sv})
				}
			}
		case OpFlush:
			first := op.Off / LineSize
			last := (op.Off + op.Len - 1) / LineSize
			for ln := first; ln <= last; ln++ {
				l := int(ln)
				o.flushes = append(o.flushes, flushRec{line: l, ver: len(o.versions[l]) - 1, epoch: fences})
			}
		case OpFence:
			fences++
		}
	}
	return o
}

// images enumerates every spec-allowed post-crash window: all per-line
// version assignments filtered by the fence-ordering rules, materialized
// and deduped by window bytes.
func (o *oracle) images() map[string]bool {
	out := make(map[string]bool)
	v := make([]int, o.lines)
	for {
		if o.allowed(v) {
			out[o.window(v)] = true
		}
		// Odometer over the per-line version counts.
		l := 0
		for ; l < o.lines; l++ {
			v[l]++
			if v[l] < len(o.versions[l]) {
				break
			}
			v[l] = 0
		}
		if l == o.lines {
			return out
		}
	}
}

// maxFlushEnum caps noEvictImages' 2^flushes walk.
const maxFlushEnum = 16

// noEvictImages enumerates the no-eviction spec set: every
// downward-closed subset of flushes under the persist partial order
// (same line, or separated by a fence), each line durable at its latest
// persisted capture.
func (o *oracle) noEvictImages() (map[string]bool, error) {
	n := len(o.flushes)
	if n > maxFlushEnum {
		return nil, fmt.Errorf("litmus: %d flushes exceed the %d-flush spec-enumeration cap", n, maxFlushEnum)
	}
	// before[i] is the bitmask of flushes ordered before flush i.
	before := make([]uint32, n)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if o.flushes[j].epoch < o.flushes[i].epoch || o.flushes[j].line == o.flushes[i].line {
				before[i] |= 1 << j
			}
		}
	}
	out := make(map[string]bool)
	v := make([]int, o.lines)
	for mask := uint32(0); mask < 1<<n; mask++ {
		closed := true
		for i := 0; i < n && closed; i++ {
			if mask>>i&1 == 1 && before[i]&^mask != 0 {
				closed = false
			}
		}
		if !closed {
			continue
		}
		for l := range v {
			v[l] = 0
		}
		for i := 0; i < n; i++ { // ascending: later same-line captures win
			if mask>>i&1 == 1 {
				v[o.flushes[i].line] = o.flushes[i].ver
			}
		}
		out[o.window(v)] = true
	}
	return out, nil
}

// allowed checks the fence-ordering rules for one assignment.
func (o *oracle) allowed(v []int) bool {
	for _, r := range o.rules {
		if v[r.s] >= r.sv && v[r.f] < r.fv {
			return false
		}
	}
	return true
}

// window materializes an assignment's image bytes.
func (o *oracle) window(v []int) string {
	b := make([]byte, o.lines*LineSize)
	for l := 0; l < o.lines; l++ {
		copy(b[l*LineSize:], o.versions[l][v[l]])
	}
	return string(b)
}
