package nvm

import (
	"bytes"
	"fmt"
	"slices"
)

// DefaultLineSize is the persistence granularity of the buffer model: one
// cache line, matching the clwb/clflushopt granularity of real hardware.
const DefaultLineSize = 64

// EventKind discriminates persist events observed by the buffer.
type EventKind int

// Persist event kinds.
const (
	// FlushEvent is a cache-line writeback request (clwb).
	FlushEvent EventKind = iota
	// FenceEvent is a persist barrier (sfence) draining prior flushes.
	FenceEvent
)

// String names the event kind.
func (k EventKind) String() string {
	if k == FlushEvent {
		return "flush"
	}
	return "fence"
}

// Event is one persist operation issued against the device. Index is the
// event's ordinal in the global flush+fence stream, so a crash injector
// can name "the k-th persist event of the run" deterministically.
type Event struct {
	// Kind is the operation.
	Kind EventKind
	// Index is the global event ordinal (flushes and fences share one
	// counter).
	Index uint64
}

// lineState tracks one cache line held in the volatile store buffer.
type lineState struct {
	// durable is the line's content as the persistent medium last saw it
	// (captured before the first buffered write dirtied the line).
	durable []byte
	// wb is the content of the line's in-flight writeback — the bytes a
	// Flush captured — or nil when no writeback is outstanding. A store
	// after the flush dirties the cache copy but does NOT cancel the
	// writeback: clwb/clflushopt is ordered against same-line stores, so
	// the issued writeback still carries wb to the medium at the next
	// fence. (The pre-litmus model cleared the flush on re-dirty, which
	// the Px86 oracle flagged as a model bug: it let a fenced value
	// vanish while later stores persisted.)
	wb []byte
}

// PersistBuffer is a volatile, line-granular store buffer layered over a
// Device. While enabled, writes land in the device's pages (the cache
// view, which loads observe) but are NOT considered durable until a
// writeback of their line (Flush) drains at an ordering fence (Fence).
// Device.CrashView presents the durable state at any instant: the cache
// view with every dirty line reverted to its last-durable content, and —
// under relaxed persist ordering — an adversarial subset of
// flushed-but-unfenced lines reverted as well.
//
// The buffer is a semantic model, not a timing model: flush and fence
// cycle costs remain the caller's business (internal/txn charges them via
// its CostSink exactly as before).
type PersistBuffer struct {
	dev  *Device
	line uint64

	pending map[uint64]*lineState // line number -> buffered state
	// scratch holds one line of device content for comparisons, so a
	// silent store or a drained writeback allocates nothing.
	scratch []byte

	events uint64
	fences uint64
	hook   func(Event)
}

// EnablePersistBuffer layers a persist buffer with the given line size
// (0 selects DefaultLineSize) over the device. Content written before
// enabling is treated as already durable. The line size must be a power
// of two no larger than a page.
func (d *Device) EnablePersistBuffer(lineSize uint64) *PersistBuffer {
	if lineSize == 0 {
		lineSize = DefaultLineSize
	}
	if lineSize&(lineSize-1) != 0 || lineSize > pageSize {
		panic(fmt.Sprintf("nvm: persist-buffer line size %d must be a power of two <= %d", lineSize, pageSize))
	}
	b := &PersistBuffer{dev: d, line: lineSize, pending: make(map[uint64]*lineState), scratch: make([]byte, lineSize)}
	d.buf = b
	return b
}

// PersistBuffer returns the enabled buffer, or nil when writes are
// modeled as immediately durable.
func (d *Device) PersistBuffer() *PersistBuffer { return d.buf }

// Flush issues a writeback for every line overlapping [off, off+n) — a
// no-op without an enabled buffer.
func (d *Device) Flush(off, n uint64) {
	if d.buf != nil && n > 0 {
		d.buf.flush(off, n)
	}
}

// Fence drains all issued writebacks (persist barrier) — a no-op without
// an enabled buffer.
func (d *Device) Fence() {
	if d.buf != nil {
		d.buf.fence()
	}
}

// CrashView returns the durable state a power failure at this instant
// would leave, as a copy-on-write view of d: the device's current pages
// with every dirty, unflushed line reverted to its durable content.
// dropFlushed, when non-nil, is consulted once for each line with an
// in-flight writeback, in ascending line order (UnfencedLines' order), so
// seeded decisions are deterministic; returning true reverts that line to
// its durable content, modeling relaxed persist ordering where the
// writeback had not drained when power failed, while returning false
// lands the bytes the flush captured (which may be older than the cache
// copy if the line was re-dirtied after the flush). A nil dropFlushed
// retains every in-flight writeback (strict drain-on-flush ordering).
// Without a buffer every write is durable and the view shows d as it is.
//
// The view owns a copy of each page that holds a buffered line and reads
// every other page through to d. It copies a borrowed page on its first
// write, so writes to the view (crash recovery's) never reach d, and it
// has no persist buffer. A view is valid only while d is not written: a
// crash taken inside a persist-event hook must be done with its view
// before the hook returns. d must not itself be a view; it may have
// mapped an image, which the view then reads through as well.
func (d *Device) CrashView(dropFlushed func(line uint64) bool) *Device {
	if d.view {
		panic("nvm: crash view of a crash view")
	}
	v := &Device{kind: d.kind, size: d.size, base: d, view: true}
	b := d.buf
	if b == nil {
		return v
	}
	lines := make([]uint64, 0, len(b.pending))
	for ln := range b.pending {
		lines = append(lines, ln)
	}
	slices.Sort(lines)
	for _, ln := range lines {
		st := b.pending[ln]
		content := st.durable
		if st.wb != nil && (dropFlushed == nil || !dropFlushed(ln)) {
			content = st.wb
		}
		off := ln * b.line
		p := v.lookup(off / pageSize)
		if p == nil {
			p = v.materialize(off / pageSize)
		}
		copy(p[off%pageSize:], content)
	}
	return v
}

// CrashImage returns the image CrashView presents as a map from page
// number to page bytes.
func (d *Device) CrashImage(dropFlushed func(line uint64) bool) map[uint64][]byte {
	return d.CrashView(dropFlushed).Snapshot()
}

// SetEventHook registers h to observe every persist event. The hook runs
// at event entry — before a flush marks lines or a fence drains them —
// so a crash captured from the hook models power failing just before the
// event takes effect.
func (b *PersistBuffer) SetEventHook(h func(Event)) { b.hook = h }

// LineSize returns the buffer's persistence granularity.
func (b *PersistBuffer) LineSize() uint64 { return b.line }

// Events returns the number of persist events (flushes + fences) issued.
func (b *PersistBuffer) Events() uint64 { return b.events }

// Fences returns the number of Fence calls.
func (b *PersistBuffer) Fences() uint64 { return b.fences }

// UnfencedLines returns, in ascending order, the lines with an in-flight
// writeback (flushed, not yet fenced): the lines a relaxed-ordering crash
// may or may not retain, in the order CrashView consults its drop
// callback for them.
func (b *PersistBuffer) UnfencedLines() []uint64 {
	var lines []uint64
	for ln, st := range b.pending {
		if st.wb != nil {
			lines = append(lines, ln)
		}
	}
	slices.Sort(lines)
	return lines
}

// dirty records an impending write of data at off, capturing the durable
// content of every newly-dirtied line first. A "silent store" — bytes
// identical to the line's current content — does not dirty a clean line
// (the store changes nothing durable-visible); this keeps the
// mirror-write idiom of the workloads (log write + charged runtime store
// of the same value) from permanently pinning lines in the buffer. A
// store to a line with an in-flight writeback leaves that writeback
// untouched: flushes are ordered against same-line stores, so the next
// fence still drains the captured bytes.
func (b *PersistBuffer) dirty(off uint64, data []byte) {
	n := uint64(len(data))
	if n == 0 {
		return
	}
	first := off / b.line
	last := (off + n - 1) / b.line
	for ln := first; ln <= last; ln++ {
		if b.pending[ln] != nil {
			continue // durable copy and any in-flight writeback stand
		}
		lineStart := ln * b.line
		lo, hi := lineStart, lineStart+b.line
		if off > lo {
			lo = off
		}
		if off+n < hi {
			hi = off + n
		}
		seg := data[lo-off : hi-off]
		cur := b.scratch
		b.dev.readRaw(cur, lineStart)
		if bytes.Equal(seg, cur[lo-lineStart:hi-lineStart]) {
			continue // silent store to a clean line
		}
		b.pending[ln] = &lineState{durable: append([]byte(nil), cur...)}
	}
}

// flush issues a writeback for every line overlapping [off, off+n),
// capturing each line's content at this instant. Re-flushing a line
// replaces its in-flight capture with the newer content.
func (b *PersistBuffer) flush(off, n uint64) {
	b.emit(FlushEvent)
	first := off / b.line
	last := (off + n - 1) / b.line
	for ln := first; ln <= last; ln++ {
		if st := b.pending[ln]; st != nil {
			if st.wb == nil {
				st.wb = make([]byte, b.line)
			}
			b.dev.readRaw(st.wb, ln*b.line)
		}
	}
}

// fence drains every in-flight writeback: the bytes each flush captured
// become durable. A line whose cache copy was re-dirtied after the flush
// stays pending (its newer content is still volatile), but its durable
// content advances to the writeback — the flush was issued and a persist
// barrier completes it, whatever stores came later.
func (b *PersistBuffer) fence() {
	b.emit(FenceEvent)
	b.fences++
	for ln, st := range b.pending {
		if st.wb == nil {
			continue
		}
		b.dev.readRaw(b.scratch, ln*b.line)
		if bytes.Equal(b.scratch, st.wb) {
			delete(b.pending, ln) // cache copy matches the medium: clean
		} else {
			st.durable, st.wb = st.wb, nil // still dirty past the drain
		}
	}
}

func (b *PersistBuffer) emit(k EventKind) {
	if b.hook != nil {
		b.hook(Event{Kind: k, Index: b.events})
	}
	b.events++
}

// reset empties the buffer (a power cycle loses the volatile lines).
func (b *PersistBuffer) reset() {
	b.pending = make(map[uint64]*lineState)
}
