// Package nvm models the physical memory devices of the simulated machine:
// a byte-addressable persistent memory (NVM) device and a DRAM device.
// Storage is sparse (pages are materialized on first touch) so simulations
// can declare the paper's 1 GB PMOs without allocating 1 GB. The NVM
// device supports snapshot and restore, which the crash-consistency tests
// use to emulate power failure, and counts reads/writes for the
// wear-related statistics. An optional persist buffer (persist.go) models
// the volatile store path to persistent media: while enabled, writes only
// become durable once their cache line is flushed and a fence drains it,
// and CrashImage materializes the state a power failure would leave.
package nvm

import (
	"errors"
	"fmt"
)

// pageSize is the granularity of sparse storage allocation. It matches the
// virtual memory page size so device offsets and pages line up.
const pageSize = 4096

// Kind discriminates device technologies, which differ in access latency.
type Kind int

// Device technologies.
const (
	// DRAM is volatile memory (120-cycle latency in Table II).
	DRAM Kind = iota
	// NVM is persistent memory (360-cycle latency in Table II).
	NVM
)

// String returns the technology name.
func (k Kind) String() string {
	if k == DRAM {
		return "DRAM"
	}
	return "NVM"
}

// maxTablePages bounds the direct page-table representation: devices of
// up to this many pages (4 GB at 4 KB pages, an 8 MB pointer table) index
// their pages through a flat slice; larger devices fall back to the
// sparse map. Both are materialize-on-first-touch.
const maxTablePages = 1 << 20

// Device is one sparse byte-addressable memory device.
type Device struct {
	kind  Kind
	size  uint64
	pages map[uint64][]byte // sparse store (nil when table is in use)
	table [][]byte          // direct page table (nil for huge devices)
	// npages counts materialized pages under the table representation.
	npages int

	// buf, when non-nil, is the volatile persist buffer: writes stay
	// volatile until flushed and fenced (see EnablePersistBuffer).
	buf *PersistBuffer

	// Reads and Writes count byte-granularity accesses.
	Reads, Writes uint64
}

// ErrOutOfRange is returned for accesses beyond the device size.
var ErrOutOfRange = errors.New("nvm: access out of device range")

// NewDevice creates a device of the given technology and byte size.
func NewDevice(kind Kind, size uint64) *Device {
	d := &Device{kind: kind, size: size}
	if n := (size + pageSize - 1) / pageSize; n <= maxTablePages {
		d.table = make([][]byte, n)
	} else {
		d.pages = make(map[uint64][]byte)
	}
	return d
}

// Kind returns the device technology.
func (d *Device) Kind() Kind { return d.kind }

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// Persistent reports whether the device retains contents across a crash.
func (d *Device) Persistent() bool { return d.kind == NVM }

// page returns the backing page for offset, materializing it if needed.
func (d *Device) page(off uint64, materialize bool) []byte {
	pn := off / pageSize
	if d.table != nil {
		p := d.table[pn]
		if p == nil && materialize {
			p = make([]byte, pageSize)
			d.table[pn] = p
			d.npages++
		}
		return p
	}
	p := d.pages[pn]
	if p == nil && materialize {
		p = make([]byte, pageSize)
		d.pages[pn] = p
	}
	return p
}

func (d *Device) check(off uint64, n int) error {
	if n < 0 || off+uint64(n) > d.size || off+uint64(n) < off {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, d.size)
	}
	return nil
}

// ReadAt copies len(b) bytes starting at offset off into b.
func (d *Device) ReadAt(b []byte, off uint64) error {
	if err := d.check(off, len(b)); err != nil {
		return err
	}
	d.Reads += uint64(len(b))
	d.readRaw(b, off)
	return nil
}

// readRaw copies device bytes without touching the access counters (the
// persist buffer uses it to capture durable line content).
func (d *Device) readRaw(b []byte, off uint64) {
	for len(b) > 0 {
		in := off % pageSize
		n := pageSize - in
		if n > uint64(len(b)) {
			n = uint64(len(b))
		}
		if p := d.page(off, false); p != nil {
			copy(b[:n], p[in:in+n])
		} else {
			for i := range b[:n] {
				b[i] = 0
			}
		}
		b = b[n:]
		off += n
	}
}

// WriteAt copies b into the device starting at offset off.
func (d *Device) WriteAt(b []byte, off uint64) error {
	if err := d.check(off, len(b)); err != nil {
		return err
	}
	d.Writes += uint64(len(b))
	if d.buf != nil {
		d.buf.dirty(off, b)
	}
	for len(b) > 0 {
		in := off % pageSize
		n := pageSize - in
		if n > uint64(len(b)) {
			n = uint64(len(b))
		}
		p := d.page(off, true)
		copy(p[in:in+n], b[:n])
		b = b[n:]
		off += n
	}
	return nil
}

// Read8 reads a little-endian 64-bit word at off. Words contained in one
// page are served straight from the backing page (the common case: PMO
// element accesses are 8-byte aligned); page-straddling words take the
// general ReadAt path. Both paths count the same 8 read bytes.
func (d *Device) Read8(off uint64) (uint64, error) {
	if in := off % pageSize; in <= pageSize-8 {
		if err := d.check(off, 8); err != nil {
			return 0, err
		}
		d.Reads += 8
		p := d.page(off, false)
		if p == nil {
			return 0, nil
		}
		return le64(p[in : in+8]), nil
	}
	var b [8]byte
	if err := d.ReadAt(b[:], off); err != nil {
		return 0, err
	}
	return le64(b[:]), nil
}

// Write8 writes a little-endian 64-bit word at off. Like Read8 it writes
// in-page words directly; with a persist buffer enabled it takes the
// general path, which routes the bytes through the volatile line model.
func (d *Device) Write8(off uint64, v uint64) error {
	if in := off % pageSize; in <= pageSize-8 && d.buf == nil {
		if err := d.check(off, 8); err != nil {
			return err
		}
		d.Writes += 8
		put64(d.page(off, true)[in:in+8], v)
		return nil
	}
	var b [8]byte
	put64(b[:], v)
	return d.WriteAt(b[:], off)
}

// Zero clears n bytes starting at off, dropping whole pages when possible.
func (d *Device) Zero(off uint64, n uint64) error {
	if err := d.check(off, int(n)); err != nil {
		return err
	}
	var zeros []byte
	for n > 0 {
		in := off % pageSize
		m := pageSize - in
		if m > n {
			m = n
		}
		if d.buf != nil {
			if zeros == nil {
				zeros = make([]byte, pageSize)
			}
			d.buf.dirty(off, zeros[:m])
		}
		if in == 0 && m == pageSize {
			d.dropPage(off / pageSize)
		} else if p := d.page(off, false); p != nil {
			for i := in; i < in+m; i++ {
				p[i] = 0
			}
		}
		off += m
		n -= m
	}
	return nil
}

// dropPage discards a whole materialized page.
func (d *Device) dropPage(pn uint64) {
	if d.table != nil {
		if d.table[pn] != nil {
			d.table[pn] = nil
			d.npages--
		}
		return
	}
	delete(d.pages, pn)
}

// Snapshot captures the full device contents. Used to emulate the state
// that survives a crash (for NVM) in crash-consistency tests.
func (d *Device) Snapshot() map[uint64][]byte {
	s := make(map[uint64][]byte, d.FootprintPages())
	if d.table != nil {
		for pn, p := range d.table {
			if p == nil {
				continue
			}
			cp := make([]byte, pageSize)
			copy(cp, p)
			s[uint64(pn)] = cp
		}
		return s
	}
	for pn, p := range d.pages {
		cp := make([]byte, pageSize)
		copy(cp, p)
		s[pn] = cp
	}
	return s
}

// Restore replaces the device contents with a snapshot. It models a
// power cycle, so an enabled persist buffer empties: the restored bytes
// are durable and no volatile lines survive.
func (d *Device) Restore(s map[uint64][]byte) {
	if d.table != nil {
		clear(d.table)
		d.npages = 0
		for pn, p := range s {
			cp := make([]byte, pageSize)
			copy(cp, p)
			d.table[pn] = cp
			d.npages++
		}
	} else {
		d.pages = make(map[uint64][]byte, len(s))
		for pn, p := range s {
			cp := make([]byte, pageSize)
			copy(cp, p)
			d.pages[pn] = cp
		}
	}
	if d.buf != nil {
		d.buf.reset()
	}
}

// FootprintPages returns the number of materialized pages.
func (d *Device) FootprintPages() int {
	if d.table != nil {
		return d.npages
	}
	return len(d.pages)
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func put64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
