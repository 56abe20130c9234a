// Package nvm models the physical memory devices of the simulated machine:
// a byte-addressable persistent memory (NVM) device and a DRAM device.
// Storage is sparse (pages are materialized on first touch) and so is its
// bookkeeping (a page directory that grows with the pages written), so
// simulations can declare the paper's 1 GB PMOs on a 2 GB device without
// paying for either. The NVM device supports snapshot and restore, which
// the crash-consistency tests use to emulate power failure, and counts
// reads/writes for the wear-related statistics. An optional persist buffer
// (persist.go) models the volatile store path to persistent media: while
// enabled, writes only become durable once their cache line is flushed and
// a fence drains it, and CrashView presents the state a power failure would
// leave as a copy-on-write view of the live device.
package nvm

import (
	"errors"
	"fmt"
	"slices"
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

// A leaf is one page-directory node: the backing pages of a 4 MB stretch
// of device space, nil for a page never written.
type leaf [leafPages]*[pageSize]byte

const leafPages = 1024 // pages per leaf: 8 KB of pointers

// Device is one sparse byte-addressable memory device.
//
// Page pn lives at dir[pn/leafPages][pn%leafPages]. The directory grows on
// first write up to the highest leaf touched, and leaves and pages are
// allocated on first write, so a device costs 8 bytes per 4 MB of space
// below its highest written byte (at most size/512 KB: 4 KB for 2 GB, 2 MB
// for 1 TB), 8 KB per leaf touched and 4 KB per page touched, whatever its
// capacity. NewDevice allocates nothing that depends on size.
//
// A crash view (CrashView) is a Device whose base is the live device: the
// pages in its own directory are its copies, and every other page reads
// through to base.
type Device struct {
	kind   Kind
	size   uint64
	dir    []*leaf
	npages int // materialized pages

	// buf, when non-nil, is the volatile persist buffer: writes stay
	// volatile until flushed and fenced (see EnablePersistBuffer).
	buf *PersistBuffer

	// Reads and Writes count byte-granularity accesses.
	Reads, Writes uint64

	base *Device // the device a crash view reads through to
}

// ErrOutOfRange is returned for accesses beyond the device size.
var ErrOutOfRange = errors.New("nvm: access out of device range")

// NewDevice creates a device of the given technology and byte size.
func NewDevice(kind Kind, size uint64) *Device {
	return &Device{kind: kind, size: size}
}

// Kind returns the device technology.
func (d *Device) Kind() Kind { return d.kind }

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// lookup returns the backing page of page pn, or nil when the page was
// never written. It is small enough to inline into the word accessors.
func (d *Device) lookup(pn uint64) *[pageSize]byte {
	if i := pn / leafPages; i < uint64(len(d.dir)) {
		if l := d.dir[i]; l != nil {
			return l[pn%leafPages]
		}
	}
	return nil
}

// borrowed returns the base page a crash view reads page pn through to:
// nil on an ordinary device and for a page the base never wrote. Readers
// call it only on a lookup miss.
func (d *Device) borrowed(pn uint64) *[pageSize]byte {
	if d.base == nil {
		return nil
	}
	return d.base.lookup(pn)
}

// materialize allocates the backing page of page pn (which must not exist
// yet), growing the directory and allocating its leaf as needed. The page
// is zeroed, or on a crash view a copy of the page it borrowed. Writers
// call it only on a lookup miss; keeping it out of line keeps their
// page-hit path small.
//
//go:noinline
func (d *Device) materialize(pn uint64) *[pageSize]byte {
	i := pn / leafPages
	if i >= uint64(len(d.dir)) {
		// Exactly i+1 leaves, so the bound in the Device comment holds.
		dir := make([]*leaf, i+1)
		copy(dir, d.dir)
		d.dir = dir
	}
	l := d.dir[i]
	if l == nil {
		l = new(leaf)
		d.dir[i] = l
	}
	var p *[pageSize]byte
	if src := d.borrowed(pn); src != nil {
		p = (*[pageSize]byte)(slices.Clone(src[:])) // not zeroed first
	} else {
		p = new([pageSize]byte)
	}
	l[pn%leafPages] = p
	d.npages++
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
		if p := d.lookup(off / pageSize); p != nil {
			copy(b[:n], p[in:in+n])
		} else if p = d.borrowed(off / pageSize); p != nil {
			copy(b[:n], p[in:in+n])
		} else {
			clear(b[:n])
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
		p := d.lookup(off / pageSize)
		if p == nil {
			p = d.materialize(off / pageSize)
		}
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
		p := d.lookup(off / pageSize)
		if p == nil {
			if p = d.borrowed(off / pageSize); p == nil {
				return 0, nil
			}
		}
		return le64(p[in : in+8]), nil
	}
	var b [8]byte
	if err := d.ReadAt(b[:], off); err != nil {
		return 0, err
	}
	return le64(b[:]), nil
}

// ReadWords reads len(dst) consecutive little-endian 64-bit words starting
// at off. It is Read8 over a range, with one range check and one page
// lookup per page (512 words) instead of one per word, and it counts the
// same 8 read bytes per word.
func (d *Device) ReadWords(dst []uint64, off uint64) error {
	if err := d.check(off, 8*len(dst)); err != nil {
		return err
	}
	d.Reads += 8 * uint64(len(dst))
	for len(dst) > 0 {
		in := off % pageSize
		if in > pageSize-8 { // a word straddling two pages
			var b [8]byte
			d.readRaw(b[:], off)
			dst[0] = le64(b[:])
			dst, off = dst[1:], off+8
			continue
		}
		n := min(int((pageSize-in)/8), len(dst))
		p := d.lookup(off / pageSize)
		if p == nil {
			p = d.borrowed(off / pageSize)
		}
		if p == nil {
			clear(dst[:n])
		} else {
			words := p[in : in+uint64(n)*8]
			for i := range dst[:n] {
				dst[i] = le64(words[i*8 : i*8+8])
			}
		}
		dst, off = dst[n:], off+uint64(n)*8
	}
	return nil
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
		p := d.lookup(off / pageSize)
		if p == nil {
			p = d.materialize(off / pageSize)
		}
		put64(p[in:in+8], v)
		return nil
	}
	var b [8]byte
	put64(b[:], v)
	return d.WriteAt(b[:], off)
}

// Zero clears n bytes starting at off, dropping whole pages when possible.
// A crash view clears its own copy of a whole page its base holds instead:
// a dropped page would read through to the base.
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
		if in == 0 && m == pageSize && d.borrowed(off/pageSize) == nil {
			d.dropPage(off / pageSize)
		} else if p := d.lookup(off / pageSize); p != nil {
			clear(p[in : in+m])
		} else if d.borrowed(off/pageSize) != nil {
			clear(d.materialize(off / pageSize)[in : in+m])
		}
		off += m
		n -= m
	}
	return nil
}

// dropPage discards a whole materialized page.
func (d *Device) dropPage(pn uint64) {
	if d.lookup(pn) != nil {
		d.dir[pn/leafPages][pn%leafPages] = nil
		d.npages--
	}
}

// eachPage calls fn with every page of the device's image: its own pages,
// then, for a crash view, the base pages it reads through to.
func (d *Device) eachPage(fn func(pn uint64, p *[pageSize]byte)) {
	for i, l := range d.dir {
		if l == nil {
			continue
		}
		for j, p := range l {
			if p != nil {
				fn(uint64(i)*leafPages+uint64(j), p)
			}
		}
	}
	if d.base != nil {
		d.base.eachPage(func(pn uint64, p *[pageSize]byte) {
			if d.lookup(pn) == nil {
				fn(pn, p)
			}
		})
	}
}

// Snapshot captures the full device contents. Used to emulate the state
// that survives a crash (for NVM) in crash-consistency tests.
func (d *Device) Snapshot() map[uint64][]byte {
	s := make(map[uint64][]byte, d.npages)
	d.eachPage(func(pn uint64, p *[pageSize]byte) {
		s[pn] = append([]byte(nil), p[:]...)
	})
	return s
}

// Restore replaces the device contents with a snapshot. It models a
// power cycle, so an enabled persist buffer empties: the restored bytes
// are durable and no volatile lines survive. A crash view stops reading
// through to its base. A snapshot page past the device's last page
// panics.
func (d *Device) Restore(s map[uint64][]byte) {
	pages := (d.size + pageSize - 1) / pageSize
	d.dir, d.npages, d.base = nil, 0, nil
	for pn, p := range s {
		if pn >= pages {
			panic(fmt.Sprintf("nvm: snapshot page %d is outside the device's %d pages", pn, pages))
		}
		copy(d.materialize(pn)[:], p)
	}
	if d.buf != nil {
		d.buf.reset()
	}
}

// FootprintPages returns the number of materialized pages; for a crash
// view, the pages of its image.
func (d *Device) FootprintPages() int {
	if d.base == nil {
		return d.npages
	}
	n := 0
	d.eachPage(func(uint64, *[pageSize]byte) { n++ })
	return n
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
