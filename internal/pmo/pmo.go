// Package pmo implements persistent memory objects (PMOs) — the
// abstraction of Table I of the paper. A PMO is a named, permissioned
// container for pointer-rich persistent data structures, hosted directly
// on the simulated NVM device without file backing. The package provides
// the pool API of Table I: create, open, close, destroy, pmalloc, pfree
// and ObjectID translation. Attach and detach are provided by the runtime
// (internal/core), which layers address-space mapping, permission and
// exposure-window semantics on top of this package's metadata.
//
// Relocatability: pointers stored inside PMOs are ObjectIDs — a (pool,
// offset) pair — rather than virtual addresses, so a PMO can be attached
// at a different randomized address on every attach (Section II).
package pmo

import (
	"errors"
	"fmt"

	"repro/internal/nvm"
)

// Errors returned by the manager.
var (
	// ErrExists is returned when creating a PMO whose name is taken.
	ErrExists = errors.New("pmo: name already exists")
	// ErrNotFound is returned when opening an unknown PMO.
	ErrNotFound = errors.New("pmo: not found")
	// ErrNoMemory is returned when pmalloc cannot satisfy a request.
	ErrNoMemory = errors.New("pmo: out of persistent memory")
	// ErrBadOID is returned for malformed or out-of-range ObjectIDs.
	ErrBadOID = errors.New("pmo: bad object id")
	// ErrClosed is returned when operating on a closed PMO handle.
	ErrClosed = errors.New("pmo: closed")
)

// OID is a relocatable persistent pointer: a 64-bit value holding the pool
// ID in the top 16 bits and the byte offset within the PMO in the low 48.
type OID uint64

// NilOID is the persistent null pointer.
const NilOID OID = 0

// MakeOID builds an OID from a pool ID and an offset.
func MakeOID(pool uint32, off uint64) OID {
	return OID(uint64(pool)<<48 | off&(1<<48-1))
}

// Pool returns the pool (PMO) ID part of the OID.
func (o OID) Pool() uint32 { return uint32(o >> 48) }

// Offset returns the intra-PMO byte offset part of the OID.
func (o OID) Offset() uint64 { return uint64(o) & (1<<48 - 1) }

// IsNil reports whether the OID is the persistent null pointer.
func (o OID) IsNil() bool { return o == NilOID }

// String renders the OID as pool:offset.
func (o OID) String() string {
	return fmt.Sprintf("%d:%#x", o.Pool(), o.Offset())
}

// Persistent header layout. The header occupies the first HeaderSize bytes
// of every PMO; the region after it notionally holds the embedded
// page-table subtree of Figure 1a, and user data starts at DataStart.
const (
	magicValue = 0x31304f4d50 // "PMO01"

	offMagic    = 0
	offSize     = 8
	offFreeHead = 16
	offBrk      = 24
	offAllocs   = 32
	offRoot     = 40

	// HeaderSize is the size of the PMO metadata header.
	HeaderSize = 64
	// SubtreeSize is the space reserved for the embedded page-table
	// subtree (Figure 1a): a page of upper-level entries.
	SubtreeSize = 4032
	// DataStart is the offset of the first allocatable byte.
	DataStart = HeaderSize + SubtreeSize

	// blockHeader is the per-allocation bookkeeping prefix.
	blockHeader = 8
	// minBlock is the smallest split remainder worth keeping.
	minBlock = blockHeader + 16
)

// Mode is the PMO permission mode, following file-style owner permission.
type Mode uint8

// Mode bits.
const (
	// ModeRead permits the owner to attach for reading.
	ModeRead Mode = 1 << iota
	// ModeWrite permits the owner to attach for writing.
	ModeWrite
	// ModeOtherRead permits non-owners to attach for reading.
	ModeOtherRead
	// ModeOtherWrite permits non-owners to attach for writing.
	ModeOtherWrite
)

// PMO is one persistent memory object: the manager-side metadata plus a
// handle for allocation calls. Data content lives on the NVM device.
type PMO struct {
	// ID is the pool ID, unique within the manager.
	ID uint32
	// Name is the namespace name of the PMO.
	Name string
	// Size is the PMO capacity in bytes (header included).
	Size uint64
	// Mode is the owner permission mode.
	Mode Mode
	// DevOff is the byte offset of the PMO within the NVM device.
	DevOff uint64

	mgr    *Manager
	owner  Principal
	closed bool
}

// Superblock layout: the manager persists its namespace at the start of
// the device so PMOs can be located again across process restarts and
// system reboots (the "system naming" property of Section II). Entry i
// lives at superEntry0 + i*superEntrySize.
const (
	superMagic     = 0x5245505553424c4b // "SUPRSBLK"-ish tag
	superOffMagic  = 0
	superOffCount  = 8
	superOffBrk    = 16
	superEntry0    = 64
	superEntrySize = 96
	superNameMax   = 36
	superOwnerMax  = 16
	// superSize reserves the namespace region; PMO space follows.
	superSize = 64 << 10
)

// Manager owns the PMO namespace and carves PMOs out of one NVM device.
// The namespace is persisted in a superblock on the device, so a Manager
// built over a device that already holds one resumes the existing
// namespace (reboot support).
type Manager struct {
	dev    *nvm.Device
	byName map[string]*PMO
	byID   map[uint32]*PMO
	nextID uint32
	brk    uint64 // device-space bump pointer
}

// NewManager creates a manager over the given NVM device, loading the
// persisted namespace if the device holds one.
func NewManager(dev *nvm.Device) *Manager {
	m := &Manager{
		dev:    dev,
		byName: make(map[string]*PMO),
		byID:   make(map[uint32]*PMO),
		nextID: 1,
		brk:    superSize,
	}
	if magic, err := dev.Read8(superOffMagic); err == nil && magic == superMagic {
		m.loadSuper()
	} else {
		_ = dev.Write8(superOffMagic, superMagic)
		_ = dev.Write8(superOffCount, 0)
		_ = dev.Write8(superOffBrk, m.brk)
	}
	return m
}

// loadSuper rebuilds the namespace from the superblock.
func (m *Manager) loadSuper() {
	count, _ := m.dev.Read8(superOffCount)
	m.brk, _ = m.dev.Read8(superOffBrk)
	if m.brk < superSize {
		m.brk = superSize
	}
	for i := uint64(0); i < count; i++ {
		base := uint64(superEntry0 + i*superEntrySize)
		var nameBuf [superNameMax]byte
		nameLen, _ := m.dev.Read8(base)
		_ = m.dev.ReadAt(nameBuf[:], base+8)
		idSize, _ := m.dev.Read8(base + 8 + superNameMax)
		devOff, _ := m.dev.Read8(base + 16 + superNameMax)
		modeOwnerLen, _ := m.dev.Read8(base + 24 + superNameMax)
		var ownerBuf [superOwnerMax]byte
		_ = m.dev.ReadAt(ownerBuf[:], base+32+superNameMax)
		if nameLen == 0 || nameLen > superNameMax {
			continue
		}
		ownerLen := modeOwnerLen >> 8
		if ownerLen > superOwnerMax {
			ownerLen = 0
		}
		p := &PMO{
			ID:     uint32(idSize >> 48),
			Size:   idSize & (1<<48 - 1),
			Name:   string(nameBuf[:nameLen]),
			Mode:   Mode(modeOwnerLen),
			DevOff: devOff,
			owner:  Principal(ownerBuf[:ownerLen]),
			mgr:    m,
		}
		m.byName[p.Name] = p
		m.byID[p.ID] = p
		if p.ID >= m.nextID {
			m.nextID = p.ID + 1
		}
	}
}

// persistEntry appends the PMO to the superblock.
func (m *Manager) persistEntry(p *PMO) error {
	count, err := m.dev.Read8(superOffCount)
	if err != nil {
		return err
	}
	base := uint64(superEntry0 + count*superEntrySize)
	if base+superEntrySize > superSize {
		return fmt.Errorf("pmo: namespace full (%d entries)", count)
	}
	name := []byte(p.Name)
	if len(name) > superNameMax {
		return fmt.Errorf("pmo: name %q too long (max %d)", p.Name, superNameMax)
	}
	if err := m.dev.Write8(base, uint64(len(name))); err != nil {
		return err
	}
	var buf [superNameMax]byte
	copy(buf[:], name)
	if err := m.dev.WriteAt(buf[:], base+8); err != nil {
		return err
	}
	if err := m.dev.Write8(base+8+superNameMax, uint64(p.ID)<<48|p.Size); err != nil {
		return err
	}
	if err := m.dev.Write8(base+16+superNameMax, p.DevOff); err != nil {
		return err
	}
	owner := []byte(p.owner)
	if len(owner) > superOwnerMax {
		return fmt.Errorf("pmo: owner %q too long (max %d)", p.owner, superOwnerMax)
	}
	if err := m.dev.Write8(base+24+superNameMax, uint64(p.Mode)|uint64(len(owner))<<8); err != nil {
		return err
	}
	var obuf [superOwnerMax]byte
	copy(obuf[:], owner)
	if err := m.dev.WriteAt(obuf[:], base+32+superNameMax); err != nil {
		return err
	}
	if err := m.dev.Write8(superOffCount, count+1); err != nil {
		return err
	}
	return m.dev.Write8(superOffBrk, m.brk)
}

// Device returns the backing NVM device.
func (m *Manager) Device() *nvm.Device { return m.dev }

// Create makes a new PMO with the given name, size and mode; the calling
// process is the owner (Table I: PMO_create).
func (m *Manager) Create(name string, size uint64, mode Mode) (*PMO, error) {
	if _, ok := m.byName[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if size < DataStart+minBlock {
		size = DataStart + minBlock
	}
	// Round to page multiple so embedded subtrees cover whole pages.
	size = (size + 4095) &^ 4095
	if m.brk+size > m.dev.Size() {
		return nil, fmt.Errorf("%w: device full creating %q", ErrNoMemory, name)
	}
	p := &PMO{
		ID:     m.nextID,
		Name:   name,
		Size:   size,
		Mode:   mode,
		DevOff: m.brk,
		mgr:    m,
	}
	m.nextID++
	m.brk += size
	m.byName[name] = p
	m.byID[p.ID] = p
	if err := m.persistEntry(p); err != nil {
		return nil, err
	}
	// Initialize the persistent header.
	p.write8(offMagic, magicValue)
	p.write8(offSize, size)
	p.write8(offFreeHead, 0)
	p.write8(offBrk, DataStart)
	p.write8(offAllocs, 0)
	p.write8(offRoot, 0)
	return p, nil
}

// Open reopens a previously created PMO by name (Table I: PMO_open).
func (m *Manager) Open(name string) (*PMO, error) {
	p, ok := m.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if p.read8(offMagic) != magicValue {
		return nil, fmt.Errorf("pmo: %q corrupt header", name)
	}
	p.closed = false
	return p, nil
}

// Lookup returns the PMO with the given pool ID.
func (m *Manager) Lookup(id uint32) (*PMO, error) {
	p, ok := m.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return p, nil
}

// Names returns all PMO names (for tooling).
func (m *Manager) Names() []string {
	out := make([]string, 0, len(m.byName))
	for n := range m.byName {
		out = append(out, n)
	}
	return out
}

// Close closes a handle (Table I: PMO_close). Contents persist.
func (p *PMO) Close() { p.closed = true }

// Closed reports whether the handle was closed.
func (p *PMO) Closed() bool { return p.closed }

// helpers for header/word access via the device
func (p *PMO) read8(off uint64) uint64 {
	v, err := p.mgr.dev.Read8(p.DevOff + off)
	if err != nil {
		panic(err) // header offsets are always in range
	}
	return v
}

func (p *PMO) write8(off uint64, v uint64) {
	if err := p.mgr.dev.Write8(p.DevOff+off, v); err != nil {
		panic(err)
	}
}

// ReadAt reads raw PMO bytes (bypassing protection; used by the runtime,
// the allocator and recovery code).
func (p *PMO) ReadAt(b []byte, off uint64) error {
	if off+uint64(len(b)) > p.Size {
		return fmt.Errorf("%w: read at %#x len %d", ErrBadOID, off, len(b))
	}
	return p.mgr.dev.ReadAt(b, p.DevOff+off)
}

// WriteAt writes raw PMO bytes.
func (p *PMO) WriteAt(b []byte, off uint64) error {
	if off+uint64(len(b)) > p.Size {
		return fmt.Errorf("%w: write at %#x len %d", ErrBadOID, off, len(b))
	}
	return p.mgr.dev.WriteAt(b, p.DevOff+off)
}

// Flush issues a cache-line writeback toward the backing device's
// persist buffer for the PMO byte range [off, off+n). Without a buffer
// (the default), writes are modeled as immediately durable and Flush is
// a no-op, so callers can issue the real persistence protocol
// unconditionally.
func (p *PMO) Flush(off, n uint64) { p.mgr.dev.Flush(p.DevOff+off, n) }

// Fence is a persist barrier: it drains every writeback issued by Flush
// (no-op without a persist buffer).
func (p *PMO) Fence() { p.mgr.dev.Fence() }

// Read8 reads a 64-bit word at the PMO offset.
func (p *PMO) Read8(off uint64) (uint64, error) {
	if off+8 > p.Size {
		return 0, fmt.Errorf("%w: read8 at %#x", ErrBadOID, off)
	}
	return p.mgr.dev.Read8(p.DevOff + off)
}

// ReadWords reads len(dst) consecutive 64-bit words starting at the PMO
// offset: Read8 over a range, checked once and looked up once per page.
func (p *PMO) ReadWords(dst []uint64, off uint64) error {
	if off+8*uint64(len(dst)) > p.Size {
		return fmt.Errorf("%w: read of %d words at %#x", ErrBadOID, len(dst), off)
	}
	return p.mgr.dev.ReadWords(dst, p.DevOff+off)
}

// MapImage maps img into the PMO's device (nvm.Device.MapImage): the
// device reads the image's range in place and copies a page only when it
// first writes it. The range must lie inside the PMO, and the device must
// meet MapImage's contract: no persist buffer, no image mapped before.
func (p *PMO) MapImage(img *nvm.Image) error {
	if lo, hi := img.Range(); lo < p.DevOff || hi > p.DevOff+p.Size {
		return fmt.Errorf("%w: image of device range [%#x, %#x) outside the PMO", ErrBadOID, lo, hi)
	}
	return p.mgr.dev.MapImage(img)
}

// Write8 writes a 64-bit word at the PMO offset.
func (p *PMO) Write8(off uint64, v uint64) error {
	if off+8 > p.Size {
		return fmt.Errorf("%w: write8 at %#x", ErrBadOID, off)
	}
	return p.mgr.dev.Write8(p.DevOff+off, v)
}

// SetRoot records the application root object of the PMO, so a process
// reopening the PMO across runs can find its data structure.
func (p *PMO) SetRoot(o OID) { p.write8(offRoot, uint64(o)) }

// Root returns the recorded application root object.
func (p *PMO) Root() OID { return OID(p.read8(offRoot)) }

// AllocCount returns the number of live allocations.
func (p *PMO) AllocCount() uint64 { return p.read8(offAllocs) }

// Alloc allocates size bytes of persistent data in the PMO and returns the
// OID of the first byte (Table I: pmalloc). The allocator is an
// address-ordered first-fit free list with coalescing, with all metadata
// kept inside the PMO so it survives process restarts.
func (p *PMO) Alloc(size uint64) (OID, error) {
	if p.closed {
		return NilOID, ErrClosed
	}
	if size == 0 {
		size = 8
	}
	size = (size + 7) &^ 7 // 8-byte alignment
	need := size + blockHeader

	// First-fit scan of the free list.
	var prev uint64
	cur := p.read8(offFreeHead)
	for cur != 0 {
		bsize := p.read8(cur)
		next := p.read8(cur + 8)
		if bsize >= need {
			if bsize-need >= minBlock {
				// Split: the tail remains free.
				rest := cur + need
				p.write8(rest, bsize-need)
				p.write8(rest+8, next)
				p.Flush(rest, 16)
				p.relinkFree(prev, rest)
				p.write8(cur, need)
			} else {
				p.relinkFree(prev, next)
				// keep block's existing size
			}
			p.Flush(cur, blockHeader)
			p.write8(offAllocs, p.read8(offAllocs)+1)
			p.Flush(0, HeaderSize)
			return MakeOID(p.ID, cur+blockHeader), nil
		}
		prev, cur = cur, next
	}

	// Bump allocation at the end of used space.
	brk := p.read8(offBrk)
	if brk+need > p.Size {
		return NilOID, fmt.Errorf("%w: pmo %q alloc %d", ErrNoMemory, p.Name, size)
	}
	p.write8(brk, need)
	p.Flush(brk, blockHeader)
	p.write8(offBrk, brk+need)
	p.write8(offAllocs, p.read8(offAllocs)+1)
	p.Flush(0, HeaderSize)
	return MakeOID(p.ID, brk+blockHeader), nil
}

func (p *PMO) relinkFree(prev, next uint64) {
	if prev == 0 {
		p.write8(offFreeHead, next)
		p.Flush(offFreeHead, 8)
	} else {
		p.write8(prev+8, next)
		p.Flush(prev+8, 8)
	}
}

// Free releases persistent data pointed to by the OID (Table I: pfree).
// Adjacent free blocks are coalesced.
func (p *PMO) Free(o OID) error {
	if p.closed {
		return ErrClosed
	}
	if o.Pool() != p.ID {
		return fmt.Errorf("%w: %v not in pool %d", ErrBadOID, o, p.ID)
	}
	blk := o.Offset() - blockHeader
	if blk < DataStart || blk >= p.read8(offBrk) {
		return fmt.Errorf("%w: free %v", ErrBadOID, o)
	}
	bsize := p.read8(blk)
	if bsize < blockHeader || blk+bsize > p.read8(offBrk) {
		return fmt.Errorf("%w: free %v (corrupt block)", ErrBadOID, o)
	}

	// Address-ordered insert with coalescing.
	var prev uint64
	cur := p.read8(offFreeHead)
	for cur != 0 && cur < blk {
		prev, cur = cur, p.read8(cur+8)
	}
	if cur == blk {
		return fmt.Errorf("%w: double free %v", ErrBadOID, o)
	}
	// Link blk between prev and cur.
	p.write8(blk+8, cur)
	p.relinkFree(prev, blk)
	// Coalesce forward.
	if cur != 0 && blk+bsize == cur {
		p.write8(blk, bsize+p.read8(cur))
		p.write8(blk+8, p.read8(cur+8))
		bsize = p.read8(blk)
	}
	// Coalesce backward.
	if prev != 0 && prev+p.read8(prev) == blk {
		p.write8(prev, p.read8(prev)+bsize)
		p.write8(prev+8, p.read8(blk+8))
		p.Flush(prev, 16)
	}
	p.Flush(blk, 16)
	p.write8(offAllocs, p.read8(offAllocs)-1)
	p.Flush(0, HeaderSize)
	return nil
}

// CheckConsistency validates the PMO's persistent metadata as found on
// the device: header magic and size, the bump pointer, and the free list
// (in-range, address-ordered, non-overlapping, acyclic, sane sizes). The
// crash-injection verifier runs it on every post-crash image; it reads
// through the raw device path so it works on a freshly reopened PMO.
func (p *PMO) CheckConsistency() error {
	magic, err := p.Read8(offMagic)
	if err != nil {
		return err
	}
	if magic != magicValue {
		return fmt.Errorf("pmo: %q bad header magic %#x", p.Name, magic)
	}
	size, err := p.Read8(offSize)
	if err != nil {
		return err
	}
	if size != p.Size {
		return fmt.Errorf("pmo: %q header size %d != namespace size %d", p.Name, size, p.Size)
	}
	brk, err := p.Read8(offBrk)
	if err != nil {
		return err
	}
	if brk < DataStart || brk > p.Size {
		return fmt.Errorf("pmo: %q bump pointer %#x outside [%#x, %#x]", p.Name, brk, uint64(DataStart), p.Size)
	}
	// Walk the free list. Block count is bounded by the smallest legal
	// block, which also bounds a cycle.
	maxBlocks := (brk-DataStart)/(blockHeader+8) + 1
	var prevEnd uint64
	cur, err := p.Read8(offFreeHead)
	if err != nil {
		return err
	}
	for steps := uint64(0); cur != 0; steps++ {
		if steps > maxBlocks {
			return fmt.Errorf("pmo: %q free list cycle after %d blocks", p.Name, steps)
		}
		if cur < DataStart || cur+blockHeader > brk {
			return fmt.Errorf("pmo: %q free block %#x out of range", p.Name, cur)
		}
		if cur < prevEnd {
			return fmt.Errorf("pmo: %q free list unordered or overlapping at %#x", p.Name, cur)
		}
		bsize, err := p.Read8(cur)
		if err != nil {
			return err
		}
		if bsize < blockHeader+8 || cur+bsize > brk {
			return fmt.Errorf("pmo: %q free block %#x has bad size %d", p.Name, cur, bsize)
		}
		prevEnd = cur + bsize
		if cur, err = p.Read8(cur + 8); err != nil {
			return err
		}
	}
	return nil
}

// UsableSize returns the payload size of the allocation at o.
func (p *PMO) UsableSize(o OID) (uint64, error) {
	if o.Pool() != p.ID {
		return 0, fmt.Errorf("%w: %v not in pool %d", ErrBadOID, o, p.ID)
	}
	blk := o.Offset() - blockHeader
	if blk < DataStart || blk+blockHeader > p.Size {
		return 0, fmt.Errorf("%w: size of %v", ErrBadOID, o)
	}
	return p.read8(blk) - blockHeader, nil
}

// FreeBytes returns the total bytes on the free list plus untouched tail
// space (for fragmentation diagnostics and tests).
func (p *PMO) FreeBytes() uint64 {
	total := p.Size - p.read8(offBrk)
	for cur := p.read8(offFreeHead); cur != 0; cur = p.read8(cur + 8) {
		total += p.read8(cur)
	}
	return total
}
