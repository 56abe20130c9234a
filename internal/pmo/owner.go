package pmo

import (
	"errors"
	"fmt"
)

// This file implements the namespace permission side of the PMO model
// (Section II: "PMOs can be managed by the OS similar to files in terms
// of namespace and permission"). Each PMO records an owner and a mode;
// opening and attaching are checked against the calling principal. The
// TERP poset's upper levels (permission on users, permission on user
// groups — Figure 2) are built from these checks: they reduce the set of
// principals for which the PMO is ever accessible at all.

// Principal identifies a user for namespace permission checks.
type Principal string

// Root is the superuser principal, allowed everything.
const Root Principal = "root"

// ErrPermission is returned when a principal lacks rights on a PMO.
var ErrPermission = errors.New("pmo: permission denied")

// Owner returns the PMO's owning principal.
func (p *PMO) Owner() Principal { return p.owner }

// AllowsOpen reports whether the principal may open the PMO at all.
func (p *PMO) AllowsOpen(who Principal) bool {
	if who == Root || p.owner == "" {
		return true
	}
	if who == p.owner {
		return p.Mode&(ModeRead|ModeWrite) != 0
	}
	return p.Mode&ModeOtherRead != 0
}

// AllowsMode reports whether the principal may attach with the requested
// rights (read and/or write bits of Mode).
func (p *PMO) AllowsMode(who Principal, want Mode) bool {
	if who == Root || p.owner == "" {
		return true
	}
	var have Mode
	if who == p.owner {
		have = p.Mode & (ModeRead | ModeWrite)
	} else {
		if p.Mode&ModeOtherRead != 0 {
			have |= ModeRead
		}
		if p.Mode&ModeOtherWrite != 0 {
			have |= ModeWrite
		}
	}
	return have&want == want
}

// Chown transfers ownership (owner or Root only).
func (p *PMO) Chown(who Principal, newOwner Principal) error {
	if who != Root && who != p.owner {
		return fmt.Errorf("%w: chown %q by %q", ErrPermission, p.Name, who)
	}
	p.owner = newOwner
	return nil
}

// Chmod changes the mode bits (owner or Root only).
func (p *PMO) Chmod(who Principal, mode Mode) error {
	if who != Root && who != p.owner {
		return fmt.Errorf("%w: chmod %q by %q", ErrPermission, p.Name, who)
	}
	p.Mode = mode
	return nil
}

// CreateAs makes a new PMO owned by the given principal.
func (m *Manager) CreateAs(who Principal, name string, size uint64, mode Mode) (*PMO, error) {
	p, err := m.Create(name, size, mode)
	if err != nil {
		return nil, err
	}
	p.owner = who
	// Re-persist the entry so the ownership survives reboots.
	if err := m.rewriteSuper(); err != nil {
		return nil, err
	}
	return p, nil
}

// OpenAs reopens a PMO with a namespace permission check.
func (m *Manager) OpenAs(who Principal, name string) (*PMO, error) {
	p, err := m.Open(name)
	if err != nil {
		return nil, err
	}
	if !p.AllowsOpen(who) {
		return nil, fmt.Errorf("%w: open %q by %q", ErrPermission, name, who)
	}
	return p, nil
}

// Destroy removes a PMO from the namespace and zeroes its contents (the
// persistent equivalent of unlink + shred). Only the owner or Root may
// destroy. The device space is not reclaimed by the bump allocator; the
// name becomes available again.
func (m *Manager) Destroy(who Principal, name string) error {
	p, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if who != Root && p.owner != "" && who != p.owner {
		return fmt.Errorf("%w: destroy %q by %q", ErrPermission, name, who)
	}
	if err := m.dev.Zero(p.DevOff, p.Size); err != nil {
		return err
	}
	delete(m.byName, name)
	m.byID[p.ID] = nil
	p.closed = true
	return m.rewriteSuper()
}

// rewriteSuper rewrites the whole superblock from the in-memory namespace
// in pool ID order (used after Destroy, which removes entries).
func (m *Manager) rewriteSuper() error {
	if err := m.dev.Write8(superOffCount, 0); err != nil {
		return err
	}
	for _, p := range m.byID {
		if p == nil {
			continue
		}
		if err := m.persistEntry(p); err != nil {
			return err
		}
	}
	return m.dev.Write8(superOffBrk, m.brk)
}
