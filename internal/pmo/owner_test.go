package pmo

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/nvm"
)

func TestOwnershipChecks(t *testing.T) {
	m := newMgr()
	p, err := m.CreateAs("alice", "secrets", 1<<16, ModeRead|ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	if p.Owner() != "alice" {
		t.Fatalf("owner = %q", p.Owner())
	}
	// Owner may open and attach rw; others may not.
	if _, err := m.OpenAs("alice", "secrets"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenAs("bob", "secrets"); !errors.Is(err, ErrPermission) {
		t.Fatalf("bob open: %v", err)
	}
	if !p.AllowsMode("alice", ModeRead|ModeWrite) {
		t.Fatal("owner denied rw")
	}
	if p.AllowsMode("bob", ModeRead) {
		t.Fatal("stranger allowed read")
	}
	// Root bypasses everything.
	if _, err := m.OpenAs(Root, "secrets"); err != nil {
		t.Fatal(err)
	}
	if !p.AllowsMode(Root, ModeRead|ModeWrite) {
		t.Fatal("root denied")
	}
}

func TestOtherModeBits(t *testing.T) {
	m := newMgr()
	p, _ := m.CreateAs("alice", "pub", 1<<16, ModeRead|ModeWrite|ModeOtherRead)
	if _, err := m.OpenAs("bob", "pub"); err != nil {
		t.Fatalf("world-readable open: %v", err)
	}
	if !p.AllowsMode("bob", ModeRead) {
		t.Fatal("bob denied read on world-readable PMO")
	}
	if p.AllowsMode("bob", ModeWrite) {
		t.Fatal("bob allowed write without ModeOtherWrite")
	}
	if err := p.Chmod("alice", ModeRead|ModeWrite|ModeOtherRead|ModeOtherWrite); err != nil {
		t.Fatal(err)
	}
	if !p.AllowsMode("bob", ModeWrite) {
		t.Fatal("bob denied write after chmod")
	}
	if err := p.Chmod("bob", ModeRead); !errors.Is(err, ErrPermission) {
		t.Fatalf("bob chmod: %v", err)
	}
}

func TestChown(t *testing.T) {
	m := newMgr()
	p, _ := m.CreateAs("alice", "x", 1<<16, ModeRead|ModeWrite)
	if err := p.Chown("bob", "bob"); !errors.Is(err, ErrPermission) {
		t.Fatalf("theft allowed: %v", err)
	}
	if err := p.Chown("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if p.Owner() != "bob" {
		t.Fatal("chown did not take")
	}
	if err := p.Chown(Root, "carol"); err != nil {
		t.Fatal(err)
	}
}

func TestOwnershipPersistsAcrossReboot(t *testing.T) {
	dev := nvm.NewDevice(nvm.NVM, 1<<26)
	m := NewManager(dev)
	p, err := m.CreateAs("alice", "durable", 1<<16, ModeRead|ModeWrite|ModeOtherRead)
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	// Simulate reboot: fresh manager over the same device.
	m2 := NewManager(dev)
	q, err := m2.OpenAs("alice", "durable")
	if err != nil {
		t.Fatal(err)
	}
	if q.Owner() != "alice" {
		t.Fatalf("owner after reboot = %q", q.Owner())
	}
	if q.Mode&ModeOtherRead == 0 {
		t.Fatal("mode bits lost across reboot")
	}
	if _, err := m2.OpenAs("eve", "durable"); err != nil {
		t.Fatalf("world-readable lost: %v", err)
	}
	if q.AllowsMode("eve", ModeWrite) {
		t.Fatal("write leaked to others after reboot")
	}
}

func TestDestroy(t *testing.T) {
	m := newMgr()
	p, _ := m.CreateAs("alice", "doomed", 1<<16, ModeRead|ModeWrite)
	o, _ := p.Alloc(8)
	p.Write8(o.Offset(), 0xdead)
	if err := m.Destroy("bob", "doomed"); !errors.Is(err, ErrPermission) {
		t.Fatalf("bob destroy: %v", err)
	}
	if err := m.Destroy("alice", "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("destroyed PMO still opens: %v", err)
	}
	if err := m.Destroy(Root, "doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double destroy: %v", err)
	}
	// Contents were shredded at the device level.
	if v, _ := m.Device().Read8(p.DevOff + o.Offset()); v != 0 {
		t.Fatalf("destroyed contents readable: %#x", v)
	}
	// The name is reusable.
	if _, err := m.CreateAs("carol", "doomed", 1<<16, ModeRead); err != nil {
		t.Fatal(err)
	}
}

// TestDestroyRewritesSuperblockInIDOrder: the superblock Destroy
// rewrites is the same bytes on every run, so a device image after a
// destroy is reproducible.
func TestDestroyRewritesSuperblockInIDOrder(t *testing.T) {
	hashes := map[[32]byte]bool{}
	for run := 0; run < 20; run++ {
		m := newMgr()
		for i := 0; i < 6; i++ {
			if _, err := m.Create(fmt.Sprintf("p%d", i), 1<<16, ModeRead|ModeWrite); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Destroy(Root, "p2"); err != nil {
			t.Fatal(err)
		}
		hashes[nvm.ImageHash(m.Device())] = true
	}
	if len(hashes) != 1 {
		t.Fatalf("20 identical runs left %d different device images", len(hashes))
	}
}

func TestDestroySurvivesReboot(t *testing.T) {
	dev := nvm.NewDevice(nvm.NVM, 1<<26)
	m := NewManager(dev)
	m.CreateAs("alice", "a", 1<<16, ModeRead|ModeWrite)
	m.CreateAs("alice", "b", 1<<16, ModeRead|ModeWrite)
	if err := m.Destroy("alice", "a"); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(dev)
	if _, err := m2.Open("a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("destroyed PMO resurrected after reboot")
	}
	if _, err := m2.Open("b"); err != nil {
		t.Fatalf("surviving PMO lost: %v", err)
	}
}

func TestAnonymousPMOsAreOpen(t *testing.T) {
	m := newMgr()
	p, _ := m.Create("legacy", 1<<16, ModeRead|ModeWrite)
	if !p.AllowsOpen("anyone") || !p.AllowsMode("anyone", ModeRead|ModeWrite) {
		t.Fatal("ownerless PMOs must stay permissive for legacy callers")
	}
}
