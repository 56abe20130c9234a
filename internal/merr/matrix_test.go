package merr

import (
	"math/rand"
	"testing"

	"repro/internal/paging"
)

func newAS() *paging.AddressSpace { return paging.NewAddressSpace(rand.New(rand.NewSource(1))) }

func attach(t *testing.T, as *paging.AddressSpace, id uint32, perm paging.Perm) *paging.Mapping {
	t.Helper()
	m, err := as.Attach(id, 1<<20, nil, 0, perm)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// check translates va and checks the access as the runtime does: an
// address outside every mapping has no row and is denied before the
// matrix is consulted.
func check(x *Matrix, as *paging.AddressSpace, va uint64, want paging.Perm) (*paging.Mapping, bool) {
	m, err := as.Lookup(va)
	if err != nil {
		return nil, false
	}
	return m, x.CheckAt(m, want, 0)
}

// TestMatrixAddCheckRemove: attach installs the PMO's row and detach
// removes it.
func TestMatrixAddCheckRemove(t *testing.T) {
	var x Matrix
	as := newAS()
	m := attach(t, as, 1, paging.ReadWrite)
	if r, ok := check(&x, as, m.Base+0x800, paging.PermWrite); !ok || r.PMOID != 1 {
		t.Fatal("in-range write denied")
	}
	if _, ok := check(&x, as, m.Base+m.Size, paging.PermRead); ok {
		t.Fatal("out-of-range access allowed")
	}
	if err := as.Detach(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := check(&x, as, m.Base+0x800, paging.PermRead); ok {
		t.Fatal("access allowed after detach")
	}
}

func TestMatrixPermissionEnforced(t *testing.T) {
	var x Matrix
	m := &paging.Mapping{PMOID: 2, Perm: paging.PermRead}
	if !x.CheckAt(m, paging.PermRead, 0) {
		t.Fatal("read denied on read-only row")
	}
	if x.CheckAt(m, paging.PermWrite, 0) {
		t.Fatal("write allowed on read-only row")
	}
	if x.Denials != 1 {
		t.Fatalf("denials = %d, want 1", x.Denials)
	}
}

// TestMatrixRelocate: randomization moves the row itself, so rights a
// thread grant widened stay with it and the old range is gone.
func TestMatrixRelocate(t *testing.T) {
	var x Matrix
	as := newAS()
	m := attach(t, as, 3, paging.PermRead)
	m.Perm |= paging.PermWrite // a grant widens the row
	old := m.Base
	moved, err := as.Randomize(3)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Base == old {
		t.Fatal("randomization kept the base")
	}
	if _, ok := check(&x, as, old, paging.PermRead); ok {
		t.Fatal("old range still allowed after randomization")
	}
	if _, ok := check(&x, as, moved.Base, paging.PermWrite); !ok {
		t.Fatal("widened rights lost by randomization")
	}
}

func TestMatrixMultipleEntries(t *testing.T) {
	var x Matrix
	as := newAS()
	ro := attach(t, as, 1, paging.PermRead)
	rw := attach(t, as, 2, paging.ReadWrite)
	if r, ok := check(&x, as, rw.Base+0x10, paging.PermWrite); !ok || r.PMOID != 2 {
		t.Fatal("wrong row matched")
	}
	if r, ok := check(&x, as, ro.Base+0x10, paging.PermWrite); ok || r.PMOID != 1 {
		t.Fatal("write allowed through the read-only row")
	}
}

func TestMatrixCheckCounting(t *testing.T) {
	var x Matrix
	m := &paging.Mapping{PMOID: 1, Perm: paging.PermRead}
	x.CheckAt(m, paging.PermRead, 0)
	x.CheckAt(m, paging.PermWrite, 0)
	if x.Checks != 2 || x.Denials != 1 {
		t.Fatalf("checks=%d denials=%d", x.Checks, x.Denials)
	}
}
