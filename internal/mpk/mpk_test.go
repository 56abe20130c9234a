package mpk

import (
	"errors"
	"testing"

	"repro/internal/paging"
)

func TestAssignReleaseRecycle(t *testing.T) {
	a := NewAllocator()
	d1, err := a.Assign(10)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.Assign(20)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("distinct PMOs share a domain")
	}
	// Re-assign returns the same domain.
	if d, _ := a.Assign(10); d != d1 {
		t.Fatal("re-assign changed domain")
	}
	a.Release(10)
	if _, ok := a.DomainOf(10); ok {
		t.Fatal("released domain still mapped")
	}
	d3, err := a.Assign(30)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Fatalf("released domain not recycled: got %d want %d", d3, d1)
	}
}

func TestDomainExhaustion(t *testing.T) {
	a := NewAllocator()
	for i := uint32(1); i < NumDomains; i++ {
		if _, err := a.Assign(i); err != nil {
			t.Fatalf("assign %d: %v", i, err)
		}
	}
	if _, err := a.Assign(999); !errors.Is(err, ErrNoDomains) {
		t.Fatalf("expected exhaustion, got %v", err)
	}
	// Domain 0 must never be handed out.
	for i := uint32(1); i < NumDomains; i++ {
		if d, _ := a.DomainOf(i); d == 0 {
			t.Fatal("domain 0 was allocated")
		}
	}
}

func TestRegistersDenyByDefault(t *testing.T) {
	var r Registers
	if r.Allows(1, paging.PermRead) {
		t.Fatal("zero-value registers must deny")
	}
}

func TestGrantRevoke(t *testing.T) {
	var r Registers
	if err := r.Grant(3, paging.PermRead); err != nil {
		t.Fatal(err)
	}
	if !r.Allows(3, paging.PermRead) {
		t.Fatal("grant did not take effect")
	}
	if r.Allows(3, paging.PermWrite) {
		t.Fatal("read grant allowed write")
	}
	if err := r.Grant(3, paging.ReadWrite); err != nil {
		t.Fatal(err)
	}
	if !r.Allows(3, paging.PermWrite) {
		t.Fatal("upgrade to rw failed")
	}
	if err := r.Revoke(3); err != nil {
		t.Fatal(err)
	}
	if r.Allows(3, paging.PermRead) {
		t.Fatal("revoke did not take effect")
	}
}

func TestRegistersBounds(t *testing.T) {
	var r Registers
	if err := r.Grant(0, paging.PermRead); err == nil {
		t.Fatal("grant on reserved domain 0 accepted")
	}
	if err := r.Grant(NumDomains, paging.PermRead); err == nil {
		t.Fatal("grant past range accepted")
	}
	if err := r.Revoke(-1); err == nil {
		t.Fatal("revoke on negative domain accepted")
	}
	if r.Allows(NoDomain, paging.PermRead) {
		t.Fatal("NoDomain must deny")
	}
	if r.Allows(NumDomains+1, paging.PermRead) {
		t.Fatal("a domain past range must deny")
	}
}

func TestPerThreadIsolation(t *testing.T) {
	// Two threads' register files are independent: the TEW concept.
	var t1, t2 Registers
	t1.Grant(2, paging.ReadWrite)
	if t2.Allows(2, paging.PermRead) {
		t.Fatal("grant leaked across threads")
	}
}
