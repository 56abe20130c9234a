package semantics

import (
	"testing"
)

// figure2Poset builds the example poset of Figure 2: thread permission
// controls on individual threads at the bottom, process-wide attach/detach
// above them, permissions on users above those, and a user-group mechanism
// at the top.
func figure2Poset() (*Poset, map[string]*Mechanism) {
	perm := NewPermissionSet([]string{"pmo1"}, Read, Write)
	mk := func(name string, entities ...string) *Mechanism {
		return &Mechanism{Name: name, Group: NewGroup(name, perm, entities...)}
	}
	t1 := mk("thread-perm-t1", "t1")
	t2 := mk("thread-perm-t2", "t2")
	t3 := mk("thread-perm-t3", "t3")
	p1 := mk("attach-detach-p1", "t1", "t2")
	p2 := mk("attach-detach-p2", "t2", "t3")
	uA := mk("perm-user-A", "t1", "t2", "t3")
	uB := mk("perm-user-B", "t2", "t3", "t4")
	g := mk("perm-user-groups", "t1", "t2", "t3", "t4")
	p := NewPoset(t1, t2, t3, p1, p2, uA, uB, g)
	m := map[string]*Mechanism{
		"t1": t1, "t2": t2, "t3": t3, "p1": p1, "p2": p2,
		"uA": uA, "uB": uB, "g": g,
	}
	return p, m
}

func TestPosetLaws(t *testing.T) {
	p, _ := figure2Poset()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPosetAntisymmetryViolation(t *testing.T) {
	perm := NewPermissionSet([]string{"x"}, Read)
	a := &Mechanism{Name: "a", Group: NewGroup("a", perm, "t1")}
	b := &Mechanism{Name: "b", Group: NewGroup("b", perm, "t1")}
	p := NewPoset(a, b)
	if err := p.Verify(); err == nil {
		t.Fatal("duplicate groups must violate antisymmetry")
	}
}

func TestPosetOrder(t *testing.T) {
	p, m := figure2Poset()
	if !p.Leq(m["t1"], m["p1"]) {
		t.Fatal("t1 should be below p1")
	}
	if p.Leq(m["t3"], m["p1"]) {
		t.Fatal("t3 is not below p1")
	}
	if !p.Leq(m["p1"], m["uA"]) || !p.Leq(m["uA"], m["g"]) {
		t.Fatal("chain p1 <= uA <= g broken")
	}
	if p.Leq(m["uA"], m["uB"]) || p.Leq(m["uB"], m["uA"]) {
		t.Fatal("uA and uB must be incomparable")
	}
}

func TestPosetMinimalMaximal(t *testing.T) {
	p, m := figure2Poset()
	mins := p.Minimal()
	if len(mins) != 3 {
		t.Fatalf("minimal count = %d, want 3 (the thread mechanisms)", len(mins))
	}
	for _, i := range mins {
		name := p.At(i).Name
		if name != m["t1"].Name && name != m["t2"].Name && name != m["t3"].Name {
			t.Fatalf("unexpected minimal element %q", name)
		}
	}
	maxs := p.Maximal()
	if len(maxs) != 1 || p.At(maxs[0]) != m["g"] {
		t.Fatalf("maximal = %v, want only the user-groups mechanism", maxs)
	}
}

func TestHasseEdgesAreCovers(t *testing.T) {
	p, m := figure2Poset()
	edges := p.HasseEdges()
	// t1 -> uA must NOT be a Hasse edge: p1 sits between.
	for _, e := range edges {
		if p.At(e[0]) == m["t1"] && p.At(e[1]) == m["uA"] {
			t.Fatal("transitive edge t1->uA present in Hasse diagram")
		}
	}
	// t1 -> p1 must be a Hasse edge.
	found := false
	for _, e := range edges {
		if p.At(e[0]) == m["t1"] && p.At(e[1]) == m["p1"] {
			found = true
		}
	}
	if !found {
		t.Fatal("cover edge t1->p1 missing")
	}
	// Every edge must be a strict relation.
	for _, e := range edges {
		a, b := p.At(e[0]), p.At(e[1])
		if !p.Leq(a, b) || p.Leq(b, a) {
			t.Fatalf("edge %q->%q not strict", a.Name, b.Name)
		}
	}
}

func TestLowering(t *testing.T) {
	p, m := figure2Poset()
	// Lowering process-wide attach/detach yields a thread mechanism —
	// the implicit lowering of the EW-conscious semantics.
	low := p.Lower(m["p1"])
	if low == nil {
		t.Fatal("no lowering found for p1")
	}
	if low != m["t1"] && low != m["t2"] {
		t.Fatalf("lowered to %q, want a thread mechanism under p1", low.Name)
	}
	// A minimal element cannot be lowered.
	if got := p.Lower(m["t1"]); got != nil {
		t.Fatalf("lowering a minimal element returned %q", got.Name)
	}
}

func TestPermissionSetAllows(t *testing.T) {
	r := NewPermissionSet([]string{"a", "b"}, Read)
	if !r["a"][Read] || r["a"][Write] {
		t.Fatal("permission set contents wrong")
	}
	if r["c"][Read] {
		t.Fatal("unknown object allowed")
	}
}

func TestAccessString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Execute.String() != "execute" {
		t.Fatal("access names wrong")
	}
}
