// Package semantics implements the formal TERP framework of Section III
// and the attach/detach semantics space of Section IV. It has two halves:
//
//   - The TERP poset (Definitions 1-4): permission sets, permission
//     groups, protection mechanisms and their partial order, with Hasse
//     diagram construction and poset-law verification, so the "implicit
//     lowering of TERP constructs in a TERP poset" used by the
//     EW-conscious semantics is grounded in the formal structure.
//
//   - The four attach/detach semantics of Figure 3 (Basic, Outermost,
//     FCFS, EW-Conscious) expressed as pure state machines over PMO
//     attachment state; the runtime (internal/core) executes the actions
//     they return and charges the corresponding costs.
package semantics

import (
	"fmt"
	"sort"
)

// Access is one access right in a permission set (Definition 1).
type Access int

// The access rights of Definition 1.
const (
	// Read is the right to load from the objects.
	Read Access = iota
	// Write is the right to store to the objects.
	Write
	// Execute is the right to fetch instructions from the objects.
	Execute
)

// String names the access right.
func (a Access) String() string {
	switch a {
	case Read:
		return "read"
	case Write:
		return "write"
	case Execute:
		return "execute"
	}
	return fmt.Sprintf("access(%d)", int(a))
}

// PermissionSet is a set of binary access decisions over data objects
// (Definition 1): permSet[object][access] = allowed.
type PermissionSet map[string]map[Access]bool

// NewPermissionSet builds a permission set granting the listed accesses to
// every named object.
func NewPermissionSet(objects []string, accesses ...Access) PermissionSet {
	ps := make(PermissionSet, len(objects))
	for _, o := range objects {
		m := make(map[Access]bool, len(accesses))
		for _, a := range accesses {
			m[a] = true
		}
		ps[o] = m
	}
	return ps
}

// PermissionGroup is a set of entities sharing a permission set
// (Definition 2). Entities are identified by name (thread, process, user).
type PermissionGroup struct {
	// Name labels the group.
	Name string
	// Entities is the set of agents in the group.
	Entities map[string]bool
	// Perms is the shared permission set P of the group.
	Perms PermissionSet
}

// NewGroup builds a permission group over the named entities.
func NewGroup(name string, perms PermissionSet, entities ...string) *PermissionGroup {
	g := &PermissionGroup{Name: name, Entities: make(map[string]bool, len(entities)), Perms: perms}
	for _, e := range entities {
		g.Entities[e] = true
	}
	return g
}

// SubsetOf reports whether g's entities are a subset of other's entities.
// This is the partial order used in Figure 2's Hasse diagram: a mechanism
// protecting against a smaller permission group sits lower in the poset.
func (g *PermissionGroup) SubsetOf(other *PermissionGroup) bool {
	for e := range g.Entities {
		if !other.Entities[e] {
			return false
		}
	}
	return true
}

// Mechanism is one TERP protection mechanism (Definition 3): it reduces
// the time a memory region is accessible by its target permission group.
type Mechanism struct {
	// Name labels the mechanism (e.g. "thread permission control",
	// "attach/detach by process", "permission on user").
	Name string
	// Group is the permission group the mechanism protects against.
	Group *PermissionGroup
	// OverheadCycles is the typical cost of one grant/deprive pair,
	// used to reason about the strength/overhead trade-off (Section
	// III-B: higher-level isolation costs more and should be used at
	// coarser grain).
	OverheadCycles uint64
}

// Poset is a TERP poset (Definition 4): a set of protection mechanisms
// partially ordered by the inclusion of their target permission groups.
type Poset struct {
	elems []*Mechanism
}

// NewPoset builds a poset over the given mechanisms.
func NewPoset(ms ...*Mechanism) *Poset {
	return &Poset{elems: ms}
}

// At returns the i-th mechanism.
func (p *Poset) At(i int) *Mechanism { return p.elems[i] }

// Leq is the partial order: a <= b iff a's permission group is a subset of
// b's (protection against fewer entities is a weaker/lower mechanism).
func (p *Poset) Leq(a, b *Mechanism) bool {
	return a.Group.SubsetOf(b.Group)
}

// Verify checks the poset laws (reflexivity, antisymmetry, transitivity)
// over the element set, returning a descriptive error on violation.
// Antisymmetry here requires that distinct mechanisms with mutually
// including groups do not coexist (they would be the same element).
func (p *Poset) Verify() error {
	for _, a := range p.elems {
		if !p.Leq(a, a) {
			return fmt.Errorf("semantics: poset not reflexive at %q", a.Name)
		}
	}
	for i, a := range p.elems {
		for j, b := range p.elems {
			if i != j && p.Leq(a, b) && p.Leq(b, a) {
				return fmt.Errorf("semantics: poset not antisymmetric: %q and %q", a.Name, b.Name)
			}
		}
	}
	for _, a := range p.elems {
		for _, b := range p.elems {
			for _, c := range p.elems {
				if p.Leq(a, b) && p.Leq(b, c) && !p.Leq(a, c) {
					return fmt.Errorf("semantics: poset not transitive via %q", b.Name)
				}
			}
		}
	}
	return nil
}

// HasseEdges returns the covering relation of the poset (the transitive
// reduction): pairs (i, j) such that elems[i] < elems[j] with no element
// strictly between. This is the edge set of the Figure 2 Hasse diagram.
func (p *Poset) HasseEdges() [][2]int {
	var edges [][2]int
	for i, a := range p.elems {
		for j, b := range p.elems {
			if i == j || !p.Leq(a, b) || p.Leq(b, a) {
				continue
			}
			covered := true
			for k, c := range p.elems {
				if k == i || k == j {
					continue
				}
				if p.Leq(a, c) && !p.Leq(c, a) && p.Leq(c, b) && !p.Leq(b, c) {
					covered = false
					break
				}
			}
			if covered {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	sort.Slice(edges, func(x, y int) bool {
		if edges[x][0] != edges[y][0] {
			return edges[x][0] < edges[y][0]
		}
		return edges[x][1] < edges[y][1]
	})
	return edges
}

// Minimal returns the indices of minimal elements (nothing strictly
// below), the finest-grained / cheapest mechanisms of the poset.
func (p *Poset) Minimal() []int {
	var out []int
	for i, a := range p.elems {
		minimal := true
		for j, b := range p.elems {
			if i != j && p.Leq(b, a) && !p.Leq(a, b) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, i)
		}
	}
	return out
}

// Maximal returns the indices of maximal elements (nothing strictly
// above), the strongest/costliest mechanisms of the poset.
func (p *Poset) Maximal() []int {
	var out []int
	for i, a := range p.elems {
		maximal := true
		for j, b := range p.elems {
			if i != j && p.Leq(a, b) && !p.Leq(b, a) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, i)
		}
	}
	return out
}

// Lower returns a mechanism strictly below m that covers m (one step down
// the Hasse diagram), or nil if m is minimal. This is the "implicit
// lowering" operation the EW-conscious semantics performs: a process-wide
// attach/detach lowers to a thread-level permission change.
func (p *Poset) Lower(m *Mechanism) *Mechanism {
	var best *Mechanism
	for _, c := range p.elems {
		if c == m || !p.Leq(c, m) || p.Leq(m, c) {
			continue
		}
		// c < m; prefer the highest such c (a cover).
		if best == nil || p.Leq(best, c) {
			best = c
		}
	}
	return best
}
