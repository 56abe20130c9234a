// Package whisper implements the six WHISPER-style persistent-memory
// workloads of the paper's single-PMO evaluation (Section VI): the
// key-value stores Echo and Redis, the YCSB database workload, the TPCC
// transaction benchmark, and the ctree and hashmap data structures. Each
// workload keeps its data in one PMO, accesses it through the protected
// runtime (so every load/store passes the TLB, permission matrix and
// thread-permission checks and is charged its cycle costs), and uses the
// undo log of internal/txn for crash-consistent updates.
//
// The package also provides the measurement driver that applies the
// paper's insertion strategies: manual MERR-style bracketing at exposure
// window granularity (MM), and per-operation conditional attach/detach
// (the TERP compiler's insertion, for TM/TT and the ablations).
package whisper

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pmo"
	"repro/internal/txn"
)

// Hash is an open-addressing persistent hash table with linear probing,
// stored inside a PMO. Slot layout: [key(8) | value(8)]; key 0 is empty.
// All measured accesses go through the thread context.
type Hash struct {
	p    *pmo.PMO
	base uint64 // offset of slot array
	cap  uint64 // number of slots (power of two)
	log  *txn.Log

	slots []uint64 // Audit's copy of the slot array, kept across audits
}

// NewHash allocates a hash table with the given power-of-two capacity.
func NewHash(p *pmo.PMO, capacity uint64, log *txn.Log) (*Hash, error) {
	if capacity == 0 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("whisper: capacity %d not a power of two", capacity)
	}
	oid, err := p.Alloc(capacity * 16)
	if err != nil {
		return nil, err
	}
	return &Hash{p: p, base: oid.Offset(), cap: capacity, log: log}, nil
}

func (h *Hash) slot(i uint64) pmo.OID {
	return pmo.MakeOID(h.p.ID, h.base+(i&(h.cap-1))*16)
}

func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

// Get looks a key up through the protected runtime, returning its value.
func (h *Hash) Get(ctx *core.ThreadCtx, key uint64) (uint64, bool, error) {
	if key == 0 {
		return 0, false, nil
	}
	i := mix(key)
	for probe := uint64(0); probe < h.cap; probe++ {
		so := h.slot(i + probe)
		k, err := ctx.Load(so)
		if err != nil {
			return 0, false, err
		}
		if k == key {
			v, err := ctx.Load(pmo.MakeOID(h.p.ID, so.Offset()+8))
			return v, err == nil, err
		}
		if k == 0 {
			return 0, false, nil
		}
	}
	return 0, false, nil
}

// Put inserts or updates a key transactionally.
func (h *Hash) Put(ctx *core.ThreadCtx, key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("whisper: zero key")
	}
	i := mix(key)
	for probe := uint64(0); probe < h.cap; probe++ {
		so := h.slot(i + probe)
		k, err := ctx.Load(so)
		if err != nil {
			return err
		}
		if k == key || k == 0 {
			if err := h.log.Begin(); err != nil {
				return err
			}
			vo := pmo.MakeOID(h.p.ID, so.Offset()+8)
			if k == 0 {
				if err := h.log.Write(so, key); err != nil {
					h.log.Abort()
					return err
				}
				// Mirror the logged write through the runtime
				// so timing and protection are charged.
				if err := ctx.Store(so, key); err != nil {
					h.log.Abort()
					return err
				}
			}
			if err := h.log.Write(vo, value); err != nil {
				h.log.Abort()
				return err
			}
			if err := ctx.Store(vo, value); err != nil {
				h.log.Abort()
				return err
			}
			return h.log.Commit()
		}
	}
	return fmt.Errorf("whisper: hash full")
}

// Audit validates the table's durable state in a reopened PMO p: every
// occupied slot holds a key in [1, maxKey] that is reachable by linear
// probing from its home slot (no holes torn into probe chains, no
// duplicates). val, when non-nil, additionally validates each occupied
// slot's value. It reads the slot array once, in bulk.
func (h *Hash) Audit(p *pmo.PMO, maxKey uint64, val func(key, v uint64) error) error {
	slots, err := readWords(p, &h.slots, h.base, 2*h.cap)
	if err != nil {
		return err
	}
	for s := uint64(0); s < h.cap; s++ {
		k := slots[2*s]
		if k == 0 {
			continue
		}
		if k > maxKey {
			return fmt.Errorf("whisper: hash slot %d key %d out of range", s, k)
		}
		if val != nil {
			if err := val(k, slots[2*s+1]); err != nil {
				return err
			}
		}
		reachable := false
		for probe := uint64(0); probe < h.cap; probe++ {
			i := (mix(k) + probe) & (h.cap - 1)
			if i == s {
				reachable = true
				break
			}
			kk := slots[2*i]
			if kk == 0 {
				return fmt.Errorf("whisper: hash key %d at slot %d hidden behind empty slot %d", k, s, i)
			}
			if kk == k {
				return fmt.Errorf("whisper: hash key %d duplicated at slots %d and %d", k, i, s)
			}
		}
		if !reachable {
			return fmt.Errorf("whisper: hash key %d at slot %d unreachable", k, s)
		}
	}
	return nil
}

// readWords reads n words at PMO offset off into *buf, growing it when it
// is too short, and returns them. Audits read each array they check once
// this way, into a buffer their workload keeps across audits.
func readWords(p *pmo.PMO, buf *[]uint64, off, n uint64) ([]uint64, error) {
	if uint64(cap(*buf)) < n {
		*buf = make([]uint64, n)
	}
	words := (*buf)[:n]
	return words, p.ReadWords(words, off)
}

// Tree is a persistent unbalanced binary search tree (the paper's ctree
// stand-in). Node layout: [key | value | left | right], children stored
// as OIDs.
type Tree struct {
	p    *pmo.PMO
	root pmo.OID // OID of a root-pointer cell
	log  *txn.Log
}

// NewTree allocates the tree's root pointer cell.
func NewTree(p *pmo.PMO, log *txn.Log) (*Tree, error) {
	cell, err := p.Alloc(8)
	if err != nil {
		return nil, err
	}
	if err := p.Write8(cell.Offset(), 0); err != nil {
		return nil, err
	}
	return &Tree{p: p, root: cell, log: log}, nil
}

const (
	nodeKey   = 0
	nodeVal   = 8
	nodeLeft  = 16
	nodeRight = 24
	nodeSize  = 32
)

func field(n pmo.OID, off uint64) pmo.OID {
	return pmo.MakeOID(n.Pool(), n.Offset()+off)
}

// Accessor reads and writes PMO words for a structure operation and
// charges its non-memory work. *core.ThreadCtx is the measured one: each
// access passes the protection checks and is charged its simulated cost.
// A workload's load phase uses an untimed one.
type Accessor interface {
	Load(o pmo.OID) (uint64, error)
	Store(o pmo.OID, v uint64) error
	Compute(n uint64)
}

// untimed is the load-phase Accessor of one PMO: it reads and writes the
// PMO directly and charges nothing.
type untimed struct{ p *pmo.PMO }

func (u untimed) Load(o pmo.OID) (uint64, error)  { return u.p.Read8(o.Offset()) }
func (u untimed) Store(o pmo.OID, v uint64) error { return u.p.Write8(o.Offset(), v) }
func (untimed) Compute(uint64)                    {}

// Insert adds or updates a key transactionally; allocation of new nodes
// charges a fixed allocator cost through the accessor. The undo log
// charges its own persistence costs to its sink.
func (t *Tree) Insert(ctx Accessor, key, value uint64) error {
	if err := t.log.Begin(); err != nil {
		return err
	}
	link := t.root
	for {
		raw, err := ctx.Load(link)
		if err != nil {
			t.log.Abort()
			return err
		}
		n := pmo.OID(raw)
		if n.IsNil() {
			node, err := t.p.Alloc(nodeSize)
			if err != nil {
				t.log.Abort()
				return err
			}
			ctx.Compute(200) // allocator cost
			// Initialize the fresh node (not yet linked, so plain
			// stores are crash-safe), then link it via the log.
			if err := ctx.Store(field(node, nodeKey), key); err != nil {
				t.log.Abort()
				return err
			}
			if err := ctx.Store(field(node, nodeVal), value); err != nil {
				t.log.Abort()
				return err
			}
			if err := ctx.Store(field(node, nodeLeft), 0); err != nil {
				t.log.Abort()
				return err
			}
			if err := ctx.Store(field(node, nodeRight), 0); err != nil {
				t.log.Abort()
				return err
			}
			// The node's content must be durable before the link to it
			// is: issue its writebacks now so the fences inside the
			// logged link write drain them first. Semantic only — the
			// runtime store above already charged the cycle costs.
			t.p.Flush(node.Offset(), nodeSize)
			if err := t.log.Write(link, uint64(node)); err != nil {
				t.log.Abort()
				return err
			}
			if err := ctx.Store(link, uint64(node)); err != nil {
				t.log.Abort()
				return err
			}
			return t.log.Commit()
		}
		k, err := ctx.Load(field(n, nodeKey))
		if err != nil {
			t.log.Abort()
			return err
		}
		switch {
		case key == k:
			vo := field(n, nodeVal)
			if err := t.log.Write(vo, value); err != nil {
				t.log.Abort()
				return err
			}
			if err := ctx.Store(vo, value); err != nil {
				t.log.Abort()
				return err
			}
			return t.log.Commit()
		case key < k:
			link = field(n, nodeLeft)
		default:
			link = field(n, nodeRight)
		}
	}
}

// Audit validates the tree's durable state in a reopened PMO p: a
// well-formed binary search tree over keys in [1, maxKey], with node
// OIDs inside the PMO and no cycles (bounded by maxKey nodes, since keys
// are unique).
func (t *Tree) Audit(p *pmo.PMO, maxKey uint64) error {
	type frame struct {
		n      pmo.OID
		lo, hi uint64 // exclusive key bounds
	}
	rootRaw, err := p.Read8(t.root.Offset())
	if err != nil {
		return err
	}
	stack := []frame{{pmo.OID(rootRaw), 0, ^uint64(0)}}
	visited := uint64(0)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.n.IsNil() {
			continue
		}
		if visited++; visited > maxKey {
			return fmt.Errorf("whisper: tree has over %d nodes — cycle or corruption", maxKey)
		}
		if f.n.Pool() != t.root.Pool() || f.n.Offset()+nodeSize > p.Size {
			return fmt.Errorf("whisper: tree node %v outside the PMO", f.n)
		}
		k, err := p.Read8(f.n.Offset() + nodeKey)
		if err != nil {
			return err
		}
		if k == 0 || k > maxKey {
			return fmt.Errorf("whisper: tree key %d out of range", k)
		}
		if k <= f.lo || k >= f.hi {
			return fmt.Errorf("whisper: tree key %d violates BST bounds (%d, %d)", k, f.lo, f.hi)
		}
		left, err := p.Read8(f.n.Offset() + nodeLeft)
		if err != nil {
			return err
		}
		right, err := p.Read8(f.n.Offset() + nodeRight)
		if err != nil {
			return err
		}
		stack = append(stack, frame{pmo.OID(left), f.lo, k}, frame{pmo.OID(right), k, f.hi})
	}
	return nil
}

// Lookup finds a key.
func (t *Tree) Lookup(ctx *core.ThreadCtx, key uint64) (uint64, bool, error) {
	raw, err := ctx.Load(t.root)
	if err != nil {
		return 0, false, err
	}
	n := pmo.OID(raw)
	for !n.IsNil() {
		k, err := ctx.Load(field(n, nodeKey))
		if err != nil {
			return 0, false, err
		}
		switch {
		case key == k:
			v, err := ctx.Load(field(n, nodeVal))
			return v, err == nil, err
		case key < k:
			raw, err = ctx.Load(field(n, nodeLeft))
		default:
			raw, err = ctx.Load(field(n, nodeRight))
		}
		if err != nil {
			return 0, false, err
		}
		n = pmo.OID(raw)
	}
	return 0, false, nil
}
