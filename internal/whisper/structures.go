// Package whisper implements the six WHISPER-style persistent-memory
// workloads of the paper's single-PMO evaluation (Section VI): the
// key-value stores Echo and Redis, the YCSB database workload, the TPCC
// transaction benchmark, and the ctree and hashmap data structures
// (hashmap, Redis and YCSB share one type, KV, over the same persistent
// hash table). Each workload keeps its data in one PMO, accesses it
// through an Accessor (in a measured run the protected runtime, so every
// load/store passes the TLB, permission matrix and thread-permission
// checks and is charged its cycle costs), and uses the undo log of
// internal/txn for crash-consistent updates.
//
// The package also provides the measurement driver that applies the
// paper's insertion strategies: manual MERR-style bracketing at exposure
// window granularity (MM), and per-operation conditional attach/detach
// (the TERP compiler's insertion, for TM/TT and the ablations).
package whisper

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/nvm"
	"repro/internal/pmo"
	"repro/internal/txn"
)

// Hash is an open-addressing persistent hash table with linear probing,
// stored inside a PMO. Slot layout: [key(8) | value(8)]; key 0 is empty.
// Get and Put access the table through an Accessor.
type Hash struct {
	p    *pmo.PMO
	base uint64 // offset of slot array
	cap  uint64 // number of slots (power of two)
	log  *txn.Log

	pre     *preload // the preloaded table, nil when not preloaded
	scratch scratch  // Audit's, kept across audits
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

// Get looks a key up, returning its value.
func (h *Hash) Get(ctx Accessor, key uint64) (uint64, bool, error) {
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
func (h *Hash) Put(ctx Accessor, key, value uint64) error {
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
				// Mirror the logged write through the accessor
				// (the measured one charges timing and protection).
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
	return errHashFull
}

// errHashFull is the error of a Put or Preload that finds no free slot.
var errHashFull = errors.New("whisper: hash full")

// Preload fills the table with keys 1..n, key k holding mul*k: the slot
// array inserting them in key order into an empty table by linear probing
// leaves, which replaces the table's contents. It is the unmeasured load
// phase of the hash workloads, so it goes through neither the runtime nor
// the log. The array is built once per process for each table placement
// and key set, and mapped copy-on-write (nvm.Device.MapImage): every cell
// with the same table reads it in place and copies only the pages it
// writes. A device maps one image, so a machine preloads one table. The
// table keeps the image as the baseline its audits compare against.
func (h *Hash) Preload(n, mul uint64) error {
	pl, err := preloadOf(preloadKey{off: h.p.DevOff + h.base, capacity: h.cap, n: n, mul: mul})
	if err != nil {
		return err
	}
	if err := h.p.MapImage(pl.img); err != nil {
		return err
	}
	h.pre = pl
	return nil
}

// preloadKey is everything a preloaded slot array depends on: its device
// offset, its capacity, the key count and the value multiplier.
type preloadKey struct{ off, capacity, n, mul uint64 }

// A preload is one memoized preloaded slot array: its image, and the
// outcome of auditing it, which the first audit that compares against it
// computes.
type preload struct {
	key  preloadKey
	img  *nvm.Image
	once sync.Once
	err  error // the image's own audit (see audit)
}

// preloads memoizes Preload's slot arrays. An entry's image is immutable
// once built, and its audit is computed once, so concurrent cells share
// it; the hash workloads use three (about 6 MB), and a process that runs
// none builds none. It is a cache of a pure function, not a knob: nothing
// resets or toggles it.
var preloads = struct {
	sync.Mutex
	m map[preloadKey]*preload
}{m: make(map[preloadKey]*preload)}

// preloadOf returns the memoized slot array of k, building it on first
// use.
func preloadOf(k preloadKey) (*preload, error) {
	preloads.Lock()
	defer preloads.Unlock()
	if pl := preloads.m[k]; pl != nil {
		return pl, nil
	}
	img, err := buildPreload(k)
	if err != nil {
		return nil, err
	}
	pl := &preload{key: k, img: img}
	preloads.m[k] = pl
	return pl, nil
}

// buildPreload inserts keys 1..k.n, key holding k.mul*key, into an empty
// slot array of k.capacity slots in key order by linear probing, as Put
// probes, and returns it as an image at device offset k.off. The keys are
// distinct, so each takes the first empty slot of its probe sequence.
// Like Put, it gives up after probing every slot.
func buildPreload(k preloadKey) (*nvm.Image, error) {
	slots := make([]uint64, 2*k.capacity)
	for key := uint64(1); key <= k.n; key++ {
		for probe := uint64(0); ; probe++ {
			if probe == k.capacity {
				return nil, errHashFull
			}
			s := 2 * ((mix(key) + probe) & (k.capacity - 1))
			if slots[s] == 0 {
				slots[s], slots[s+1] = key, k.mul*key
				break
			}
		}
	}
	return nvm.NewImage(slots, k.off), nil
}

// audit returns the outcome of Audit's checks on the preloaded table
// itself, with its largest key, key.n, as the key bound and no value
// check; it passes under any larger bound too. The first call runs them,
// on a device that maps the image, against the all-empty table.
func (pl *preload) audit() error {
	pl.once.Do(func() {
		lo, hi := pl.img.Range()
		d := nvm.NewDevice(nvm.NVM, hi)
		if pl.err = d.MapImage(pl.img); pl.err == nil {
			pl.err = auditSlots(d, lo, pl.key.capacity, nil, pl.key.n, nil, new(scratch))
		}
	})
	return pl.err
}

// Audit validates the table's durable state in a reopened PMO p: every
// occupied slot holds a key in [1, maxKey] that is reachable by linear
// probing from its home slot (no holes torn into probe chains, no
// duplicates). val, when non-nil, additionally validates each occupied
// slot's value. It returns the first violation in slot order.
//
// It checks only the slots that can differ from a baseline that passes
// these checks: the preloaded table, when there is one, val is nil and
// the preload passes them under this key bound, and otherwise the
// all-empty table, which passes any. See auditSlots.
func (h *Hash) Audit(p *pmo.PMO, maxKey uint64, val func(key, v uint64) error) error {
	var img *nvm.Image
	if pl := h.pre; pl != nil && val == nil && maxKey >= pl.key.n && pl.audit() == nil {
		img = pl.img
	}
	return auditSlots(p, h.base, h.cap, img, maxKey, val, &h.scratch)
}

// words is what an audit reads: a PMO, or the device a baseline image is
// mapped into, at offsets of its own.
type words interface {
	Read8(off uint64) (uint64, error)
	ReadWords(dst []uint64, off uint64) error
	ChangedPages(dst []nvm.Span, img *nvm.Image, off, n uint64) []nvm.Span
}

// scratch is what an audit reuses across calls: the changed spans and a
// page of words, allocated by the first audit.
type scratch struct {
	spans []nvm.Span
	words []uint64
}

// page returns a page of words.
func (sc *scratch) page() []uint64 {
	if sc.words == nil {
		sc.words = make([]uint64, 512)
	}
	return sc.words
}

// auditSlots runs Audit's checks on the slot array of capacity slots at
// offset base of t, whose durable state differs from the baseline img (a
// table of the same placement that passes the checks; nil for the
// all-empty table) only on the pages t.ChangedPages reports. It checks,
// in ascending slot order, every slot on a changed page and, from the end
// of each changed page, every occupied slot up to the first empty one,
// wrapping past the table's end. It returns the first violation.
//
// Every other slot passes, so the first violation is the one a check of
// every slot reports. Such a slot s lies on an unchanged page and holds
// its baseline key k. Its check reads the slots of k's probe walk, from
// its home slot up to s. If none of them is on a changed page, every
// byte the check reads is the baseline's, and the baseline passed. If
// one is, take the last changed page the walk crosses: the walk's slots
// after it are on unchanged pages and occupied in the baseline, which
// passed, so they and s are occupied now, and s is in that page's run.
func auditSlots(t words, base, capacity uint64, img *nvm.Image, maxKey uint64, val func(key, v uint64) error, sc *scratch) error {
	mask := capacity - 1
	key := func(s uint64) (uint64, error) { return t.Read8(base + (s&mask)*16) }
	// check checks the slots [lo, hi), below capacity, a page at a time.
	// A probe walk reads the page's slots from the page and others from t.
	check := func(lo, hi uint64) error {
		page := sc.page()
		for ; lo < hi; lo += uint64(len(page)) / 2 {
			slots := page[:2*min(hi-lo, uint64(len(page))/2)]
			if err := t.ReadWords(slots, base+16*lo); err != nil {
				return err
			}
			for j := 0; j < len(slots); j += 2 {
				k, s := slots[j], lo+uint64(j/2)
				if k == 0 {
					continue
				}
				if k > maxKey {
					return fmt.Errorf("whisper: hash slot %d key %d out of range", s, k)
				}
				if val != nil {
					if err := val(k, slots[j+1]); err != nil {
						return err
					}
				}
				reachable := false
				for probe := uint64(0); probe < capacity; probe++ {
					i := (mix(k) + probe) & mask
					if i == s {
						reachable = true
						break
					}
					var kk uint64
					if lo <= i && i < s {
						kk = slots[2*(i-lo)]
					} else if v, err := key(i); err != nil {
						return err
					} else {
						kk = v
					}
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
		}
		return nil
	}

	// Turn each changed span into the slots to check: [Lo, Hi) holds the
	// span's slots and its run, and Hi may pass the table's end. A run
	// starts no earlier than where the previous one ended: the slots
	// between were occupied, so it would end there too or go on.
	sc.spans = t.ChangedPages(sc.spans[:0], img, base, 16*capacity)
	end := uint64(0)
	for i, sp := range sc.spans {
		lo, hi := (sp.Lo-base)/16, (sp.Hi-base+15)/16
		for hi = max(hi, end); hi < lo+capacity; hi++ {
			k, err := key(hi)
			if err != nil {
				return err
			}
			if k == 0 {
				break
			}
		}
		sc.spans[i], end = nvm.Span{Lo: lo, Hi: hi}, hi
	}
	// The last run reaches furthest; what it runs past the table's end
	// comes first in slot order.
	next := uint64(0) // every slot below next is checked
	if end > capacity {
		next = end - capacity
		if err := check(0, next); err != nil {
			return err
		}
	}
	for _, sp := range sc.spans {
		if lo, hi := max(sp.Lo, next), min(sp.Hi, capacity); lo < hi {
			if err := check(lo, hi); err != nil {
				return err
			}
			next = hi
		}
	}
	return nil
}

// auditRecords runs check on the records of an array in p whose durable
// state differs from the never-written one, all zero, only on the pages
// p.ChangedPages reports: n records of size words (at most 512) at PMO
// offset off. It checks, in ascending order, every record that overlaps a
// changed page, reading a page of words at a time, and returns the first
// violation. check gets a record's index and words.
//
// Every other record is all zero. check runs first on the zero record,
// and when that passes, so does every record it skips, so the first
// violation is the one a check of every record reports. When it fails,
// every page counts as changed.
func auditRecords(p *pmo.PMO, sc *scratch, off, n, size uint64, check func(i uint64, rec []uint64) error) error {
	bytes := 8 * size * n
	if off+bytes > p.Size || off+bytes < off {
		return fmt.Errorf("whisper: array of %d %d-word records at %#x outside the PMO", n, size, off)
	}
	page := sc.page()
	clear(page[:size])
	if check(0, page[:size]) == nil {
		sc.spans = p.ChangedPages(sc.spans[:0], nil, off, bytes)
	} else {
		sc.spans = append(sc.spans[:0], nvm.Span{Lo: off, Hi: off + bytes})
	}
	next := uint64(0) // every record below next is checked
	for _, sp := range sc.spans {
		i, hi := max(next, (sp.Lo-off)/(8*size)), min(n, (sp.Hi-off+8*size-1)/(8*size))
		for i < hi {
			m := min(hi-i, uint64(len(page))/size)
			recs := page[:m*size]
			if err := p.ReadWords(recs, off+8*size*i); err != nil {
				return err
			}
			for j := range m {
				if err := check(i+j, recs[j*size:(j+1)*size]); err != nil {
					return err
				}
			}
			i += m
		}
		next = max(next, hi)
	}
	return nil
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

// Accessor reads and writes PMO words for a workload or structure
// operation and charges its non-memory work. *core.ThreadCtx is the
// measured one: each access passes the protection checks and is charged
// its simulated cost. Untimed is the other, for what only the written
// words matter to: a load phase, and the crash harness, which checks
// what persists.
type Accessor interface {
	Load(o pmo.OID) (uint64, error)
	Store(o pmo.OID, v uint64) error
	Compute(n uint64)
}

// Untimed is the Accessor of one PMO that reads and writes it directly
// and charges nothing. It writes the words a measured accessor writes,
// with no clock, cache or protection state behind them.
type Untimed struct{ P *pmo.PMO }

func (u Untimed) Load(o pmo.OID) (uint64, error)  { return u.P.Read8(o.Offset()) }
func (u Untimed) Store(o pmo.OID, v uint64) error { return u.P.Write8(o.Offset(), v) }
func (Untimed) Compute(uint64)                    {}

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

// Preload fills the empty tree with keys 1..n, key k holding k-1,
// inserted in the order rng.Perm(n) draws. It leaves the PMO, its
// allocator, the undo log, the log's sink and rng as
//
//	for _, k := range rng.Perm(n) { t.Insert(Untimed{t.p}, uint64(k)+1, uint64(k)) }
//
// leaves them. The PMO must meet AllocRun's terms: an empty free list and
// no persist buffer.
//
// Inserting keys in that order builds their Cartesian tree: a binary
// search tree on the keys that is a min-heap on insertion index. Preload
// builds it on the host, but for the last key, in one sweep over the keys
// in ascending order with a stack holding the tree's right spine. A node's
// right child is final once the node leaves the stack, so each node is
// written then, once, into the block the loop would have allocated for it.
// The log's sink is charged what the loop's transactions would have
// charged. The last key goes through Insert, so the log's record and the
// final allocation are the real ones.
func (t *Tree) Preload(rng *rand.Rand, n int) error {
	if root, err := t.p.Read8(t.root.Offset()); err != nil {
		return err
	} else if root != 0 {
		return errors.New("whisper: preload into a tree that is not empty")
	}
	perm := rng.Perm(n)
	if n == 0 {
		return nil
	}
	last := perm[n-1]
	invertPerm(perm)
	// perm[k] is now key k+1's insertion index, and index i's node lies
	// at first+i*stride.
	first, stride, err := t.p.AllocRun(uint64(n-1), nodeSize)
	if err != nil {
		return err
	}
	node := func(k int) uint64 {
		if k < 0 {
			return uint64(pmo.NilOID)
		}
		return uint64(first) + uint64(perm[k])*stride
	}
	var buf [nodeSize]byte
	write := func(k, left, right int) error {
		binary.LittleEndian.PutUint64(buf[nodeKey:], uint64(k)+1)
		binary.LittleEndian.PutUint64(buf[nodeVal:], uint64(k))
		binary.LittleEndian.PutUint64(buf[nodeLeft:], node(left))
		binary.LittleEndian.PutUint64(buf[nodeRight:], node(right))
		return t.p.WriteAt(buf[:], pmo.OID(node(k)).Offset())
	}
	// spine is the right spine of the tree of the keys swept so far, root
	// first; each entry carries its node's final left child (-1 for none).
	// A random order's spine stays short (about ln n on average), so it
	// starts in a stack array rather than growing on the heap.
	type pending struct{ key, left int }
	spine := make([]pending, 0, 64)
	// pop writes the spine's nodes from the top down to index i, each with
	// the node above it as its right child, and returns the lowest one.
	pop := func(i int) (int, error) {
		right := -1
		for j := len(spine) - 1; j >= i; j-- {
			if err := write(spine[j].key, spine[j].left, right); err != nil {
				return 0, err
			}
			right = spine[j].key
		}
		spine = spine[:i]
		return right, nil
	}
	for k := range perm {
		if k == last {
			continue
		}
		i := len(spine)
		for i > 0 && perm[spine[i-1].key] > perm[k] {
			i--
		}
		left, err := pop(i)
		if err != nil {
			return err
		}
		spine = append(spine, pending{k, left})
	}
	root, err := pop(0)
	if err != nil {
		return err
	}
	if root >= 0 {
		if err := t.p.Write8(t.root.Offset(), node(root)); err != nil {
			return err
		}
	}
	t.log.ChargeCommits(n - 1)
	return t.Insert(Untimed{t.p}, uint64(last)+1, uint64(last))
}

// invertPerm replaces perm, a permutation of 0..len(perm)-1, with its
// inverse, following each cycle once. Until the last pass an entry already
// inverted holds its value complemented.
func invertPerm(perm []int) {
	for i := range perm {
		if perm[i] < 0 {
			continue // on a cycle inverted already
		}
		prev, cur := i, perm[i]
		for cur != i {
			next := perm[cur]
			perm[cur] = ^prev
			prev, cur = cur, next
		}
		perm[i] = ^prev
	}
	for i := range perm {
		perm[i] = ^perm[i]
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
func (t *Tree) Lookup(ctx Accessor, key uint64) (uint64, bool, error) {
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
