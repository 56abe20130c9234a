package whisper

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/pmo"
	"repro/internal/txn"
)

// Workload is one WHISPER benchmark: a persistent application whose
// operations the driver measures under a protection scheme. Setup runs
// unprotected (the load phase is not measured); Op performs one
// transaction's PM accesses through the context and assumes the driver
// attached the PMO. Every workload can be crash-tested: it says where its
// undo log lives and audits its durable structures in a reopened
// (possibly crash-recovered) PMO.
type Workload interface {
	// Name is the benchmark name used in the tables.
	Name() string
	// Setup creates the PMO and initial data in the manager.
	Setup(mgr *pmo.Manager, ctx *core.ThreadCtx, rng *rand.Rand) error
	// Op performs one operation's PM accesses.
	Op(ctx *core.ThreadCtx, rng *rand.Rand) error
	// PMO returns the workload's (single) PMO.
	PMO() *pmo.PMO
	// LogOID returns the OID of the workload's undo log inside its PMO.
	LogOID() pmo.OID
	// Profile returns the workload's timing profile.
	Profile() Profile
	// CheckInvariants audits the workload's structures in p — a PMO
	// reopened from a post-crash image after log recovery — returning an
	// error describing the first violated invariant.
	CheckInvariants(p *pmo.PMO) error
}

// Profile describes an operation's non-PM work, which shapes exposure
// rates: Parse cycles run inside the request (before the PM section) and
// IdleBase/IdleSpread cycles of think time follow each operation.
type Profile struct {
	// Parse is per-op request parsing work in cycles.
	Parse uint64
	// IdleBase and IdleSpread give the uniform think time between ops.
	IdleBase, IdleSpread uint64
	// EstOpCycles is the programmer's conservative static estimate of
	// one operation's duration, used by the MM insertion to size its
	// manual batches (conservative estimates under-fill the window,
	// which is why MM's measured EWs sit well below the target).
	EstOpCycles uint64
}

// pmoSize is the default PMO size; the paper uses 1 GB.
const pmoSize = 1 << 30

// LogCapacity is the record capacity of every workload's undo log (a
// transaction touches at most a handful of words).
const LogCapacity = 64

// store is the PMO and undo log every workload keeps its data in.
type store struct {
	p      *pmo.PMO
	log    *txn.Log
	logOID pmo.OID
}

// PMO implements Workload.
func (s *store) PMO() *pmo.PMO { return s.p }

// LogOID implements Workload.
func (s *store) LogOID() pmo.OID { return s.logOID }

// open creates the PMO and an undo log inside it whose costs ctx is
// charged, recording the log's OID so crash recovery can find it again.
func (s *store) open(mgr *pmo.Manager, name string, ctx *core.ThreadCtx) error {
	p, err := mgr.Create(name, pmoSize, pmo.ModeRead|pmo.ModeWrite)
	if err != nil {
		return err
	}
	log, logOID, err := txn.NewLog(p, LogCapacity)
	if err != nil {
		return err
	}
	log.SetSink(ctx)
	s.p, s.log, s.logOID = p, log, logOID
	return nil
}

// --- hashmap, redis, ycsb --------------------------------------------------

// kvKeys is the key range of the hash-table workloads, and kvSlots their
// table capacity.
const (
	kvKeys  = 1 << 16
	kvSlots = 1 << 17
)

// kvRow is what one hash-table benchmark sets: its preload, its get share,
// its key distribution and its timing.
type kvRow struct {
	name string
	// Keys 1..preload are loaded before the run, key k holding mul*k.
	preload, mul uint64
	// An op is a get when rng.Intn(readOf) < reads, else a put.
	reads, readOf int
	// zipf draws keys from a Zipf skew instead of uniformly.
	zipf bool
	prof Profile
}

// The three hash-table benchmarks.
var (
	// hashmap: uniform 50/50 get/put.
	hashmapRow = kvRow{name: "hashmap", preload: kvKeys / 2, mul: 3, reads: 1, readOf: 2,
		prof: Profile{Parse: 4000, IdleBase: 11000, IdleSpread: 7000, EstOpCycles: 25000}}
	// redis: GET-heavy traffic. Its ops are light and frequent: short
	// idle gaps keep the PMO window busy (the paper reports Redis with
	// the highest ER).
	redisRow = kvRow{name: "redis", preload: kvKeys / 4, mul: 1, reads: 80, readOf: 100,
		prof: Profile{Parse: 1500, IdleBase: 3500, IdleSpread: 2500, EstOpCycles: 12000}}
	// ycsb: workload B, 95% reads and 5% updates with a Zipf-like skew.
	ycsbRow = kvRow{name: "ycsb", preload: kvKeys / 2, mul: 1, reads: 95, readOf: 100, zipf: true,
		prof: Profile{Parse: 4000, IdleBase: 11000, IdleSpread: 7000, EstOpCycles: 25000}}
)

// KV is a key-value benchmark over a persistent open-addressing hash
// table: gets and transactional puts of random values. Its row picks
// which of hashmap, redis and ycsb it is.
type KV struct {
	store
	row  kvRow
	h    *Hash
	zipf *rand.Zipf
}

// Name implements Workload.
func (w *KV) Name() string { return w.row.name }

// Profile implements Workload.
func (w *KV) Profile() Profile { return w.row.prof }

// Setup implements Workload.
func (w *KV) Setup(mgr *pmo.Manager, ctx *core.ThreadCtx, rng *rand.Rand) error {
	if err := w.open(mgr, "whisper."+w.Name(), ctx); err != nil {
		return err
	}
	var err error
	if w.h, err = NewHash(w.p, kvSlots, w.log); err != nil {
		return err
	}
	if w.row.zipf {
		w.zipf = rand.NewZipf(rng, 1.1, 1, kvKeys-1)
	}
	// The load phase is not measured.
	return w.h.Preload(w.row.preload, w.row.mul)
}

// CheckInvariants implements Workload: every occupied slot holds an
// in-range key, reachable by probing from its home slot, with no
// duplicates.
func (w *KV) CheckInvariants(p *pmo.PMO) error {
	return w.h.Audit(p, kvKeys, nil)
}

// Op implements Workload.
func (w *KV) Op(ctx *core.ThreadCtx, rng *rand.Rand) error {
	var key uint64
	if w.zipf != nil {
		key = w.zipf.Uint64() + 1
	} else {
		key = uint64(rng.Int63n(kvKeys)) + 1
	}
	if rng.Intn(w.row.readOf) < w.row.reads {
		_, _, err := w.h.Get(ctx, key)
		return err
	}
	return w.h.Put(ctx, key, rng.Uint64())
}

// --- ctree -----------------------------------------------------------------

// Ctree is the WHISPER crit-bit tree benchmark analog: mixed
// insert/lookup over a persistent binary search tree.
type Ctree struct {
	store
	t    *Tree
	keys uint64
}

// NewCtree returns the benchmark.
func NewCtree() *Ctree { return &Ctree{keys: 1 << 14} }

// Name implements Workload.
func (w *Ctree) Name() string { return "ctree" }

// Profile implements Workload.
func (w *Ctree) Profile() Profile {
	return Profile{Parse: 4500, IdleBase: 12000, IdleSpread: 7000, EstOpCycles: 28000}
}

// Setup implements Workload.
func (w *Ctree) Setup(mgr *pmo.Manager, ctx *core.ThreadCtx, rng *rand.Rand) error {
	if err := w.open(mgr, "whisper."+w.Name(), ctx); err != nil {
		return err
	}
	var err error
	if w.t, err = NewTree(w.p, w.log); err != nil {
		return err
	}
	// Preload keys in shuffled order so the tree is reasonably balanced.
	// The load phase is not measured, so its accesses are untimed; the
	// undo log still charges ctx, as it does for every transaction.
	perm := rng.Perm(int(w.keys / 2))
	for _, k := range perm {
		if err := w.t.Insert(untimed{w.p}, uint64(k)+1, uint64(k)); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants implements Workload: the tree is a well-formed BST
// over in-range keys with no cycles.
func (w *Ctree) CheckInvariants(p *pmo.PMO) error {
	return w.t.Audit(p, w.keys)
}

// Op implements Workload.
func (w *Ctree) Op(ctx *core.ThreadCtx, rng *rand.Rand) error {
	key := uint64(rng.Int63n(int64(w.keys))) + 1
	if rng.Intn(2) == 0 {
		_, _, err := w.t.Lookup(ctx, key)
		return err
	}
	return w.t.Insert(ctx, key, key^0xabcdef)
}

// --- echo ------------------------------------------------------------------

// Echo models the Echo versioned key-value store: puts append a record to
// a persistent log and update the index; gets read through the index.
type Echo struct {
	store
	h      *Hash
	logOff pmo.OID // append-only record area cursor cell
	keys   uint64
	recs   []uint64 // CheckInvariants' copy of the record area
}

// NewEcho returns the benchmark.
func NewEcho() *Echo { return &Echo{keys: 1 << 15} }

// Name implements Workload.
func (w *Echo) Name() string { return "echo" }

// Profile implements Workload.
func (w *Echo) Profile() Profile {
	return Profile{Parse: 5000, IdleBase: 14000, IdleSpread: 9000, EstOpCycles: 30000}
}

// Setup implements Workload.
func (w *Echo) Setup(mgr *pmo.Manager, ctx *core.ThreadCtx, rng *rand.Rand) error {
	if err := w.open(mgr, "whisper."+w.Name(), ctx); err != nil {
		return err
	}
	p := w.p
	var err error
	if w.h, err = NewHash(p, 1<<16, w.log); err != nil {
		return err
	}
	area, err := p.Alloc(uint64(w.keys) * 8 * 8)
	if err != nil {
		return err
	}
	cur, err := p.Alloc(16)
	if err != nil {
		return err
	}
	if err := p.Write8(cur.Offset(), uint64(area)); err != nil {
		return err
	}
	if err := p.Write8(cur.Offset()+8, 0); err != nil { // version counter
		return err
	}
	w.logOff = cur
	return nil
}

// CheckInvariants implements Workload: records carry in-range keys and
// versions no newer than the counter plus the one op that may have been
// in flight; the index maps keys to aligned record slots.
func (w *Echo) CheckInvariants(p *pmo.PMO) error {
	areaRaw, err := p.Read8(w.logOff.Offset())
	if err != nil {
		return err
	}
	area := pmo.OID(areaRaw).Offset()
	ver, err := p.Read8(w.logOff.Offset() + 8)
	if err != nil {
		return err
	}
	nrecs := uint64(w.keys) * 8 * 8 / 24
	recs, err := readWords(p, &w.recs, area, nrecs*3)
	if err != nil {
		return err
	}
	for r := uint64(0); r < nrecs; r++ {
		key := recs[3*r]
		if key == 0 {
			continue
		}
		if key > w.keys {
			return fmt.Errorf("whisper: echo record %d key %d out of range", r, key)
		}
		if rv := recs[3*r+1]; rv > ver+1 {
			return fmt.Errorf("whisper: echo record %d version %d ahead of counter %d", r, rv, ver)
		}
	}
	return w.h.Audit(p, w.keys, func(key, v uint64) error {
		ro := pmo.OID(v).Offset()
		if ro < area || ro >= area+nrecs*24 || (ro-area)%24 != 0 {
			return fmt.Errorf("whisper: echo index key %d points at bad record offset %d", key, ro)
		}
		return nil
	})
}

// Op implements Workload.
func (w *Echo) Op(ctx *core.ThreadCtx, rng *rand.Rand) error {
	key := uint64(rng.Int63n(int64(w.keys))) + 1
	if rng.Intn(100) < 40 {
		_, _, err := w.h.Get(ctx, key)
		return err
	}
	// Versioned put: bump the version, append (key,version,value) to
	// the record area, point the index at the record.
	verCell := pmo.MakeOID(w.p.ID, w.logOff.Offset()+8)
	ver, err := ctx.Load(verCell)
	if err != nil {
		return err
	}
	ver++
	if err := ctx.Store(verCell, ver); err != nil {
		return err
	}
	// The counter and record are plain (unlogged) stores: issue their
	// writebacks so the fences inside the index update drain them —
	// semantic only, cycle costs were charged by the stores.
	w.p.Flush(verCell.Offset(), 8)
	areaRaw, err := ctx.Load(w.logOff)
	if err != nil {
		return err
	}
	area := pmo.OID(areaRaw)
	// Records are 24 bytes in a ring over the allocated area.
	nrecs := uint64(w.keys) * 8 * 8 / 24
	rec := pmo.MakeOID(w.p.ID, area.Offset()+(ver%nrecs)*24)
	if err := ctx.Store(rec, key); err != nil {
		return err
	}
	if err := ctx.Store(pmo.MakeOID(w.p.ID, rec.Offset()+8), ver); err != nil {
		return err
	}
	if err := ctx.Store(pmo.MakeOID(w.p.ID, rec.Offset()+16), rng.Uint64()); err != nil {
		return err
	}
	w.p.Flush(rec.Offset(), 24)
	return w.h.Put(ctx, key, uint64(rec))
}

// --- tpcc ------------------------------------------------------------------

// TPCC models the new-order transaction: read a district row, advance its
// order counter, insert an order and its order lines — all under one undo
// transaction.
type TPCC struct {
	store
	districts pmo.OID // [nextOID x 10]
	orders    pmo.OID // ring of order records
	lines     pmo.OID // ring of order lines
	nOrders   uint64
	audit     []uint64 // CheckInvariants' copy of the array it checks
}

// NewTPCC returns the benchmark.
func NewTPCC() *TPCC { return &TPCC{nOrders: 1 << 14} }

// Name implements Workload.
func (w *TPCC) Name() string { return "tpcc" }

// Profile implements Workload.
func (w *TPCC) Profile() Profile {
	return Profile{Parse: 6000, IdleBase: 12000, IdleSpread: 8000, EstOpCycles: 35000}
}

// Setup implements Workload.
func (w *TPCC) Setup(mgr *pmo.Manager, ctx *core.ThreadCtx, rng *rand.Rand) error {
	if err := w.open(mgr, "whisper."+w.Name(), ctx); err != nil {
		return err
	}
	p := w.p
	var err error
	if w.districts, err = p.Alloc(10 * 8); err != nil {
		return err
	}
	if w.orders, err = p.Alloc(w.nOrders * 24); err != nil {
		return err
	}
	if w.lines, err = p.Alloc(w.nOrders * 15 * 16); err != nil {
		return err
	}
	return nil
}

// CheckInvariants implements Workload: every order record and order
// line stays inside its write domain — a torn multi-word insert would
// leave the counter pointing at a slot whose fields never held such
// values.
func (w *TPCC) CheckInvariants(p *pmo.PMO) error {
	orders, err := readWords(p, &w.audit, w.orders.Offset(), w.nOrders*3)
	if err != nil {
		return err
	}
	for i := uint64(0); i < w.nOrders; i++ {
		if district := orders[3*i+1]; district >= 10 {
			return fmt.Errorf("whisper: tpcc order %d district %d out of range", i, district)
		}
		if cust := orders[3*i+2]; cust >= 3000 {
			return fmt.Errorf("whisper: tpcc order %d customer %d out of range", i, cust)
		}
	}
	lines, err := readWords(p, &w.audit, w.lines.Offset(), w.nOrders*15*2)
	if err != nil {
		return err
	}
	for j := uint64(0); j < w.nOrders*15; j++ {
		if lineNo := lines[2*j+1]; lineNo >= 15 {
			return fmt.Errorf("whisper: tpcc line %d number %d out of range", j, lineNo)
		}
	}
	return nil
}

// Op implements Workload.
func (w *TPCC) Op(ctx *core.ThreadCtx, rng *rand.Rand) error {
	district := uint64(rng.Intn(10))
	dCell := pmo.MakeOID(w.p.ID, w.districts.Offset()+district*8)
	if err := w.log.Begin(); err != nil {
		return err
	}
	next, err := ctx.Load(dCell)
	if err != nil {
		w.log.Abort()
		return err
	}
	next++
	if err := w.log.Write(dCell, next); err != nil {
		w.log.Abort()
		return err
	}
	if err := ctx.Store(dCell, next); err != nil {
		w.log.Abort()
		return err
	}
	// Insert the order record.
	slot := next % w.nOrders
	rec := pmo.MakeOID(w.p.ID, w.orders.Offset()+slot*24)
	for i, v := range []uint64{next, district, uint64(rng.Intn(3000))} {
		if err := ctx.Store(pmo.MakeOID(w.p.ID, rec.Offset()+uint64(i)*8), v); err != nil {
			w.log.Abort()
			return err
		}
	}
	// Order record and lines are plain stores: issue their writebacks so
	// Commit's fence drains them before truncating the log (semantic
	// only; the stores charged their own cycle costs).
	w.p.Flush(rec.Offset(), 24)
	// Insert 5-15 order lines.
	n := 5 + rng.Intn(11)
	for l := 0; l < n; l++ {
		lo := pmo.MakeOID(w.p.ID, w.lines.Offset()+(slot*15+uint64(l))*16)
		if err := ctx.Store(lo, uint64(rng.Intn(100000))); err != nil {
			w.log.Abort()
			return err
		}
		if err := ctx.Store(pmo.MakeOID(w.p.ID, lo.Offset()+8), uint64(l)); err != nil {
			w.log.Abort()
			return err
		}
		w.p.Flush(lo.Offset(), 16)
	}
	return w.log.Commit()
}

// All returns constructors for the six WHISPER benchmarks in the paper's
// table order.
func All() []func() Workload {
	return []func() Workload{
		func() Workload { return NewEcho() },
		func() Workload { return &KV{row: ycsbRow} },
		func() Workload { return NewTPCC() },
		func() Workload { return NewCtree() },
		func() Workload { return &KV{row: hashmapRow} },
		func() Workload { return &KV{row: redisRow} },
	}
}

// ByName returns the named workload constructor.
func ByName(name string) (func() Workload, error) {
	for _, mk := range All() {
		if mk().Name() == name {
			return mk, nil
		}
	}
	return nil, fmt.Errorf("whisper: unknown workload %q", name)
}
