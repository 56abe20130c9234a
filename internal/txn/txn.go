// Package txn provides undo-log transactions over PMOs — the crash
// consistency support a PMO abstraction requires (Section II). A
// transaction logs the prior value of every word it is about to overwrite
// into a persistent log region inside the PMO; on commit the log is
// truncated, and on recovery after a crash any complete log records are
// rolled back, restoring the pre-transaction state. The cycle costs of
// log writes and the flush/fence ordering points are charged to the
// executing thread via a CostSink, so protected workloads account for
// persistence overheads in their base time.
package txn

import (
	"errors"
	"fmt"

	"repro/internal/params"
	"repro/internal/pmo"
)

// CostSink receives the cycle cost of persistence operations. The
// workload's thread context implements it (charging to the Base account).
type CostSink interface {
	// Compute charges n cycles.
	Compute(n uint64)
}

// nopSink discards costs (for recovery paths that run outside a run).
type nopSink struct{}

func (nopSink) Compute(uint64) {}

// Persistence cost model: a clwb+sfence pair on NVM.
const (
	// FlushCost is the cost of a cache-line writeback to NVM.
	FlushCost = params.NVMLatency
	// FenceCost is the cost of an ordering fence.
	FenceCost = 30
)

// Log layout inside the reserved region: the log occupies a fixed
// allocation created by NewLog. Record: [oid(8) | value(8)].
const (
	logMagic      = 0x474f4c58 // "XLOG"
	offLogMagic   = 0
	offLogCount   = 8
	offLogRecords = 16
	recordSize    = 16
)

// Errors of the transaction layer.
var (
	// ErrTxnActive is returned when beginning a nested transaction.
	ErrTxnActive = errors.New("txn: transaction already active")
	// ErrNoTxn is returned when writing or committing with no
	// transaction active.
	ErrNoTxn = errors.New("txn: no active transaction")
	// ErrLogFull is returned when the undo log overflows.
	ErrLogFull = errors.New("txn: undo log full")
	// ErrLogCorrupt is returned when the persistent log state is
	// impossible (e.g. a count beyond the log capacity).
	ErrLogCorrupt = errors.New("txn: corrupt undo log")
)

// Log is a persistent undo log living inside one PMO.
type Log struct {
	p        *pmo.PMO
	base     uint64 // offset of the log region inside the PMO
	capacity int    // max records
	active   bool
	count    int
	sink     CostSink
}

// NewLog allocates a fresh undo log with room for capacity records inside
// the PMO and returns it. The log's OID should be stored somewhere
// recoverable (e.g. the PMO root structure).
func NewLog(p *pmo.PMO, capacity int) (*Log, pmo.OID, error) {
	size := uint64(offLogRecords + capacity*recordSize)
	oid, err := p.Alloc(size)
	if err != nil {
		return nil, pmo.NilOID, err
	}
	l := &Log{p: p, base: oid.Offset(), capacity: capacity, sink: nopSink{}}
	if err := p.Write8(l.base+offLogMagic, logMagic); err != nil {
		return nil, pmo.NilOID, err
	}
	if err := p.Write8(l.base+offLogCount, 0); err != nil {
		return nil, pmo.NilOID, err
	}
	p.Flush(l.base, offLogRecords)
	p.Fence()
	return l, oid, nil
}

// OpenLog reopens an existing undo log at the given OID (across runs).
func OpenLog(p *pmo.PMO, oid pmo.OID, capacity int) (*Log, error) {
	base := oid.Offset()
	magic, err := p.Read8(base + offLogMagic)
	if err != nil {
		return nil, err
	}
	if magic != logMagic {
		return nil, fmt.Errorf("txn: bad log magic %#x", magic)
	}
	return &Log{p: p, base: base, capacity: capacity, sink: nopSink{}}, nil
}

// SetSink routes persistence costs to the given sink.
func (l *Log) SetSink(s CostSink) {
	if s == nil {
		l.sink = nopSink{}
	} else {
		l.sink = s
	}
}

// Begin starts a transaction.
func (l *Log) Begin() error {
	if l.active {
		return ErrTxnActive
	}
	l.active = true
	l.count = 0
	return nil
}

// Pending returns the persistent record count — the number of undo
// records a recovery starting from the current durable state would see.
// A quiescent (committed or recovered) log reports zero.
func (l *Log) Pending() (uint64, error) {
	return l.p.Read8(l.base + offLogCount)
}

// Write performs a transactional 8-byte write: the old value is logged and
// flushed before the new value is written (undo logging discipline).
func (l *Log) Write(oid pmo.OID, v uint64) error {
	if !l.active {
		return ErrNoTxn
	}
	if l.count >= l.capacity {
		return ErrLogFull
	}
	old, err := l.p.Read8(oid.Offset())
	if err != nil {
		return err
	}
	rec := l.base + offLogRecords + uint64(l.count)*recordSize
	if err := l.p.Write8(rec, uint64(oid)); err != nil {
		return err
	}
	if err := l.p.Write8(rec+8, old); err != nil {
		return err
	}
	// Persist the record, then bump the count, then persist the count,
	// and only then write the data in place: write-ahead ordering. The
	// Flush/Fence calls are the semantic drain points on the device's
	// persist buffer; the Compute calls charge the matching cycle costs.
	l.p.Flush(rec, recordSize)
	l.p.Fence()
	l.sink.Compute(FlushCost + FenceCost)
	l.count++
	if err := l.p.Write8(l.base+offLogCount, uint64(l.count)); err != nil {
		return err
	}
	l.p.Flush(l.base+offLogCount, 8)
	l.p.Fence()
	l.sink.Compute(FlushCost + FenceCost)
	if err := l.p.Write8(oid.Offset(), v); err != nil {
		return err
	}
	l.p.Flush(oid.Offset(), 8)
	l.sink.Compute(FlushCost)
	return nil
}

// Commit makes the transaction durable and truncates the log.
func (l *Log) Commit() error {
	if !l.active {
		return ErrNoTxn
	}
	// Drain the in-place data writes (their writebacks were issued by
	// Write but never fenced), and only then truncate the log. Truncating
	// first would let a crash land with the log empty while the last data
	// line's writeback is still in flight — a torn, unrecoverable state.
	l.p.Fence()
	l.sink.Compute(FenceCost)
	if err := l.p.Write8(l.base+offLogCount, 0); err != nil {
		return err
	}
	l.p.Flush(l.base+offLogCount, 8)
	l.p.Fence()
	l.sink.Compute(FlushCost + FenceCost)
	l.active = false
	l.count = 0
	return nil
}

// ChargeCommits charges the sink what n committed transactions of one
// Write each charge: the Compute calls of n Begin, Write, Commit
// sequences, one call at a time and in their order. It touches neither
// the log nor the PMO. A load phase that builds its structure without the
// log calls it for the transactions it did not run, so the sink sees the
// same charges as if it had.
func (l *Log) ChargeCommits(n int) {
	for range n {
		l.sink.Compute(FlushCost + FenceCost) // Write: the record
		l.sink.Compute(FlushCost + FenceCost) // Write: the count
		l.sink.Compute(FlushCost)             // Write: the data
		l.sink.Compute(FenceCost)             // Commit: drain the data
		l.sink.Compute(FlushCost + FenceCost) // Commit: the truncation
	}
}

// Abort rolls the transaction back in place (undo) and truncates the log.
func (l *Log) Abort() error {
	if !l.active {
		return ErrNoTxn
	}
	if err := l.rollback(); err != nil {
		return err
	}
	l.active = false
	return nil
}

// Recover rolls back any incomplete transaction found in the log. It is
// called after reopening a PMO that may have crashed mid-transaction.
// It returns the number of undone records.
func (l *Log) Recover() (int, error) {
	n, err := l.p.Read8(l.base + offLogCount)
	if err != nil {
		return 0, err
	}
	if n > uint64(l.capacity) {
		return 0, fmt.Errorf("%w: count %d exceeds capacity %d", ErrLogCorrupt, n, l.capacity)
	}
	l.count = int(n)
	undone := l.count
	if err := l.rollback(); err != nil {
		return 0, err
	}
	l.active = false
	return undone, nil
}

// rollback applies log records newest-first and truncates the log.
func (l *Log) rollback() error {
	for i := l.count - 1; i >= 0; i-- {
		rec := l.base + offLogRecords + uint64(i)*recordSize
		rawOID, err := l.p.Read8(rec)
		if err != nil {
			return err
		}
		old, err := l.p.Read8(rec + 8)
		if err != nil {
			return err
		}
		if err := l.p.Write8(pmo.OID(rawOID).Offset(), old); err != nil {
			return err
		}
		l.p.Flush(pmo.OID(rawOID).Offset(), 8)
		l.sink.Compute(FlushCost)
	}
	l.p.Fence()
	l.count = 0
	if err := l.p.Write8(l.base+offLogCount, 0); err != nil {
		return err
	}
	l.p.Flush(l.base+offLogCount, 8)
	l.p.Fence()
	l.sink.Compute(FlushCost + FenceCost)
	return nil
}
