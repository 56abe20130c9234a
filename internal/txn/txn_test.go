package txn

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/nvm"
	"repro/internal/pmo"
)

func setup(t *testing.T) (*nvm.Device, *pmo.PMO, *Log, pmo.OID) {
	t.Helper()
	dev := nvm.NewDevice(nvm.NVM, 1<<24)
	mgr := pmo.NewManager(dev)
	p, err := mgr.Create("txn", 1<<20, pmo.ModeRead|pmo.ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	l, logOID, err := NewLog(p, 128)
	if err != nil {
		t.Fatal(err)
	}
	return dev, p, l, logOID
}

func TestCommitPersists(t *testing.T) {
	_, p, l, _ := setup(t)
	o, _ := p.Alloc(8)
	p.Write8(o.Offset(), 1)
	if err := l.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := l.Write(o, 42); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Read8(o.Offset()); v != 42 {
		t.Fatalf("value = %d", v)
	}
}

func TestAbortRollsBack(t *testing.T) {
	_, p, l, _ := setup(t)
	o, _ := p.Alloc(8)
	p.Write8(o.Offset(), 7)
	l.Begin()
	l.Write(o, 99)
	if v, _ := p.Read8(o.Offset()); v != 99 {
		t.Fatal("in-place write missing")
	}
	if err := l.Abort(); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Read8(o.Offset()); v != 7 {
		t.Fatalf("rollback failed: %d", v)
	}
}

func TestCrashRecoveryMidTransaction(t *testing.T) {
	dev, p, l, logOID := setup(t)
	a, _ := p.Alloc(8)
	b, _ := p.Alloc(8)
	p.Write8(a.Offset(), 10)
	p.Write8(b.Offset(), 20)

	l.Begin()
	l.Write(a, 11)
	l.Write(b, 21)
	// Crash before commit: NVM retains everything written so far.
	snap := dev.Snapshot()
	dev.Restore(snap)

	// New "process": reopen log and recover.
	l2, err := OpenLog(p, logOID, 128)
	if err != nil {
		t.Fatal(err)
	}
	undone, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if undone != 2 {
		t.Fatalf("undone = %d", undone)
	}
	if v, _ := p.Read8(a.Offset()); v != 10 {
		t.Fatalf("a = %d, want pre-txn 10", v)
	}
	if v, _ := p.Read8(b.Offset()); v != 20 {
		t.Fatalf("b = %d, want pre-txn 20", v)
	}
}

func TestRecoveryAfterCommitIsNoop(t *testing.T) {
	_, p, l, logOID := setup(t)
	o, _ := p.Alloc(8)
	l.Begin()
	l.Write(o, 5)
	l.Commit()
	l2, _ := OpenLog(p, logOID, 128)
	undone, err := l2.Recover()
	if err != nil || undone != 0 {
		t.Fatalf("undone=%d err=%v", undone, err)
	}
	if v, _ := p.Read8(o.Offset()); v != 5 {
		t.Fatalf("committed value lost: %d", v)
	}
}

func TestNestedBeginRejected(t *testing.T) {
	_, _, l, _ := setup(t)
	l.Begin()
	if err := l.Begin(); !errors.Is(err, ErrTxnActive) {
		t.Fatalf("nested begin: %v", err)
	}
}

func TestWriteOutsideTxnRejected(t *testing.T) {
	_, p, l, _ := setup(t)
	o, _ := p.Alloc(8)
	if err := l.Write(o, 1); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("write outside txn: %v", err)
	}
	if err := l.Commit(); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("commit outside txn: %v", err)
	}
	if err := l.Abort(); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("abort outside txn: %v", err)
	}
}

func TestLogOverflow(t *testing.T) {
	dev := nvm.NewDevice(nvm.NVM, 1<<24)
	mgr := pmo.NewManager(dev)
	p, _ := mgr.Create("small", 1<<20, pmo.ModeWrite)
	l, _, err := NewLog(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := p.Alloc(64)
	l.Begin()
	l.Write(o, 1)
	l.Write(pmo.MakeOID(p.ID, o.Offset()+8), 2)
	if err := l.Write(pmo.MakeOID(p.ID, o.Offset()+16), 3); !errors.Is(err, ErrLogFull) {
		t.Fatalf("overflow: %v", err)
	}
}

func TestOpenLogBadMagic(t *testing.T) {
	_, p, _, _ := setup(t)
	o, _ := p.Alloc(64)
	if _, err := OpenLog(p, o, 4); err == nil {
		t.Fatal("bad magic accepted")
	}
}

type countSink struct{ n uint64 }

func (c *countSink) Compute(n uint64) { c.n += n }

func TestCostsCharged(t *testing.T) {
	_, p, l, _ := setup(t)
	sink := &countSink{}
	l.SetSink(sink)
	o, _ := p.Alloc(8)
	l.Begin()
	l.Write(o, 9)
	l.Commit()
	if sink.n == 0 {
		t.Fatal("no persistence costs charged")
	}
	l.SetSink(nil) // resets to nop without panicking
	l.Begin()
	l.Write(o, 10)
	l.Commit()
}

// Property: random crash points never leave a torn state — every cell
// holds either its pre-transaction or its committed value, and recovery
// restores all-pre when the crash hits before commit.
func TestCrashAtomicityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		dev := nvm.NewDevice(nvm.NVM, 1<<24)
		mgr := pmo.NewManager(dev)
		p, _ := mgr.Create("prop", 1<<20, pmo.ModeWrite)
		l, logOID, _ := NewLog(p, 64)
		cells := make([]pmo.OID, 8)
		for i := range cells {
			cells[i], _ = p.Alloc(8)
			p.Write8(cells[i].Offset(), uint64(i))
		}
		l.Begin()
		writes := 1 + r.Intn(8)
		for w := 0; w < writes; w++ {
			l.Write(cells[w], uint64(1000+w))
		}
		// Crash before commit (snapshot keeps NVM state as-is).
		l2, _ := OpenLog(p, logOID, 64)
		if _, err := l2.Recover(); err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			v, _ := p.Read8(c.Offset())
			if v != uint64(i) {
				t.Fatalf("trial %d: cell %d = %d after recovery", trial, i, v)
			}
		}
	}
}

func TestActiveFlag(t *testing.T) {
	_, _, l, _ := setup(t)
	if l.active {
		t.Fatal("fresh log active")
	}
	l.Begin()
	if !l.active {
		t.Fatal("begun log not active")
	}
	l.Commit()
	if l.active {
		t.Fatal("committed log still active")
	}
}

// pairMagic ties two cells together: the invariant b == a^pairMagic holds
// before and after every committed transaction, so any crash image whose
// recovery breaks it exposes a torn (partially durable) update.
const pairMagic = 0x5a5a5a5a5a5a5a5a

// Regression test for Commit ordering: the in-place data writebacks must
// be drained (fenced) BEFORE the log-count truncation write. A commit
// that truncates first can crash with the count durably zero while a data
// line's writeback is dropped under relaxed persist ordering — recovery
// then sees an empty log and cannot repair the torn pair.
func TestCommitDrainsDataBeforeTruncation(t *testing.T) {
	dev, p, l, logOID := setup(t)
	a, _ := p.Alloc(8)
	if _, err := p.Alloc(64); err != nil { // spacer: a and b on distinct lines
		t.Fatal(err)
	}
	b, _ := p.Alloc(8)
	p.Write8(a.Offset(), 1)
	p.Write8(b.Offset(), 1^pairMagic)

	buf := dev.EnablePersistBuffer(0) // everything above is already durable
	line := buf.LineSize()
	aLine := (p.DevOff + a.Offset()) / line
	bLine := (p.DevOff + b.Offset()) / line
	countLine := (p.DevOff + l.base + offLogCount) / line
	if aLine == bLine || aLine == countLine || bLine == countLine {
		t.Fatalf("layout collapsed onto one line: a=%d b=%d count=%d", aLine, bLine, countLine)
	}

	// Adversary: at every persist event, power fails with b's in-flight
	// writeback lost and every other unfenced line retained (relaxed
	// ordering may drop any subset; this is the subset that hurts: b is
	// the last data line written, so its writeback is the one still
	// unfenced when Commit runs).
	drop := func(ln uint64) bool { return ln == bLine }
	var images []map[uint64][]byte
	buf.SetEventHook(func(nvm.Event) {
		images = append(images, dev.CrashImage(drop))
	})

	l.Begin()
	if err := l.Write(a, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Write(b, 2^pairMagic); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}

	if len(images) < 6 {
		t.Fatalf("only %d persist events observed", len(images))
	}
	for i, img := range images {
		d2 := nvm.NewDevice(nvm.NVM, 1<<24)
		d2.Restore(img)
		p2, err := pmo.NewManager(d2).Open("txn")
		if err != nil {
			t.Fatalf("event %d: reopen: %v", i, err)
		}
		l2, err := OpenLog(p2, logOID, 128)
		if err != nil {
			t.Fatalf("event %d: open log: %v", i, err)
		}
		if _, err := l2.Recover(); err != nil {
			t.Fatalf("event %d: recover: %v", i, err)
		}
		av, _ := p2.Read8(a.Offset())
		bv, _ := p2.Read8(b.Offset())
		if bv != av^pairMagic {
			t.Errorf("crash at event %d: a=%d b=%#x — pair invariant broken", i, av, bv)
		}
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	_, p, _, logOID := setup(t)
	l2, err := OpenLog(p, logOID, 128)
	if err != nil {
		t.Fatal(err)
	}
	undone, err := l2.Recover()
	if err != nil || undone != 0 {
		t.Fatalf("undone=%d err=%v", undone, err)
	}
	if n, _ := l2.Pending(); n != 0 {
		t.Fatalf("pending = %d after recovery of empty log", n)
	}
}

func TestRecoverFullCapacityLog(t *testing.T) {
	dev := nvm.NewDevice(nvm.NVM, 1<<24)
	mgr := pmo.NewManager(dev)
	p, _ := mgr.Create("full", 1<<20, pmo.ModeRead|pmo.ModeWrite)
	const capacity = 4
	l, logOID, err := NewLog(p, capacity)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]pmo.OID, capacity)
	for i := range cells {
		cells[i], _ = p.Alloc(8)
		p.Write8(cells[i].Offset(), uint64(i))
	}
	l.Begin()
	for i, c := range cells {
		if err := l.Write(c, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash with the log completely full, then recover.
	l2, _ := OpenLog(p, logOID, capacity)
	undone, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if undone != capacity {
		t.Fatalf("undone = %d, want %d", undone, capacity)
	}
	for i, c := range cells {
		if v, _ := p.Read8(c.Offset()); v != uint64(i) {
			t.Fatalf("cell %d = %d after full-log recovery", i, v)
		}
	}
}

func TestRecoverCorruptCountErrors(t *testing.T) {
	for _, bogus := range []uint64{129, 1 << 40, ^uint64(0)} {
		_, p, l, logOID := setup(t)
		p.Write8(l.base+offLogCount, bogus)
		l2, err := OpenLog(p, logOID, 128)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l2.Recover(); !errors.Is(err, ErrLogCorrupt) {
			t.Fatalf("count %d: err = %v, want ErrLogCorrupt", bogus, err)
		}
	}
}

// recordSink records every charge, one entry per Compute call.
type recordSink []uint64

func (r *recordSink) Compute(n uint64) { *r = append(*r, n) }

// TestChargeCommitsMatchesTransactions: ChargeCommits(n) makes the same
// Compute calls, in the same order, as n committed one-Write transactions,
// and leaves the log as it found it.
func TestChargeCommitsMatchesTransactions(t *testing.T) {
	for _, n := range []int{0, 1, 3, 50} {
		_, p, l, _ := setup(t)
		o, _ := p.Alloc(8)
		var want recordSink
		l.SetSink(&want)
		for i := 0; i < n; i++ {
			if err := l.Begin(); err != nil {
				t.Fatal(err)
			}
			if err := l.Write(o, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		dev, _, l2, _ := setup(t)
		before := nvm.ImageHash(dev)
		var got recordSink
		l2.SetSink(&got)
		l2.ChargeCommits(n)
		if len(got) != len(want) {
			t.Fatalf("ChargeCommits(%d) made %d charges, %d transactions %d", n, len(got), n, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ChargeCommits(%d) charge %d is %d, the transactions' %d", n, i, got[i], want[i])
			}
		}
		if nvm.ImageHash(dev) != before || l2.active {
			t.Fatalf("ChargeCommits(%d) changed the log", n)
		}
	}
}
