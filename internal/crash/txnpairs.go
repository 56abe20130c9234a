package crash

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/pmo"
	"repro/internal/txn"
	"repro/internal/whisper"
)

// pairMagic ties the two halves of a pair together: the invariant
// B[i] == A[i]^pairMagic holds after every committed transaction, so a
// torn update — one half durable without the other and without a log
// record to undo it — is immediately visible.
const pairMagic = 0x5a5a5a5a5a5a5a5a

// pairCount is the number of pairs; small enough that crash points hit
// the same lines repeatedly, large enough for A and B to span many lines.
const pairCount = 64

// TxnPairs is a micro-workload built for fault injection: each operation
// transactionally rewrites one pair (A[i], B[i]) kept in two separate
// allocations (so the halves live on different cache lines and a relaxed
// crash can genuinely tear them). It implements whisper.Workload and
// complements the WHISPER workloads with the smallest possible invariant.
type TxnPairs struct {
	p      *pmo.PMO
	log    *txn.Log
	logOID pmo.OID
	a, b   pmo.OID
}

// NewTxnPairs returns the workload.
func NewTxnPairs() *TxnPairs { return &TxnPairs{} }

// Name implements whisper.Workload.
func (w *TxnPairs) Name() string { return "txnpairs" }

// PMO implements whisper.Workload.
func (w *TxnPairs) PMO() *pmo.PMO { return w.p }

// Profile implements whisper.Workload (nominal values; the crash harness
// does not simulate think time).
func (w *TxnPairs) Profile() whisper.Profile {
	return whisper.Profile{Parse: 100, IdleBase: 100, IdleSpread: 0, EstOpCycles: 5000}
}

// LogOID implements whisper.Workload.
func (w *TxnPairs) LogOID() pmo.OID { return w.logOID }

// Setup implements whisper.Workload.
func (w *TxnPairs) Setup(mgr *pmo.Manager, ctx *core.ThreadCtx, rng *rand.Rand) error {
	p, err := mgr.Create("crash.txnpairs", 1<<20, pmo.ModeRead|pmo.ModeWrite)
	if err != nil {
		return err
	}
	w.p = p
	log, logOID, err := txn.NewLog(p, 16)
	if err != nil {
		return err
	}
	log.SetSink(ctx)
	w.log, w.logOID = log, logOID
	if w.a, err = p.Alloc(pairCount * 8); err != nil {
		return err
	}
	if w.b, err = p.Alloc(pairCount * 8); err != nil {
		return err
	}
	for i := uint64(0); i < pairCount; i++ {
		v := i*2 + 1
		if err := p.Write8(w.a.Offset()+i*8, v); err != nil {
			return err
		}
		if err := p.Write8(w.b.Offset()+i*8, v^pairMagic); err != nil {
			return err
		}
	}
	return nil
}

// Op implements whisper.Workload: rewrite one pair under the undo log.
func (w *TxnPairs) Op(ctx *core.ThreadCtx, rng *rand.Rand) error {
	i := uint64(rng.Intn(pairCount))
	v := rng.Uint64() | 1 // nonzero
	ao := pmo.MakeOID(w.p.ID, w.a.Offset()+i*8)
	bo := pmo.MakeOID(w.p.ID, w.b.Offset()+i*8)
	if err := w.log.Begin(); err != nil {
		return err
	}
	if err := w.log.Write(ao, v); err != nil {
		w.log.Abort()
		return err
	}
	if err := ctx.Store(ao, v); err != nil {
		w.log.Abort()
		return err
	}
	if err := w.log.Write(bo, v^pairMagic); err != nil {
		w.log.Abort()
		return err
	}
	if err := ctx.Store(bo, v^pairMagic); err != nil {
		w.log.Abort()
		return err
	}
	return w.log.Commit()
}

// CheckInvariants implements whisper.Workload: every pair must agree.
func (w *TxnPairs) CheckInvariants(p *pmo.PMO) error {
	for i := uint64(0); i < pairCount; i++ {
		av, err := p.Read8(w.a.Offset() + i*8)
		if err != nil {
			return err
		}
		bv, err := p.Read8(w.b.Offset() + i*8)
		if err != nil {
			return err
		}
		if bv != av^pairMagic {
			return fmt.Errorf("crash: pair %d torn: a=%#x b=%#x", i, av, bv)
		}
	}
	return nil
}
