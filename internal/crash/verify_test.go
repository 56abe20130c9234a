package crash

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nvm"
)

// TestVerifierReportsTornPair is the verifier's negative control: a pair
// torn without a log record — A[i] rewritten, flushed and fenced, B[i]
// left alone — is durable in every crash image, and verify on a crash
// view must report it.
func TestVerifierReportsTornPair(t *testing.T) {
	r, err := Spec{Workload: "txnpairs", Ops: 10, Seed: 1}.instrumented(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := r.w.(*TxnPairs)
	const i = 5
	off := w.a.Offset() + i*8
	v, err := w.p.Read8(off)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.p.Write8(off, v+2); err != nil {
		t.Fatal(err)
	}
	w.p.Flush(off, 8)
	w.p.Fence()
	_, err = verify(r.dev.CrashView(nil), r.w, r.logCap)
	if want := fmt.Sprintf("pair %d torn", i); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("verify = %v, want an error naming %q", err, want)
	}
}

// TestCrashViewsDoNotShareRecovery crashes txnpairs mid-transaction and
// verifies two views of the same instant, one after the other: the
// second must roll back the same records, seeing none of the first's
// recovery writes, and the live device must be as it was.
func TestCrashViewsDoNotShareRecovery(t *testing.T) {
	done := false
	_, err := Spec{Workload: "txnpairs", Ops: 10, Seed: 1}.instrumented(func(r *run, e nvm.Event) {
		if done {
			return
		}
		before := nvm.ImageHash(r.dev)
		first, err := verify(r.dev.CrashView(nil), r.w, r.logCap)
		if err != nil {
			t.Fatalf("event %d: %v", e.Index, err)
		}
		if first == 0 {
			return // nothing to roll back at this point
		}
		done = true
		second, err := verify(r.dev.CrashView(nil), r.w, r.logCap)
		if err != nil || second != first {
			t.Fatalf("event %d: second view undid %d records (%v), first %d", e.Index, second, err, first)
		}
		if nvm.ImageHash(r.dev) != before {
			t.Fatalf("event %d: recovery on a view changed the live device", e.Index)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("no crash point had a record to roll back")
	}
}

// TestCrashRunAllocatesUnderOneMBPerPoint bounds what a crash point costs
// in host memory: the fence cell of BenchmarkCrashRun allocates less than
// 1 MB per point, workload setup and audit buffers included. A point that
// copied the 2 MB hashmap image would blow the bound on its own.
func TestCrashRunAllocatesUnderOneMBPerPoint(t *testing.T) {
	s := benchSpecs[0].spec
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(s)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perPoint := (after.TotalAlloc - before.TotalAlloc) / uint64(len(rep.Points))
	if perPoint >= 1<<20 {
		t.Fatalf("%d bytes allocated per point over %d points, want under 1 MB", perPoint, len(rep.Points))
	}
	t.Logf("%d bytes per point", perPoint)
}
