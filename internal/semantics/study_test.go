package semantics

import (
	"testing"
)

func TestStudyNestedBasicErrors(t *testing.T) {
	trace := NestedTrace(5, 2, 100)
	res := RunStudy(Basic{}, trace)
	// Basic rejects every inner attach and the now-unbalanced detaches.
	if res.Errors == 0 {
		t.Fatal("Basic accepted nested attach-detach")
	}
	// EW-conscious handles the same trace with zero errors.
	ew := RunStudy(EWConscious{L: 1000}, trace)
	if ew.Errors != 0 {
		t.Fatalf("EW-conscious errored on nesting: %+v", ew)
	}
}

func TestStudyOutermostUnboundedEW(t *testing.T) {
	// One round with deep nesting and long gaps: Outermost keeps the
	// PMO attached for the entire nest, so its max EW grows with depth,
	// while per-level windows would be small.
	shallow := RunStudy(Outermost{}, NestedTrace(1, 1, 100))
	deep := RunStudy(Outermost{}, NestedTrace(1, 8, 100))
	if deep.MaxEW <= shallow.MaxEW {
		t.Fatalf("Outermost EW did not grow with nesting: %.0f vs %.0f",
			deep.MaxEW, shallow.MaxEW)
	}
	if deep.Errors != 0 {
		t.Fatalf("Outermost errored: %+v", deep)
	}
	if deep.Silent == 0 {
		t.Fatal("Outermost silenced nothing")
	}
}

func TestStudyFCFSDeniesLateAccesses(t *testing.T) {
	// FCFS performs the first detach: accesses after it (the rest of
	// the outer body) find the PMO detached — the benign-vs-malicious
	// ambiguity the paper describes.
	trace := NestedTrace(3, 1, 100)
	res := RunStudy(FCFS{}, trace)
	if res.Errors != 0 {
		t.Fatalf("FCFS errored on nesting: %+v", res)
	}
	if res.DeniedAccesses == 0 {
		t.Fatal("FCFS denied no late accesses")
	}
	ew := RunStudy(EWConscious{L: 1000}, trace)
	if ew.DeniedAccesses != 0 {
		t.Fatalf("EW-conscious denied accesses on nesting: %+v", ew)
	}
}

func TestStudyParallelComposability(t *testing.T) {
	trace := ParallelTrace(4, 10, 50)
	basic := RunStudy(Basic{}, trace)
	if basic.Errors == 0 {
		t.Fatal("Basic accepted overlapping windows across threads")
	}
	ew := RunStudy(EWConscious{L: 500}, trace)
	if ew.Errors != 0 {
		t.Fatalf("EW-conscious errored on parallel trace: %+v", ew)
	}
	if ew.DeniedAccesses != 0 {
		t.Fatalf("EW-conscious denied accesses: %+v", ew)
	}
	if ew.Lowered == 0 {
		t.Fatal("EW-conscious lowered nothing under overlap")
	}
	// The thread-level scoping means no more real operations than
	// Basic performs, with everything else lowered instead of erroring.
	if ew.RealOps > basic.RealOps {
		t.Fatalf("EW-conscious real ops %d above Basic's %d", ew.RealOps, basic.RealOps)
	}
}

func TestStudyExposureAccounting(t *testing.T) {
	trace := []Event{
		{Time: 0, Thread: 0, Kind: EvAttach},
		{Time: 100, Thread: 0, Kind: EvAccess},
		{Time: 200, Thread: 0, Kind: EvDetach},
	}
	res := RunStudy(Basic{}, trace)
	if res.EWCount != 1 || res.AvgEW != 200 || res.MaxEW != 200 {
		t.Fatalf("exposure = %+v", res)
	}
	if res.String() == "" {
		t.Fatal("empty string")
	}
}

func TestStudyOpenWindowClosedAtTraceEnd(t *testing.T) {
	trace := []Event{
		{Time: 0, Thread: 0, Kind: EvAttach},
		{Time: 500, Thread: 0, Kind: EvAccess},
	}
	res := RunStudy(Basic{}, trace)
	if res.EWCount != 1 || res.MaxEW != 500 {
		t.Fatalf("dangling window not closed: %+v", res)
	}
}

func TestAllPoliciesCoverSectionIV(t *testing.T) {
	ps := AllPolicies(1000)
	if len(ps) != 4 {
		t.Fatalf("policies = %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name()] = true
	}
	for _, want := range []string{"basic", "outermost", "fcfs", "ew-conscious"} {
		if !names[want] {
			t.Fatalf("missing policy %q", want)
		}
	}
}

func TestStudyDeterministic(t *testing.T) {
	trace := ParallelTrace(3, 5, 70)
	a := RunStudy(EWConscious{L: 300}, trace)
	b := RunStudy(EWConscious{L: 300}, trace)
	if a != b {
		t.Fatalf("non-deterministic study: %+v vs %+v", a, b)
	}
}
