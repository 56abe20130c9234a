package terphw

import (
	"testing"

	"repro/internal/params"
)

const maxEW uint64 = 40 * params.CyclesPerMicro

func TestCase1FirstAttach(t *testing.T) {
	b := NewBuffer(maxEW)
	if c := b.CondAttach(1, 100); c != CaseFirstAttach {
		t.Fatalf("case = %v", c)
	}
	e, ok := b.Lookup(1)
	if !ok || e.Ctr != 1 || e.DD || e.TS != 100 {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
}

func TestCase2SubsequentAttach(t *testing.T) {
	b := NewBuffer(maxEW)
	b.CondAttach(1, 0)
	if c := b.CondAttach(1, 10); c != CaseSubsequentAttach {
		t.Fatalf("case = %v", c)
	}
	if e, _ := b.Lookup(1); e.Ctr != 2 {
		t.Fatalf("ctr = %d", e.Ctr)
	}
}

func TestCase3SilentAttachElidesSyscallPair(t *testing.T) {
	b := NewBuffer(maxEW)
	b.CondAttach(1, 0)
	if c := b.CondDetach(1, 100); c != CaseDelayedDetach {
		t.Fatalf("detach case = %v", c)
	}
	if c := b.CondAttach(1, 200); c != CaseSilentAttach {
		t.Fatalf("attach case = %v", c)
	}
	if b.Elided != 1 {
		t.Fatalf("elided = %d", b.Elided)
	}
	e, _ := b.Lookup(1)
	if e.DD || e.Ctr != 1 {
		t.Fatalf("entry after silent attach = %+v", e)
	}
	// The attach timestamp must NOT reset: the combined window keeps
	// the original start so the max EW still binds (Figure 6a).
	if e.TS != 0 {
		t.Fatalf("TS reset to %d; window combining must keep start", e.TS)
	}
}

func TestCase4PartialDetach(t *testing.T) {
	b := NewBuffer(maxEW)
	b.CondAttach(1, 0)
	b.CondAttach(1, 10)
	if c := b.CondDetach(1, 20); c != CasePartialDetach {
		t.Fatalf("case = %v", c)
	}
	if e, _ := b.Lookup(1); e.Ctr != 1 || e.DD {
		t.Fatalf("entry = %+v", e)
	}
}

func TestCase5FullDetachAfterEW(t *testing.T) {
	b := NewBuffer(maxEW)
	b.CondAttach(1, 0)
	if c := b.CondDetach(1, maxEW+1); c != CaseFullDetach {
		t.Fatalf("case = %v", c)
	}
	if _, ok := b.Lookup(1); ok {
		t.Fatal("entry not freed by full detach")
	}
}

func TestCase6DelayedDetach(t *testing.T) {
	b := NewBuffer(maxEW)
	b.CondAttach(1, 0)
	if c := b.CondDetach(1, maxEW/2); c != CaseDelayedDetach {
		t.Fatalf("case = %v", c)
	}
	if e, _ := b.Lookup(1); !e.DD || e.Ctr != 0 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestSweepSelfDetachesIdleExpired(t *testing.T) {
	b := NewBuffer(maxEW)
	b.CondAttach(1, 0)
	b.CondDetach(1, 100) // delayed
	acts := b.Sweep(maxEW + params.SweepPeriod)
	if len(acts) != 1 || !acts[0].Detach || acts[0].PMOID != 1 {
		t.Fatalf("acts = %+v", acts)
	}
	if _, ok := b.Lookup(1); ok {
		t.Fatal("self-detached entry still present")
	}
	if b.SelfDetach != 1 {
		t.Fatalf("SelfDetach = %d", b.SelfDetach)
	}
}

func TestSweepRandomizesHeldExpired(t *testing.T) {
	b := NewBuffer(maxEW)
	b.CondAttach(1, 0)
	now := maxEW + params.SweepPeriod
	acts := b.Sweep(now)
	if len(acts) != 1 || acts[0].Detach {
		t.Fatalf("acts = %+v", acts)
	}
	e, _ := b.Lookup(1)
	if e.TS != now {
		t.Fatalf("randomize must restart the window: TS = %d", e.TS)
	}
	if b.SweepRand != 1 {
		t.Fatalf("SweepRand = %d", b.SweepRand)
	}
}

func TestSweepLeavesFreshEntriesAlone(t *testing.T) {
	b := NewBuffer(maxEW)
	b.CondAttach(1, 0)
	b.CondAttach(2, 0)
	b.CondDetach(2, 10)
	if acts := b.Sweep(params.SweepPeriod * 2); len(acts) != 0 {
		t.Fatalf("fresh entries acted on: %+v", acts)
	}
}

func TestSweepPeriodGating(t *testing.T) {
	b := NewBuffer(maxEW)
	b.CondAttach(1, 0)
	b.CondDetach(1, 1)
	b.ForceExpire(1, maxEW+10)
	if acts := b.Sweep(maxEW + 10); len(acts) != 1 {
		t.Fatal("first sweep should act")
	}
	b.CondAttach(2, maxEW+11)
	b.CondDetach(2, maxEW+12)
	b.ForceExpire(2, maxEW+13)
	// Within the same sweep period: no action yet.
	if acts := b.Sweep(maxEW + 13); len(acts) != 0 {
		t.Fatal("sweep ran again within one period")
	}
	if acts := b.Sweep(maxEW + 13 + params.SweepPeriod); len(acts) != 1 {
		t.Fatal("sweep missed the next period")
	}
}

// TestFigure7Example replays the worked example of Figure 7a: at time 15
// with max EW 10, PMO1 (TS 3, Ctr 0, DD 1) is detached and PMO2 (TS 5,
// Ctr 3) is randomized; PMO3 and PMO4 are left alone.
func TestFigure7Example(t *testing.T) {
	us := uint64(params.CyclesPerMicro)
	b := NewBuffer(10 * us)
	// PMO1: attached at 3us, one holder that delayed-detached.
	b.CondAttach(1, 3*us)
	b.CondDetach(1, 4*us)
	// PMO2: attached at 5us by 3 threads.
	b.CondAttach(2, 5*us)
	b.CondAttach(2, 5*us)
	b.CondAttach(2, 5*us)
	// PMO3 at 12us, PMO4 at 15us (approximated; both recent).
	b.CondAttach(3, 12*us)
	b.CondAttach(4, 14*us)

	acts := b.Sweep(15 * us)
	if len(acts) != 2 {
		t.Fatalf("acts = %+v", acts)
	}
	got := map[uint32]bool{}
	for _, a := range acts {
		got[a.PMOID] = a.Detach
	}
	if det, ok := got[1]; !ok || !det {
		t.Fatalf("PMO1 should self-detach: %+v", acts)
	}
	if det, ok := got[2]; !ok || det {
		t.Fatalf("PMO2 should randomize: %+v", acts)
	}
	if _, acted := got[3]; acted {
		t.Fatal("PMO3 should be left alone")
	}
}

func TestBufferOverflow(t *testing.T) {
	b := NewBuffer(maxEW)
	for i := uint32(1); i <= params.CircularBufferEntries; i++ {
		if c := b.CondAttach(i, 0); c != CaseFirstAttach {
			t.Fatalf("attach %d: %v", i, c)
		}
	}
	if c := b.CondAttach(99, 1); c != CaseOverflow {
		t.Fatalf("overflow attach = %v", c)
	}
	if c := b.CondDetach(99, 2); c != CaseOverflow {
		t.Fatalf("overflow detach = %v", c)
	}
	if b.Live() != params.CircularBufferEntries {
		t.Fatalf("live = %d", b.Live())
	}
}

func TestWindowCombiningSequence(t *testing.T) {
	// Full combining (Figure 6a): attach, early detach (delayed),
	// re-attach (silent), detach after EW -> one full detach total.
	b := NewBuffer(maxEW)
	if b.CondAttach(1, 0) != CaseFirstAttach {
		t.Fatal("step 1")
	}
	if b.CondDetach(1, maxEW/4) != CaseDelayedDetach {
		t.Fatal("step 2")
	}
	if b.CondAttach(1, maxEW/2) != CaseSilentAttach {
		t.Fatal("step 3")
	}
	if b.CondDetach(1, maxEW+5) != CaseFullDetach {
		t.Fatal("step 4")
	}
	if b.Elided != 1 {
		t.Fatalf("elided = %d", b.Elided)
	}
}

func TestCaseStrings(t *testing.T) {
	for c := CaseFirstAttach; c <= CaseOverflow; c++ {
		if c.String() == "" {
			t.Fatalf("case %d has empty name", c)
		}
	}
}
