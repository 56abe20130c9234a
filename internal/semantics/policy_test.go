package semantics

import (
	"errors"
	"testing"
)

// apply runs one attach through policy p and commits the transition.
func attach(t *testing.T, p Policy, s *State, th int, now uint64) Action {
	t.Helper()
	a, err := p.Attach(s, th, now)
	if err != nil {
		t.Fatalf("%s attach: %v", p.Name(), err)
	}
	CommitAttach(s, th, now, a)
	return a
}

func detach(t *testing.T, p Policy, s *State, th int, now uint64) Action {
	t.Helper()
	a, err := p.Detach(s, th, now)
	if err != nil {
		t.Fatalf("%s detach: %v", p.Name(), err)
	}
	CommitDetach(s, th, now, a)
	return a
}

// TestBasicFigure3 walks the example code of Figure 3 under Basic
// semantics: attach/detach (valid), attach (valid), attach (error).
func TestBasicFigure3(t *testing.T) {
	p := Basic{}
	s := &State{}
	if a := attach(t, p, s, 0, 0); a != ActRealAttach {
		t.Fatalf("line1 attach = %v", a)
	}
	if a := detach(t, p, s, 0, 10); a != ActRealDetach {
		t.Fatalf("line3 detach = %v", a)
	}
	if a := attach(t, p, s, 0, 20); a != ActRealAttach {
		t.Fatalf("line5 attach = %v", a)
	}
	// Line 7: third attach while attached -> invalid.
	a, err := p.Attach(s, 0, 30)
	if a != ActInvalid || !errors.Is(err, ErrDoubleAttach) {
		t.Fatalf("nested attach = %v, %v", a, err)
	}
}

func TestBasicDetachWithoutAttach(t *testing.T) {
	p := Basic{}
	s := &State{}
	if a, err := p.Detach(s, 0, 0); a != ActInvalid || !errors.Is(err, ErrDetachUnattached) {
		t.Fatalf("detach unattached = %v, %v", a, err)
	}
}

func TestBasicBlocksUnderConcurrency(t *testing.T) {
	p := Basic{BlockOnConflict: true}
	s := &State{}
	attach(t, p, s, 0, 0)
	a, err := p.Attach(s, 1, 5)
	if err != nil || a != ActBlock {
		t.Fatalf("conflicting attach = %v, %v (want block)", a, err)
	}
}

// TestOutermostFigure3 verifies that only the outermost pair is real and
// inner calls are silent — and hence the exposure window can grow without
// bound (the semantic weakness the paper points out).
func TestOutermostFigure3(t *testing.T) {
	p := Outermost{}
	s := &State{}
	if a := attach(t, p, s, 0, 0); a != ActRealAttach {
		t.Fatalf("outer attach = %v", a)
	}
	if a := attach(t, p, s, 0, 10); a != ActSilent {
		t.Fatalf("inner attach = %v", a)
	}
	if a := detach(t, p, s, 0, 20); a != ActSilent {
		t.Fatalf("inner detach = %v", a)
	}
	if s.Attached != true {
		t.Fatal("PMO detached by inner detach")
	}
	if a := detach(t, p, s, 0, 1_000_000); a != ActRealDetach {
		t.Fatalf("outer detach = %v", a)
	}
	if s.Attached {
		t.Fatal("outer detach did not detach")
	}
}

func TestFCFSFirstDetachWins(t *testing.T) {
	p := FCFS{}
	s := &State{}
	if a := attach(t, p, s, 0, 0); a != ActRealAttach {
		t.Fatalf("outer attach = %v", a)
	}
	if a := attach(t, p, s, 0, 5); a != ActSilent {
		t.Fatalf("inner attach = %v", a)
	}
	// First detach encountered is performed even though "inner".
	if a := detach(t, p, s, 0, 10); a != ActRealDetach {
		t.Fatalf("first detach = %v", a)
	}
	// Later detach is silent.
	if a := detach(t, p, s, 0, 15); a != ActSilent {
		t.Fatalf("second detach = %v", a)
	}
	if a, err := p.Detach(s, 0, 20); a != ActInvalid || err == nil {
		t.Fatalf("unbalanced detach = %v, %v", a, err)
	}
}

// TestEWConsciousFigure4 walks the three-thread example of Figure 4.
func TestEWConsciousFigure4(t *testing.T) {
	const L = 1000
	p := EWConscious{L: L}
	s := &State{}

	// Thread 1 attaches (PMO unmapped -> real attach).
	if a := attach(t, p, s, 1, 0); a != ActRealAttach {
		t.Fatalf("t1 attach = %v", a)
	}
	// Thread 2 attaches while mapped -> lowered to thread grant.
	if a := attach(t, p, s, 2, 100); a != ActThreadGrant {
		t.Fatalf("t2 attach = %v", a)
	}
	// Thread 1 detaches: thread 2 still holds -> thread revoke only.
	if a := detach(t, p, s, 1, 200); a != ActThreadRevoke {
		t.Fatalf("t1 detach = %v", a)
	}
	if !s.Attached {
		t.Fatal("PMO must remain attached while t2 holds it")
	}
	// Thread 2 detaches long after L: real detach.
	if a := detach(t, p, s, 2, 2*L); a != ActRealDetach {
		t.Fatalf("t2 detach = %v", a)
	}
	if s.Attached {
		t.Fatal("PMO still attached after last real detach")
	}
	// Thread 3 never attached; its detach is invalid.
	if a, err := p.Detach(s, 3, 2*L+1); a != ActInvalid || err == nil {
		t.Fatalf("t3 detach = %v, %v", a, err)
	}
}

func TestEWConsciousEarlyDetachLowers(t *testing.T) {
	const L = 1000
	p := EWConscious{L: L}
	s := &State{}
	attach(t, p, s, 1, 0)
	// Detach before L elapsed: lowered even with no other holders
	// (condition (i) fails), enabling window combining.
	if a := detach(t, p, s, 1, L/2); a != ActThreadRevoke {
		t.Fatalf("early detach = %v", a)
	}
	if !s.Attached {
		t.Fatal("early lowered detach must keep the mapping")
	}
	// Re-attach while mapped lowers to grant: a combined window.
	if a := attach(t, p, s, 1, L/2+10); a != ActThreadGrant {
		t.Fatalf("re-attach = %v", a)
	}
}

func TestEWConsciousIntraThreadNestingSilenced(t *testing.T) {
	// Figure 3's EW-conscious column: the nested attach is
	// "valid=silent", and the matching inner detach is silent too.
	p := EWConscious{L: 100}
	s := &State{}
	attach(t, p, s, 1, 0)
	if a := attach(t, p, s, 1, 10); a != ActSilent {
		t.Fatalf("nested attach = %v, want silent", a)
	}
	if a := detach(t, p, s, 1, 20); a != ActSilent {
		t.Fatalf("inner detach = %v, want silent", a)
	}
	// The outer detach still works and the thread still holds access
	// until then.
	if !s.Holds(1) {
		t.Fatal("nest dropped the thread's hold")
	}
	if a := detach(t, p, s, 1, 500); a != ActRealDetach {
		t.Fatalf("outer detach = %v", a)
	}
}

func TestEWConsciousThreadComposability(t *testing.T) {
	// Many threads each doing well-formed attach/detach pairs never see
	// an error regardless of interleaving — the thread composability
	// property of Section IV-C.
	p := EWConscious{L: 50}
	s := &State{}
	now := uint64(0)
	for round := 0; round < 20; round++ {
		for th := 0; th < 4; th++ {
			now += 10
			attach(t, p, s, th, now)
		}
		for th := 3; th >= 0; th-- {
			now += 10
			detach(t, p, s, th, now)
		}
		if s.holders != 0 {
			t.Fatalf("round %d left holders", round)
		}
	}
}

func TestCommitDepthNeverNegative(t *testing.T) {
	s := &State{}
	CommitDetach(s, 0, 0, ActSilent)
	CommitDetach(s, 0, 0, ActThreadRevoke)
	CommitDetach(s, 0, 0, ActRealDetach)
	if s.Depth != 0 {
		t.Fatalf("depth = %d", s.Depth)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want string
	}{
		{Basic{}, "basic"},
		{Outermost{}, "outermost"},
		{FCFS{}, "fcfs"},
		{EWConscious{}, "ew-conscious"},
	} {
		if tc.p.Name() != tc.want {
			t.Fatalf("name = %q, want %q", tc.p.Name(), tc.want)
		}
	}
}

func TestActionStrings(t *testing.T) {
	acts := []Action{ActInvalid, ActRealAttach, ActThreadGrant, ActSilent, ActRealDetach, ActThreadRevoke, ActBlock}
	seen := map[string]bool{}
	for _, a := range acts {
		s := a.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate action name %q", s)
		}
		seen[s] = true
	}
}

func TestOtherHolders(t *testing.T) {
	s := &State{}
	CommitAttach(s, 1, 0, ActThreadGrant)
	if s.OtherHolders(1) {
		t.Fatal("sole holder reported others")
	}
	if !s.OtherHolders(2) {
		t.Fatal("the sole holder not seen by another thread")
	}
	CommitAttach(s, 2, 0, ActThreadGrant)
	if !s.OtherHolders(1) {
		t.Fatal("second holder not seen")
	}
	CommitDetach(s, 2, 0, ActThreadRevoke)
	CommitDetach(s, 2, 0, ActThreadRevoke)
	if s.OtherHolders(1) || s.holders != 1 {
		t.Fatalf("a repeated revoke miscounted holders: %d", s.holders)
	}
}
