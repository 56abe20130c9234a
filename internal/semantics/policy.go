package semantics

import (
	"errors"
	"fmt"
)

// Action is what a semantics policy tells the runtime to perform for one
// attach or detach call.
type Action int

// The possible outcomes of an attach or detach under some semantics.
const (
	// ActInvalid means the call violates the semantics (Basic's second
	// attach, detach without attach); the runtime raises an error.
	ActInvalid Action = iota
	// ActRealAttach performs the full attach: map the PMO into the
	// address space (system call, permission matrix entry).
	ActRealAttach
	// ActThreadGrant lowers the attach to a thread-level permission
	// grant (one step down the TERP poset).
	ActThreadGrant
	// ActSilent performs nothing (Outermost's inner calls).
	ActSilent
	// ActRealDetach performs the full detach: unmap and shoot down.
	ActRealDetach
	// ActThreadRevoke lowers the detach to a thread permission revoke.
	ActThreadRevoke
	// ActBlock means the calling thread must wait until the PMO is
	// detached and retry (Basic semantics under concurrency, which is
	// what makes the Figure 11 "basic semantics" bars so tall). The
	// runtime never commits it: it asks the policy again after each
	// wait of a sim.(*Thread).Wait, and commits the first answer that
	// is not ActBlock or gives up after 2^22 retries.
	ActBlock
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActInvalid:
		return "invalid"
	case ActRealAttach:
		return "real-attach"
	case ActThreadGrant:
		return "thread-grant"
	case ActSilent:
		return "silent"
	case ActRealDetach:
		return "real-detach"
	case ActThreadRevoke:
		return "thread-revoke"
	case ActBlock:
		return "block"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Errors raised by the policies.
var (
	// ErrDoubleAttach is Basic's "attach followed by attach".
	ErrDoubleAttach = errors.New("semantics: attach on already-attached PMO")
	// ErrDetachUnattached is a detach with no preceding attach.
	ErrDetachUnattached = errors.New("semantics: detach on unattached PMO")
)

// State is the per-PMO attachment state a policy decides over. The
// runtime owns one State per PMO and mutates it as directed. The zero
// State is detached.
type State struct {
	// Attached reports whether the PMO is mapped into the process.
	Attached bool
	// LastRealAttach is the time of the most recent real attach.
	LastRealAttach uint64
	// Depth is the process-wide nesting depth (Outermost/FCFS).
	Depth int
	// DetachDone marks that FCFS already performed its one real detach
	// for the current outermost window.
	DetachDone bool

	// threads is each thread's slot, indexed by thread ID (dense from
	// 0), and holders counts the slots that hold permission.
	threads []holder
	holders int
}

// holder is one thread's hold on the PMO.
type holder struct {
	// holds reports whether the thread holds thread-level permission
	// (its TEW is open).
	holds bool
	// nest is the thread's nesting depth of attach-detach pairs under
	// EW-conscious semantics (inner pairs are silenced).
	nest int
}

// Holds reports whether thread t holds thread-level permission.
func (s *State) Holds(t int) bool { return t < len(s.threads) && s.threads[t].holds }

// OtherHolders reports whether any thread besides t holds permission.
func (s *State) OtherHolders(t int) bool {
	return s.holders > 1 || s.holders == 1 && !s.Holds(t)
}

// slot returns thread t's slot, growing the table to reach it.
func (s *State) slot(t int) *holder {
	for t >= len(s.threads) {
		s.threads = append(s.threads, holder{})
	}
	return &s.threads[t]
}

// grant and revoke set and clear thread t's hold.
func (s *State) grant(t int) {
	if h := s.slot(t); !h.holds {
		h.holds = true
		s.holders++
	}
}

func (s *State) revoke(t int) {
	if s.Holds(t) {
		s.threads[t].holds = false
		s.holders--
	}
}

// Policy is one attach/detach semantics (Section IV). Attach and Detach
// inspect the state and return the action the runtime must perform; the
// runtime then applies the state transition via Commit* so policies stay
// pure deciders.
type Policy interface {
	// Name returns the semantics name used in figures and errors.
	Name() string
	// Attach decides the action for thread t attaching at time now.
	Attach(s *State, t int, now uint64) (Action, error)
	// Detach decides the action for thread t detaching at time now.
	Detach(s *State, t int, now uint64) (Action, error)
}

// Basic is the Basic semantics of Section IV-A: every attach must be
// followed by a detach and vice versa; a second attach while attached is
// an error (sequentially) and blocks (under concurrency, so multi-threaded
// programs can make progress at the cost of full serialization — the
// behaviour measured by Figure 11's "basic semantics" bars).
type Basic struct {
	// BlockOnConflict makes a conflicting attach block instead of
	// erroring, modeling threads waiting for the PMO.
	BlockOnConflict bool
}

// Name implements Policy.
func (Basic) Name() string { return "basic" }

// Attach implements Policy.
func (b Basic) Attach(s *State, t int, now uint64) (Action, error) {
	if s.Attached {
		if b.BlockOnConflict {
			return ActBlock, nil
		}
		return ActInvalid, ErrDoubleAttach
	}
	return ActRealAttach, nil
}

// Detach implements Policy.
func (b Basic) Detach(s *State, t int, now uint64) (Action, error) {
	if !s.Attached {
		return ActInvalid, ErrDetachUnattached
	}
	return ActRealDetach, nil
}

// Outermost is the Outermost semantics of Section IV-B: attach-detach
// pairs must nest perfectly; only the outermost pair is performed and all
// inner calls are silent. Its weakness — the actual attached time can be
// arbitrarily long — is demonstrated by the semantics tests.
type Outermost struct{}

// Name implements Policy.
func (Outermost) Name() string { return "outermost" }

// Attach implements Policy.
func (Outermost) Attach(s *State, t int, now uint64) (Action, error) {
	if s.Depth == 0 {
		return ActRealAttach, nil
	}
	return ActSilent, nil
}

// Detach implements Policy.
func (Outermost) Detach(s *State, t int, now uint64) (Action, error) {
	switch {
	case s.Depth == 0:
		return ActInvalid, ErrDetachUnattached
	case s.Depth == 1:
		return ActRealDetach, nil
	default:
		return ActSilent, nil
	}
}

// FCFS is the first-come first-serve semantics of Section IV-B: the
// outermost attach is performed, inner attaches are silent; the first
// detach after an attach is performed and later detaches are silent. (The
// automatic reattach on access is modeled by the runtime as a fresh
// outermost attach.) Its weakness is that benign and malicious accesses
// after the first detach are indistinguishable.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Attach implements Policy.
func (FCFS) Attach(s *State, t int, now uint64) (Action, error) {
	if s.Depth == 0 {
		return ActRealAttach, nil
	}
	return ActSilent, nil
}

// Detach implements Policy.
func (FCFS) Detach(s *State, t int, now uint64) (Action, error) {
	if s.Depth == 0 {
		return ActInvalid, ErrDetachUnattached
	}
	if !s.DetachDone {
		return ActRealDetach, nil
	}
	return ActSilent, nil
}

// EWConscious is the chosen semantics of Section IV-C. An attach is real
// iff the PMO is not attached, otherwise it lowers to a thread permission
// grant; a nested attach by a thread that already holds access is made
// silent (Figure 3: "valid=silent"), which is what lets well-formed
// functions and libraries compose. A detach is real iff (i) the time
// since the most recent real attach exceeds L and (ii) no other thread
// holds access; otherwise it lowers to a thread permission revoke (inner
// detaches of a nest are silent).
type EWConscious struct {
	// L is the predefined real-detach holdoff (a value near the target
	// exposure window size).
	L uint64
}

// Name implements Policy.
func (EWConscious) Name() string { return "ew-conscious" }

// Attach implements Policy.
func (e EWConscious) Attach(s *State, t int, now uint64) (Action, error) {
	if s.Holds(t) {
		// Nested pair within the thread: silence it.
		return ActSilent, nil
	}
	if !s.Attached {
		return ActRealAttach, nil
	}
	return ActThreadGrant, nil
}

// Detach implements Policy.
func (e EWConscious) Detach(s *State, t int, now uint64) (Action, error) {
	if !s.Holds(t) {
		return ActInvalid, ErrDetachUnattached
	}
	if s.threads[t].nest > 0 {
		// Inner detach of a nested pair: silence it.
		return ActSilent, nil
	}
	if now-s.LastRealAttach > e.L && !s.OtherHolders(t) {
		return ActRealDetach, nil
	}
	return ActThreadRevoke, nil
}

// CommitAttach applies the state transition for an executed attach action.
func CommitAttach(s *State, t int, now uint64, a Action) {
	switch a {
	case ActRealAttach:
		s.Attached = true
		s.LastRealAttach = now
		s.grant(t)
		s.Depth++
		s.DetachDone = false
	case ActThreadGrant:
		s.grant(t)
		s.Depth++
	case ActSilent:
		s.Depth++
		if s.Holds(t) {
			s.threads[t].nest++
		}
	}
}

// CommitDetach applies the state transition for an executed detach action.
func CommitDetach(s *State, t int, now uint64, a Action) {
	switch a {
	case ActRealDetach:
		s.Attached = false
		s.revoke(t)
		if s.Depth > 0 {
			s.Depth--
		}
		s.DetachDone = true
	case ActThreadRevoke:
		s.revoke(t)
		if s.Depth > 0 {
			s.Depth--
		}
	case ActSilent:
		if s.Depth > 0 {
			s.Depth--
		}
		if t < len(s.threads) && s.threads[t].nest > 0 {
			s.threads[t].nest--
		} else {
			s.DetachDone = true
		}
	}
}
