package core

import (
	"fmt"

	"repro/internal/obs"
)

// TraceKind classifies the protection events a runtime records.
type TraceKind int

// The protection events of one run.
const (
	// TraceRealAttach is a full attach system call.
	TraceRealAttach TraceKind = iota
	// TraceGrant is a conditional attach lowered to a thread grant.
	TraceGrant
	// TraceSilentNest is a nested attach/detach made silent.
	TraceSilentNest
	// TraceRealDetach is a full detach system call.
	TraceRealDetach
	// TraceRevoke is a conditional detach lowered to a thread revoke.
	TraceRevoke
	// TraceSelfDetach is a sweep-triggered detach (expired window).
	TraceSelfDetach
	// TraceRandomize is a space-layout randomization.
	TraceRandomize
	// TraceFault is a protection fault on an access.
	TraceFault
)

// String names the event kind.
func (k TraceKind) String() string {
	switch k {
	case TraceRealAttach:
		return "attach"
	case TraceGrant:
		return "grant"
	case TraceSilentNest:
		return "silent"
	case TraceRealDetach:
		return "detach"
	case TraceRevoke:
		return "revoke"
	case TraceSelfDetach:
		return "self-detach"
	case TraceRandomize:
		return "randomize"
	case TraceFault:
		return "FAULT"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// emit records one protection event as a CatCore instant on the acting
// thread's obs track, named by kind with the PMO ID as its arg (no-op
// unless EnableObs turned tracing on). The protection-event thread
// convention (-1 = hardware) matches obs.HWThread.
func (r *Runtime) emit(time uint64, thread int, pmoID uint32, kind TraceKind) {
	if r.obs != nil {
		r.obs.Track(thread).Instant(time, obs.CatCore, kind.String(), int64(pmoID))
	}
}
