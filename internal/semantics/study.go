package semantics

import "fmt"

// This file makes the semantics-space exploration of Section IV
// executable: the same access trace is replayed under each of the four
// attach/detach semantics, and the study reports what each semantics
// costs in errors, exposure and lost accesses. It quantifies the paper's
// qualitative claims — Basic breaks on nesting and concurrency,
// Outermost's windows grow without bound, FCFS cannot tell benign late
// accesses from attacks, and EW-conscious is the only one that is both
// composable and bounded.

// EventKind discriminates trace events.
type EventKind int

// Trace events.
const (
	// EvAttach is an attach call.
	EvAttach EventKind = iota
	// EvDetach is a detach call.
	EvDetach
	// EvAccess is a PMO access (load or store).
	EvAccess
)

// Event is one step of a study trace (all on a single PMO).
type Event struct {
	// Time is the event's simulated time in cycles.
	Time uint64
	// Thread is the calling thread.
	Thread int
	// Kind is the event type.
	Kind EventKind
}

// StudyResult is what one semantics did with a trace.
type StudyResult struct {
	// Policy names the semantics.
	Policy string
	// Errors counts attach/detach calls the semantics rejected.
	Errors int
	// RealOps counts attaches/detaches actually performed (cost).
	RealOps int
	// Lowered counts calls lowered to thread permission changes.
	Lowered int
	// Silent counts calls that were made silent (no effect).
	Silent int
	// DeniedAccesses counts accesses that found the PMO inaccessible
	// for the accessing thread.
	DeniedAccesses int
	// EWCount, AvgEW, MaxEW summarize the process-level exposure
	// windows produced (cycles).
	EWCount      int
	AvgEW, MaxEW float64
}

// RunStudy replays a trace under the policy and collects the outcome.
// Rejected calls are counted and skipped (the program would have crashed
// or misbehaved; the study keeps going to count everything).
func RunStudy(p Policy, trace []Event) StudyResult {
	res := StudyResult{Policy: p.Name()}
	st := &State{}
	var openAt uint64
	open := false

	closeEW := func(now uint64) {
		if !open {
			return
		}
		d := now - openAt
		res.EWCount++
		res.AvgEW += float64(d)
		if float64(d) > res.MaxEW {
			res.MaxEW = float64(d)
		}
		open = false
	}

	for _, ev := range trace {
		switch ev.Kind {
		case EvAttach:
			act, err := p.Attach(st, ev.Thread, ev.Time)
			if err != nil {
				res.Errors++
				continue
			}
			switch act {
			case ActRealAttach:
				res.RealOps++
				if !open {
					open = true
					openAt = ev.Time
				}
			case ActThreadGrant:
				res.Lowered++
			case ActSilent:
				res.Silent++
			case ActBlock:
				// The study replays fixed traces; a blocked
				// attach is recorded as an error (the thread
				// could not proceed at this time).
				res.Errors++
				continue
			}
			CommitAttach(st, ev.Thread, ev.Time, act)
		case EvDetach:
			act, err := p.Detach(st, ev.Thread, ev.Time)
			if err != nil {
				res.Errors++
				continue
			}
			switch act {
			case ActRealDetach:
				res.RealOps++
				closeEW(ev.Time)
			case ActThreadRevoke:
				res.Lowered++
			case ActSilent:
				res.Silent++
			}
			CommitDetach(st, ev.Thread, ev.Time, act)
		case EvAccess:
			if !accessible(p, st, ev.Thread) {
				res.DeniedAccesses++
			}
		}
	}
	if last := trace[len(trace)-1].Time; open {
		closeEW(last)
	}
	if res.EWCount > 0 {
		res.AvgEW /= float64(res.EWCount)
	}
	return res
}

// accessible decides whether thread t can touch the PMO under the policy.
func accessible(p Policy, st *State, t int) bool {
	if _, ok := p.(EWConscious); ok {
		return st.Attached && st.Holds(t)
	}
	return st.Attached
}

// String renders the result row.
func (r StudyResult) String() string {
	return fmt.Sprintf("%-12s errors=%d real=%d lowered=%d silent=%d denied=%d EW avg/max=%.0f/%.0f",
		r.Policy, r.Errors, r.RealOps, r.Lowered, r.Silent, r.DeniedAccesses, r.AvgEW, r.MaxEW)
}

// AllPolicies returns the four semantics of Section IV with the given
// EW-conscious holdoff L.
func AllPolicies(l uint64) []Policy {
	return []Policy{Basic{}, Outermost{}, FCFS{}, EWConscious{L: l}}
}

// NestedTrace generates the Figure 3 situation: a thread performs an
// attach-access-detach, then calls a library function that itself
// brackets its accesses, `depth` levels deep, repeated `rounds` times.
// gap is the time between consecutive events.
func NestedTrace(rounds, depth int, gap uint64) []Event {
	var tr []Event
	now := uint64(0)
	emit := func(k EventKind) {
		tr = append(tr, Event{Time: now, Thread: 0, Kind: k})
		now += gap
	}
	var nest func(d int)
	nest = func(d int) {
		emit(EvAttach)
		emit(EvAccess)
		if d > 0 {
			nest(d - 1)
		}
		emit(EvAccess)
		emit(EvDetach)
	}
	for r := 0; r < rounds; r++ {
		nest(depth)
		now += 10 * gap // inter-round computation
	}
	return tr
}

// ParallelTrace generates the Figure 4 situation: threads whose
// attach-detach windows overlap in time, each well-formed on its own.
func ParallelTrace(threads, rounds int, gap uint64) []Event {
	var tr []Event
	now := uint64(0)
	for r := 0; r < rounds; r++ {
		// Staggered attaches, then accesses, then staggered detaches.
		for t := 0; t < threads; t++ {
			tr = append(tr, Event{Time: now, Thread: t, Kind: EvAttach})
			now += gap
		}
		for t := 0; t < threads; t++ {
			tr = append(tr, Event{Time: now, Thread: t, Kind: EvAccess})
			now += gap
		}
		for t := 0; t < threads; t++ {
			tr = append(tr, Event{Time: now, Thread: t, Kind: EvDetach})
			now += gap
		}
		now += 10 * gap
	}
	return tr
}
