// Package obs is the deterministic tracing and metrics layer of the
// repository: a near-zero-cost-when-disabled event recorder plus a
// registry of named counters and histograms, threaded through the whole
// simulation stack (sim, terphw, merr, paging, nvm, expo, core).
//
// Determinism contract: every event is keyed by the *simulated* cycle
// clock, never wall time, and every cell of an experiment owns its own
// Recorder, so traces and metrics are byte-identical across `-parallel`
// levels and across hosts. Within one cell the cooperative scheduler
// serializes all simulated threads, so the recorder needs no locks; the
// per-thread sequence number preserves intra-thread order when events
// from different threads share a cycle.
//
// Disabled-path cost: components hold a possibly-nil *Track and call its
// emit methods unconditionally — a nil receiver returns immediately, so
// a disabled run pays one nil check per event site and allocates nothing.
package obs

import (
	"fmt"
	"sort"
)

// HWThread is the pseudo-thread ID used for hardware-initiated events
// (timer sweeps, process-wide window transitions, permission matrix).
const HWThread = -1

// Type classifies an event's role in the trace.
type Type uint8

// Event types. Span events (Begin/End) must nest per thread; async spans
// (AsyncBegin/AsyncEnd) may overlap and are paired by Arg.
const (
	// Begin opens a synchronous span on the emitting thread's track.
	Begin Type = iota
	// End closes the most recent open synchronous span.
	End
	// AsyncBegin opens an overlappable span paired by Arg.
	AsyncBegin
	// AsyncEnd closes the async span with the same Name and Arg.
	AsyncEnd
	// Instant is a point event.
	Instant
)

// String names the event type.
func (t Type) String() string {
	switch t {
	case Begin:
		return "begin"
	case End:
		return "end"
	case AsyncBegin:
		return "async-begin"
	case AsyncEnd:
		return "async-end"
	case Instant:
		return "instant"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Cat names the component an event came from.
type Cat uint8

// Event categories, one per instrumented component.
const (
	// CatSim is the scheduler/clock substrate (thread switches).
	CatSim Cat = iota
	// CatHW is the TERP circular buffer (conditional ops, sweeps).
	CatHW
	// CatMERR is the permission matrix (denials).
	CatMERR
	// CatPaging is the TLB/page-walk layer.
	CatPaging
	// CatNVM is the persist buffer (flush/fence/drain).
	CatNVM
	// CatExpo is the exposure tracker (EW/TEW windows).
	CatExpo
	// CatCore is the runtime's attach/detach state machine.
	CatCore
	// CatAttack is the security-analysis layer (dead-time samples, probe
	// attempts and hits).
	CatAttack
)

// String names the category.
func (c Cat) String() string {
	switch c {
	case CatSim:
		return "sim"
	case CatHW:
		return "terphw"
	case CatMERR:
		return "merr"
	case CatPaging:
		return "paging"
	case CatNVM:
		return "nvm"
	case CatExpo:
		return "expo"
	case CatCore:
		return "core"
	case CatAttack:
		return "attack"
	}
	return fmt.Sprintf("cat(%d)", int(c))
}

// Event is one recorded trace event.
type Event struct {
	// TS is the event time in simulated cycles.
	TS uint64 `json:"ts"`
	// Thread is the emitting simulated thread (HWThread for hardware).
	Thread int `json:"thread"`
	// Seq is the event's ordinal within its thread's stream; it breaks
	// ties deterministically when events share a cycle.
	Seq uint64 `json:"seq"`
	// Type is the event role (span begin/end, async pair, instant).
	Type Type `json:"type"`
	// Cat is the emitting component.
	Cat Cat `json:"cat"`
	// Name labels the event; Names must be stable across runs.
	Name string `json:"name"`
	// Arg carries the event detail (PMO ID, case, occupancy); async
	// spans are paired by it.
	Arg int64 `json:"arg"`
}

// String renders the event as a timeline line (cycles, not wall time).
func (e Event) String() string {
	th := fmt.Sprintf("t%d", e.Thread)
	if e.Thread == HWThread {
		th = "hw"
	}
	return fmt.Sprintf("%12d %-3s %-7s %-12s %-12s %d",
		e.TS, th, e.Cat, e.Type, e.Name, e.Arg)
}

// Config selects what a run records. The JSON tags are part of the
// experiment-spec wire format (it embeds a Config), so renaming them is
// a wire-version bump.
type Config struct {
	// Trace enables the event recorder.
	Trace bool `json:"trace,omitempty"`
	// Metrics enables counter/histogram collection.
	Metrics bool `json:"metrics,omitempty"`
	// TraceCap bounds the retained events per thread track (a ring of
	// the most recent events); 0 selects DefaultTraceCap.
	TraceCap int `json:"traceCap,omitempty"`
}

// Enabled reports whether any collection is on.
func (c Config) Enabled() bool { return c.Trace || c.Metrics }

// DefaultTraceCap is the default per-thread ring capacity.
const DefaultTraceCap = 1 << 16

// Track is one thread's (or the hardware's) bounded event stream. All
// emit methods are safe on a nil receiver, which is the disabled path.
type Track struct {
	thread  int
	cap     int
	ring    []Event
	next    int
	seq     uint64
	total   uint64
	dropped uint64
}

// Span records a complete synchronous span [from, to].
func (t *Track) Span(from, to uint64, cat Cat, name string, arg int64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: from, Type: Begin, Cat: cat, Name: name, Arg: arg})
	t.emit(Event{TS: to, Type: End, Cat: cat, Name: name, Arg: arg})
}

// AsyncBegin opens an overlappable span paired by arg.
func (t *Track) AsyncBegin(ts uint64, cat Cat, name string, arg int64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: ts, Type: AsyncBegin, Cat: cat, Name: name, Arg: arg})
}

// AsyncEnd closes the async span opened with the same name and arg.
func (t *Track) AsyncEnd(ts uint64, cat Cat, name string, arg int64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: ts, Type: AsyncEnd, Cat: cat, Name: name, Arg: arg})
}

// Instant records a point event.
func (t *Track) Instant(ts uint64, cat Cat, name string, arg int64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: ts, Type: Instant, Cat: cat, Name: name, Arg: arg})
}

func (t *Track) emit(e Event) {
	e.Thread = t.thread
	e.Seq = t.seq
	t.seq++
	t.total++
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, e)
		t.next = len(t.ring) % t.cap
		return
	}
	// Ring overflow: the oldest event is overwritten. The loss is
	// accounted, never silent — Recorder.Dropped feeds the metrics
	// snapshot ("obs/dropped") and the report flags affected cells.
	t.dropped++
	t.ring[t.next] = e
	t.next = (t.next + 1) % t.cap
}

// events returns the retained events in emit order.
func (t *Track) events() []Event {
	out := make([]Event, 0, len(t.ring))
	if len(t.ring) == t.cap {
		out = append(out, t.ring[t.next:]...)
	} else {
		return append(out, t.ring[:t.next]...)
	}
	return append(out, t.ring[:t.next]...)
}

// Recorder owns the per-thread tracks of one simulation cell.
type Recorder struct {
	cap    int
	tracks map[int]*Track
	order  []int // track creation order (deterministic under the sim)
}

// NewRecorder creates a recorder with the given per-thread ring capacity
// (0 selects DefaultTraceCap).
func NewRecorder(traceCap int) *Recorder {
	if traceCap <= 0 {
		traceCap = DefaultTraceCap
	}
	return &Recorder{cap: traceCap, tracks: make(map[int]*Track)}
}

// Track returns the track for a simulated thread ID (HWThread for
// hardware events), creating it on first use. A nil recorder returns a
// nil track, whose emit methods are no-ops.
func (r *Recorder) Track(thread int) *Track {
	if r == nil {
		return nil
	}
	t := r.tracks[thread]
	if t == nil {
		t = &Track{thread: thread, cap: r.cap}
		r.tracks[thread] = t
		r.order = append(r.order, thread)
	}
	return t
}

// Total returns the number of events observed across all tracks.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for _, t := range r.tracks {
		n += t.total
	}
	return n
}

// Dropped returns how many events fell out of the rings.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for _, t := range r.tracks {
		n += t.dropped
	}
	return n
}

// Events returns every retained event merged into one deterministic
// stream: ordered by cycle, then thread ID (hardware first), then the
// per-thread sequence number.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, id := range sortedInts(r.order) {
		out = append(out, r.tracks[id].events()...)
	}
	sortEvents(out)
	return out
}

func sortedInts(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	return out
}

// sortEvents orders by (TS, Thread, Seq).
func sortEvents(ev []Event) {
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].TS != ev[j].TS {
			return ev[i].TS < ev[j].TS
		}
		if ev[i].Thread != ev[j].Thread {
			return ev[i].Thread < ev[j].Thread
		}
		return ev[i].Seq < ev[j].Seq
	})
}
