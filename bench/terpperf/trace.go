package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Trace lanes: the Perfetto thread each span is drawn on.
const (
	laneWorkload = 0 // batch repetitions and offline reference runs
	laneDrivers  = 9 // layer drivers
	// Tenant t of the serve workload draws on lane laneTenant+t.
	laneTenant = 1
)

// span is one wall-clock interval around a benchmark-side call into a
// layer. Spans of one grid repetition or one served job share Job.
type span struct {
	Name       string
	Job        string
	Lane       int
	ID, Parent uint64
	Start, End time.Duration // since the tracer's origin
	ended      bool
}

// tracer keeps spans in memory and writes them at exit as Chrome-trace
// complete events. A nil *tracer records nothing: untraced repetitions
// run with nil, so the tracing code costs them one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span now and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, job string, lane int, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Job: job, Lane: lane, ID: id, Parent: parent, Start: now})
	return id
}

// end closes the span begun as id.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].ended = true
}

// record adds a finished span whose bounds were measured elsewhere: cell
// intervals between progress callbacks, or a served job's queue and run
// phases from the server's own timestamps.
func (t *tracer) record(name, job string, lane int, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		Name: name, Job: job, Lane: lane, ID: id, Parent: parent,
		Start: start.Sub(t.origin), End: end.Sub(t.origin), ended: true,
	})
	return id
}

// chromeEvent is one Chrome trace-event-format record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as an "X" event carrying its id, parent
// and job id, plus lane names, in the JSON object form Perfetto loads.
// It fails if any span was begun and never ended.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var events []chromeEvent
	for _, s := range t.spans {
		if !s.ended {
			return fmt.Errorf("trace: span %d (%s) was never ended", s.ID, s.Name)
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	lanes := []string{laneWorkload: "workload", laneDrivers: "layer drivers"}
	for t := 0; t < tenants; t++ {
		lanes[laneTenant+t] = fmt.Sprintf("tenant %d", t)
	}
	for lane, name := range lanes {
		if name != "" {
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
				Args: map[string]any{"name": name},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
