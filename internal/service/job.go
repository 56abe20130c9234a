// Package service is the multi-tenant simulation service behind
// cmd/terpd: a job scheduler that executes terp.ExperimentSpec jobs for
// many concurrent tenants on one shared runner.Pool, an LRU-bounded
// store of finished results, and the HTTP/JSON API that exposes both.
//
// The scheduling contract is fairness at cell granularity: every tenant
// has a FIFO queue of jobs with at most one job active at a time, the
// active jobs share the pool's workers round-robin (runner.Pool claims
// cells across jobs in rotation), and a tenant whose queue is full is
// refused at admission (HTTP 429) instead of degrading everyone else.
// Results are byte-identical to offline terp.Run output for the same
// spec — scheduling never leaks into grids.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime/pprof"
	"sync"
	"time"

	terp "repro"
)

// State is a job's lifecycle phase.
type State string

// Job states. Queued and Running are live; the rest are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one progress notification on a job's event stream. The
// terminal event repeats the final state and, for failures, the error.
type Event struct {
	Job   string `json:"job"`
	State State  `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Cell  string `json:"cell,omitempty"`
	Error string `json:"error,omitempty"`
}

// Status is a job's externally visible snapshot (the GET /v1/jobs/{id}
// body).
type Status struct {
	ID         string `json:"id"`
	Tenant     string `json:"tenant"`
	Experiment string `json:"experiment"`
	State      State  `json:"state"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Error      string `json:"error,omitempty"`
}

// Job is one submitted experiment: its spec, execution state, progress
// stream and (once finished) its result payloads.
type Job struct {
	// Immutable after creation.
	ID     string
	Tenant string
	Spec   terp.ExperimentSpec
	Total  int // enumerated cell count

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	done     int
	lastCell string
	errMsg   string
	grid     *terp.Grid
	gridJSON []byte
	etag     string // lazy content hash of gridJSON
	subs     []chan Event

	// Wall-clock lifecycle instants (host telemetry + the wall-clock
	// Perfetto track). submittedAt is immutable; startedAt/finishedAt
	// are zero until the phase is reached. They never influence
	// execution — grids stay byte-identical whatever the clock says.
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
}

// subBuffer is each subscriber channel's capacity; a subscriber that
// falls further behind misses intermediate progress events (terminal
// events are never dropped — the channel drains before close).
const subBuffer = 64

// newJob builds a queued job. Its context carries the pprof labels job
// and tenant, which every cell of the job adds its own to.
func newJob(id, tenant string, spec terp.ExperimentSpec, total int) *Job {
	labeled := pprof.WithLabels(context.Background(), pprof.Labels("job", id, "tenant", tenant))
	ctx, cancel := context.WithCancel(labeled)
	return &Job{
		ID: id, Tenant: tenant, Spec: spec, Total: total,
		ctx: ctx, cancel: cancel, state: StateQueued,
		submittedAt: time.Now(),
	}
}

// WallTimes returns the job's wall-clock lifecycle instants; started
// and finished are zero for phases not yet reached.
func (j *Job) WallTimes() (submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submittedAt, j.startedAt, j.finishedAt
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, Tenant: j.Tenant, Experiment: j.Spec.Name,
		State: j.state, Done: j.done, Total: j.Total, Error: j.errMsg,
	}
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Grid returns the finished grid and its canonical JSON encoding (nil
// until the job reaches StateDone).
func (j *Job) Grid() (*terp.Grid, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.grid, j.gridJSON
}

// GridETag returns the strong entity tag of the finished grid's
// canonical JSON — a quoted content hash, so equal grids share a tag
// across jobs and server restarts. Empty until the job reaches
// StateDone.
func (j *Job) GridETag() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.etag == "" && len(j.gridJSON) > 0 {
		sum := sha256.Sum256(j.gridJSON)
		j.etag = `"` + hex.EncodeToString(sum[:16]) + `"`
	}
	return j.etag
}

// Subscribe attaches a progress listener: the returned channel first
// receives a snapshot of the current state, then live events, and is
// closed after the terminal event. cancel detaches early.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, subBuffer)
	j.mu.Lock()
	ch <- j.eventLocked()
	if j.state.Terminal() {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		for i, s := range j.subs {
			if s == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
	return ch, cancel
}

// eventLocked builds the current event snapshot; j.mu held.
func (j *Job) eventLocked() Event {
	return Event{
		Job: j.ID, State: j.state, Done: j.done, Total: j.Total,
		Cell: j.lastCell, Error: j.errMsg,
	}
}

// broadcastLocked fans the current snapshot out to subscribers,
// dropping progress events a slow subscriber has no room for; j.mu
// held.
func (j *Job) broadcastLocked() {
	ev := j.eventLocked()
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// setState transitions the job and notifies subscribers; entering
// StateRunning stamps the wall-clock start.
func (j *Job) setState(s State) {
	j.mu.Lock()
	j.state = s
	if s == StateRunning && j.startedAt.IsZero() {
		j.startedAt = time.Now()
	}
	j.broadcastLocked()
	j.mu.Unlock()
}

// progress records one completed cell (wired to spec.Progress).
func (j *Job) progress(done, total int, cell string) {
	j.mu.Lock()
	j.done, j.lastCell = done, cell
	if total > j.Total {
		// Defensive: the runner's total is authoritative.
		j.Total = total
	}
	j.broadcastLocked()
	j.mu.Unlock()
}

// finish records the job's outcome, finished at the wall-clock instant
// at, emits the terminal event and closes every subscriber channel. Sends
// never block (a stalled subscriber must not wedge the scheduler); the
// channel close itself signals termination, and readers re-fetch Status
// after it for the final state.
func (j *Job) finish(grid *terp.Grid, gridJSON []byte, state State, errMsg string, at time.Time) {
	j.mu.Lock()
	j.grid, j.gridJSON = grid, gridJSON
	j.state, j.errMsg = state, errMsg
	j.finishedAt = at
	if state == StateDone {
		j.done = j.Total
	}
	ev := j.eventLocked()
	subs := j.subs
	j.subs = nil
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
	j.cancel() // release the context's resources
}
