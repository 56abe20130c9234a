package service

import (
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	terp "repro"
	"repro/internal/ledger"
	"repro/internal/runner"
)

// Admission and lookup errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submission whose tenant queue is at depth
	// (HTTP 429).
	ErrQueueFull = errors.New("service: tenant queue full")
	// ErrClosed rejects work on a shut-down scheduler (HTTP 503).
	ErrClosed = errors.New("service: scheduler closed")
	// ErrNotFound reports an unknown (or evicted) job ID (HTTP 404).
	ErrNotFound = errors.New("service: no such job")
	// ErrTerminal rejects cancelling an already-finished job (HTTP 409).
	ErrTerminal = errors.New("service: job already finished")
)

// Counters are the scheduler's monotonic totals (the /v1/stats body),
// read from the service's telemetry counters.
type Counters struct {
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
}

// Scheduler owns the tenant queues and drives jobs through the shared
// runner pool: per-tenant FIFO order, at most one active job per
// tenant, bounded queue depth, and cancellation of queued or running
// jobs. Fairness across tenants falls out of the pool — each tenant's
// active job is one round-robin participant, so k tenants each get
// ~1/k of the workers at cell granularity regardless of job sizes.
type Scheduler struct {
	pool       *runner.Pool
	queueDepth int
	metrics    *Metrics
	led        *ledger.Ledger // run-record sink; nil disables

	mu      sync.Mutex
	tenants map[string]*tenant
	active  map[string]*Job // queued + running jobs by ID
	nextID  uint64
	closed  bool
	wg      sync.WaitGroup

	store *Store
}

// tenant is one client's FIFO queue plus its single running job.
type tenant struct {
	queue   []*Job // waiting, FIFO
	running *Job
}

// NewScheduler builds a scheduler over its own pool of the given size
// (workers <= 0 selects GOMAXPROCS). queueDepth bounds each tenant's
// queued+running jobs; depth <= 0 selects DefaultQueueDepth. Finished
// jobs move into store. Host telemetry lands in m (nil builds a fresh
// metric set), whose pool series are bound here. led, when non-nil,
// receives one run record per job that reaches StateDone — an
// observe-only sink that never influences scheduling or results.
func NewScheduler(workers, queueDepth int, store *Store, m *Metrics, led *ledger.Ledger) *Scheduler {
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	if m == nil {
		m = NewMetrics()
	}
	s := &Scheduler{
		pool:       runner.NewPool(workers),
		queueDepth: queueDepth,
		metrics:    m,
		led:        led,
		tenants:    make(map[string]*tenant),
		active:     make(map[string]*Job),
		store:      store,
	}
	m.bindPool(s.pool)
	m.bindScheduler(s)
	return s
}

// depthLocked refreshes the tenant's queue-depth gauge; s.mu held.
func (s *Scheduler) depthLocked(name string, t *tenant) {
	depth := len(t.queue)
	if t.running != nil {
		depth++
	}
	s.metrics.queueDepth.With(name).Set(int64(depth))
}

// DefaultQueueDepth is the per-tenant admission bound when the
// configuration does not set one.
const DefaultQueueDepth = 16

// Pool exposes the shared worker pool (tests and stats).
func (s *Scheduler) Pool() *runner.Pool { return s.pool }

// Submit validates and enqueues a job for the tenant, starting it
// immediately when the tenant is idle. It returns ErrQueueFull when
// the tenant already has queueDepth jobs queued or running.
func (s *Scheduler) Submit(tenantName string, spec terp.ExperimentSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	t := s.tenants[tenantName]
	if t == nil {
		t = &tenant{}
		s.tenants[tenantName] = t
	}
	depth := len(t.queue)
	if t.running != nil {
		depth++
	}
	if depth >= s.queueDepth {
		s.metrics.rejected.Inc()
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q has %d job(s) pending (depth %d)",
			ErrQueueFull, tenantName, depth, s.queueDepth)
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j%06d", s.nextID), tenantName, spec, len(cells))
	s.active[j.ID] = j
	t.queue = append(t.queue, j)
	s.metrics.submitted.Inc()
	s.startNextLocked(t)
	s.depthLocked(tenantName, t)
	s.mu.Unlock()
	return j, nil
}

// startNextLocked promotes the tenant's queue head to running when the
// tenant is idle; s.mu held.
func (s *Scheduler) startNextLocked(t *tenant) {
	if s.closed || t.running != nil || len(t.queue) == 0 {
		return
	}
	j := t.queue[0]
	t.queue = t.queue[1:]
	t.running = j
	j.setState(StateRunning)
	s.metrics.queueWait.ObserveSince(j.submittedAt)
	s.wg.Add(1)
	go s.run(t, j)
}

// run executes one job on the shared pool and retires it, under the
// job's pprof labels.
func (s *Scheduler) run(t *tenant, j *Job) {
	defer s.wg.Done()
	pprof.SetGoroutineLabels(j.ctx)
	spec := j.Spec
	spec.Progress = j.progress
	grid, err := terp.RunOn(j.ctx, s.pool, spec)

	var (
		state    State
		errMsg   string
		gridJSON []byte
	)
	switch {
	case err == nil:
		if gridJSON, err = grid.JSON(); err == nil {
			state = StateDone
		} else {
			state, errMsg, grid = StateFailed, err.Error(), nil
		}
	case j.ctx.Err() != nil:
		state, errMsg, grid = StateCanceled, j.ctx.Err().Error(), nil
	default:
		state, errMsg, grid = StateFailed, err.Error(), nil
	}
	at := time.Now()
	var runDur time.Duration
	if _, started, _ := j.WallTimes(); !started.IsZero() {
		runDur = at.Sub(started)
	}

	// The job is counted before finish publishes its terminal state, so
	// the counters already include every job a client has seen finish.
	s.mu.Lock()
	s.metrics.jobFinished(j, state, runDur)
	j.finish(grid, gridJSON, state, errMsg, at)
	delete(s.active, j.ID)
	s.store.Put(j)
	t.running = nil
	s.startNextLocked(t)
	s.depthLocked(j.Tenant, t)
	s.mu.Unlock()

	// Ledger append happens outside the scheduler lock: file IO must
	// not stall admission, and a failed append only bumps a counter —
	// the job's result is already served from memory.
	if state == StateDone && s.led != nil {
		rec := ledger.FromGrid("terpd", j.Spec, grid)
		rec.JobID, rec.Tenant = j.ID, j.Tenant
		rec.WallMS = runDur.Seconds() * 1e3
		if err := s.led.Append(rec); err != nil {
			s.metrics.ledgerErrors.Inc()
		} else {
			s.metrics.ledgerRecords.Inc()
		}
	}
}

// Lookup finds a job by ID among live jobs and stored results.
func (s *Scheduler) Lookup(id string) (*Job, error) {
	s.mu.Lock()
	j := s.active[id]
	s.mu.Unlock()
	if j != nil {
		return j, nil
	}
	if j := s.store.Get(id); j != nil {
		return j, nil
	}
	return nil, fmt.Errorf("%w: %q (finished results are retained for the most recent %d jobs)",
		ErrNotFound, id, s.store.Cap())
}

// Cancel stops a job: a queued job is retired immediately, a running
// one has its context cancelled and retires when its in-flight cells
// drain. Cancelling a finished job returns ErrTerminal.
func (s *Scheduler) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	j := s.active[id]
	if j == nil {
		s.mu.Unlock()
		if j := s.store.Get(id); j != nil {
			return j, ErrTerminal
		}
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	t := s.tenants[j.Tenant]
	for i, q := range t.queue {
		if q == j {
			// Still queued: retire in place, no runner involvement.
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			delete(s.active, id)
			s.metrics.jobFinished(j, StateCanceled, 0)
			s.depthLocked(j.Tenant, t)
			s.mu.Unlock()
			j.finish(nil, nil, StateCanceled, "canceled before start", time.Now())
			s.store.Put(j)
			return j, nil
		}
	}
	s.mu.Unlock()
	// Running: cancel the context; run() observes it and retires the job.
	j.cancel()
	return j, nil
}

// Stats snapshots the scheduler's counters and queue occupancy.
func (s *Scheduler) Stats() (Counters, int, int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	queued, running := 0, 0
	for _, t := range s.tenants {
		queued += len(t.queue)
		if t.running != nil {
			running++
		}
	}
	return s.metrics.counters(), queued, running, len(s.tenants)
}

// Close cancels every live job, waits for the runners to drain, and
// shuts the pool down. Submissions after Close fail with ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var queued, running []*Job
	for name, t := range s.tenants {
		queued = append(queued, t.queue...)
		t.queue = nil
		if t.running != nil {
			running = append(running, t.running)
		}
		s.depthLocked(name, t)
	}
	for _, j := range queued {
		delete(s.active, j.ID)
		s.metrics.jobFinished(j, StateCanceled, 0)
	}
	s.mu.Unlock()

	for _, j := range queued {
		j.finish(nil, nil, StateCanceled, "server shutting down", time.Now())
		s.store.Put(j)
	}
	for _, j := range running {
		j.cancel()
	}
	s.wg.Wait()
	s.pool.Close()
}
