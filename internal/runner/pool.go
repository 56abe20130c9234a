package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrPoolClosed is returned by Pool.Run when the pool has been (or is
// being) shut down.
var ErrPoolClosed = errors.New("runner: pool closed")

// Pool is a persistent worker set that executes cell jobs for many
// concurrent callers. Callers submit whole cell lists with Run, and the
// shared workers claim cells round-robin across every active job, so N
// concurrent jobs progress at cell granularity instead of head-of-line
// blocking each other. A grid computed on a shared pool is
// byte-identical to a serial run, because cells share no mutable state
// and results land at their enumeration index whatever order workers
// finish in.
type Pool struct {
	workers int
	cache   *ProgCache // compiled kernel programs for every job's Spec cells

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*poolJob // jobs with unclaimed cells or in-flight work
	rr     int        // round-robin cursor into jobs
	closed bool
	wg     sync.WaitGroup

	// Occupancy counters, atomically readable without p.mu (Stats).
	busy       atomic.Int64  // workers currently executing a cell
	activeJobs atomic.Int64  // jobs submitted and not yet retired
	queued     atomic.Int64  // cells submitted, not yet claimed
	inflight   atomic.Int64  // cells claimed, not yet recorded
	claimed    atomic.Uint64 // cells ever claimed (monotonic)
	completed  atomic.Uint64 // cells ever finished (monotonic)
}

// PoolStats is a point-in-time occupancy snapshot, readable lock-free
// while the pool runs (telemetry gauges, /v1/stats). Gauges may be
// momentarily inconsistent with each other under concurrent claims;
// the two *Cells totals are monotonic.
type PoolStats struct {
	Workers        int    `json:"workers"`
	BusyWorkers    int    `json:"busyWorkers"`
	ActiveJobs     int    `json:"activeJobs"`
	QueuedCells    int    `json:"queuedCells"`
	InFlightCells  int    `json:"inflightCells"`
	ClaimedCells   uint64 `json:"claimedCells"`
	CompletedCells uint64 `json:"completedCells"`
}

// Stats snapshots the pool's occupancy without taking the pool mutex,
// so scrapes never contend with the claim path.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:        p.workers,
		BusyWorkers:    int(p.busy.Load()),
		ActiveJobs:     int(p.activeJobs.Load()),
		QueuedCells:    int(p.queued.Load()),
		InFlightCells:  int(p.inflight.Load()),
		ClaimedCells:   p.claimed.Load(),
		CompletedCells: p.completed.Load(),
	}
}

// poolJob is one Run call's state, guarded by the pool mutex except
// where noted.
type poolJob struct {
	ctx      context.Context
	cells    []Cell
	ocfg     obs.Config
	progress Progress

	results  []CellResult
	next     int // next unclaimed cell index
	inflight int // cells claimed but not yet recorded
	canceled bool
	err      error // terminal error for canceled jobs

	finished chan struct{}
	closed   bool // finished already closed

	pmu  sync.Mutex // serializes progress callbacks
	done int        // completed-cell count for progress
}

// NewPool starts a pool of the given size; workers <= 0 selects
// GOMAXPROCS. Its Spec cells share DefaultCache. Callers own the pool
// and must Close it when done.
func NewPool(workers int) *Pool { return newPool(workers, DefaultCache) }

// newPool is NewPool with the program cache every job's Spec cells use;
// the package's tests pass a private one so each pool compiles cold.
func newPool(workers int, cache *ProgCache) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, cache: cache}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes every cell on the shared workers and blocks until the
// job completes or ctx is canceled. Results are in enumeration order
// (results[i] belongs to cells[i]); the returned error joins every cell
// error with errors.Join, and each cell's error also stays in its
// result. Cancelling ctx stops the job between cells and interrupts
// long-running whisper cells at operation granularity: Run stops
// claiming the job's remaining cells, waits for its in-flight cells to
// drain — so no pool goroutine touches the job's state after Run
// returns — and returns ctx.Err().
func (p *Pool) Run(ctx context.Context, cells []Cell, opt Options) ([]CellResult, error) {
	results := make([]CellResult, len(cells))
	if len(cells) == 0 {
		return results, ctx.Err()
	}
	j := &poolJob{
		ctx:      ctx,
		cells:    cells,
		ocfg:     opt.Obs,
		progress: opt.Progress,
		results:  results,
		finished: make(chan struct{}),
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	p.jobs = append(p.jobs, j)
	p.activeJobs.Add(1)
	p.queued.Add(int64(len(cells)))
	p.mu.Unlock()
	p.cond.Broadcast()

	select {
	case <-j.finished:
	case <-ctx.Done():
		p.mu.Lock()
		p.cancelLocked(j, ctx.Err())
		p.mu.Unlock()
		<-j.finished // in-flight cells drain before Run returns
	}

	if j.canceled {
		return nil, j.err
	}
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("runner %s: %w", r.Cell.Name(), r.Err))
		}
	}
	return results, errors.Join(errs...)
}

// cancelLocked marks a job terminal: no further cells are claimed, and
// finished closes as soon as nothing is in flight. Callers hold p.mu.
func (p *Pool) cancelLocked(j *poolJob, err error) {
	if j.canceled || j.closed {
		return
	}
	j.canceled = true
	j.err = err
	p.queued.Add(int64(j.next - len(j.cells))) // unclaimed cells leave the queue
	j.next = len(j.cells)                      // nothing more to claim
	if j.inflight == 0 {
		p.finishLocked(j)
	}
}

// finishLocked retires a job: removes it from the active list and
// closes its finished channel exactly once. Callers hold p.mu.
func (p *Pool) finishLocked(j *poolJob) {
	if j.closed {
		return
	}
	j.closed = true
	p.activeJobs.Add(-1)
	for i, other := range p.jobs {
		if other == j {
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
			break
		}
	}
	if p.rr >= len(p.jobs) {
		p.rr = 0
	}
	close(j.finished)
}

// claimLocked picks the next (job, cell) pair round-robin across active
// jobs. Callers hold p.mu.
func (p *Pool) claimLocked() (*poolJob, int, bool) {
	n := len(p.jobs)
	for k := 0; k < n; k++ {
		at := (p.rr + k) % n
		j := p.jobs[at]
		if j.next < len(j.cells) {
			i := j.next
			j.next++
			j.inflight++
			p.queued.Add(-1)
			p.inflight.Add(1)
			p.claimed.Add(1)
			p.rr = (at + 1) % n
			return j, i, true
		}
	}
	return nil, 0, false
}

// worker claims and runs cells until the pool closes.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		var (
			j  *poolJob
			i  int
			ok bool
		)
		for {
			if j, i, ok = p.claimLocked(); ok {
				break
			}
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
		}
		p.mu.Unlock()

		p.busy.Add(1)
		res, err := RunCellCtx(j.ctx, j.cells[i], p.cache, j.ocfg)
		res.Err = err
		p.busy.Add(-1)
		p.completed.Add(1)

		// Progress fires before the in-flight count drops: the job can
		// only reach its terminal state (and release Run) once every
		// callback has returned. A canceled job stops reporting — cells
		// aborted by its context are not completions.
		if j.progress != nil && j.ctx.Err() == nil {
			j.pmu.Lock()
			j.done++
			j.progress(j.done, len(j.cells), j.cells[i])
			j.pmu.Unlock()
		}

		p.mu.Lock()
		j.results[i] = res
		j.inflight--
		p.inflight.Add(-1)
		if j.next >= len(j.cells) && j.inflight == 0 {
			p.finishLocked(j)
		}
		p.mu.Unlock()
	}
}

// Close shuts the pool down: jobs still queued are canceled with
// ErrPoolClosed, in-flight cells run to completion, and Close returns
// once every worker has exited. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, j := range append([]*poolJob(nil), p.jobs...) {
		p.cancelLocked(j, ErrPoolClosed)
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
