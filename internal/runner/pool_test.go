package runner

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/params"
)

// TestPoolMatchesExecute: a grid run on a shared pool is identical —
// results and order — to a one-worker batch.
func TestPoolMatchesExecute(t *testing.T) {
	cells := smallCells(3)
	want, err := runBatch(1, cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(4, NewProgCache())
	defer p.Close()
	got, err := p.Run(context.Background(), cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if got[i].Result != want[i].Result {
			t.Fatalf("cell %d (%s): pool result differs from the one-worker batch", i, cells[i].Name())
		}
	}
}

// TestPoolConcurrentJobsIdentical: many concurrent jobs on one pool
// each produce the same results as their serial run — cross-job
// interleaving never leaks into cells.
func TestPoolConcurrentJobsIdentical(t *testing.T) {
	p := newPool(4, NewProgCache())
	defer p.Close()
	const jobs = 6
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for j := 0; j < jobs; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells := smallCells(int64(j + 1))
			want, err := runBatch(1, cells, Options{})
			if err != nil {
				errs[j] = err
				return
			}
			got, err := p.Run(context.Background(), cells, Options{})
			if err != nil {
				errs[j] = err
				return
			}
			for i := range cells {
				if got[i].Result != want[i].Result {
					errs[j] = errors.New("pool result differs from serial for " + cells[i].Name())
					return
				}
			}
		}()
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", j, err)
		}
	}
}

// TestPoolCancelMidGrid: cancelling a running job returns
// context.Canceled, skips unclaimed cells, and leaves no pool
// goroutines stuck (the pool drains and closes cleanly under -race).
func TestPoolCancelMidGrid(t *testing.T) {
	before := runtime.NumGoroutine()
	p := newPool(2, NewProgCache())

	// A long grid: enough sizable cells that cancellation lands mid-run.
	var cells []Cell
	for i := 0; i < 64; i++ {
		cells = append(cells, Cell{
			Exp: "t", Kind: Whisper, Workload: "echo", Scheme: params.TT,
			EWMicros: 40, Seed: int64(i + 1), Ops: 20_000,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	fired := make(chan struct{})
	opt := Options{Progress: func(done, total int, last Cell) {
		if done == 2 {
			close(fired)
		}
	}}
	go func() {
		<-fired
		cancel()
	}()
	res, err := p.Run(ctx, cells, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled Run returned results")
	}

	// The pool stays usable after a cancelled job.
	short := smallCells(1)[:2]
	if _, err := p.Run(context.Background(), short, Options{}); err != nil {
		t.Fatalf("Run after cancel: %v", err)
	}
	p.Close()

	// All workers exited: allow the runtime a moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("goroutines after Close = %d, want <= %d (pool leak?)", n, before+1)
	}
}

// TestPoolCloseCancelsQueued: closing a pool with an unfinished job
// fails that job with ErrPoolClosed rather than hanging its caller.
func TestPoolCloseCancelsQueued(t *testing.T) {
	p := newPool(1, NewProgCache())
	var cells []Cell
	for i := 0; i < 32; i++ {
		cells = append(cells, Cell{
			Exp: "t", Kind: Whisper, Workload: "echo", Scheme: params.TT,
			EWMicros: 40, Seed: int64(i + 1), Ops: 20_000,
		})
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(context.Background(), cells, Options{
			Progress: func(d, _ int, _ Cell) {
				if d == 1 {
					close(started)
				}
			},
		})
		done <- err
	}()
	<-started
	p.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("Run error after Close = %v, want ErrPoolClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Close")
	}
	if _, err := p.Run(context.Background(), cells[:1], Options{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Run on closed pool = %v, want ErrPoolClosed", err)
	}
}

// TestPoolStats: the lock-free snapshot settles to zero occupancy after
// runs complete, with claimed == completed == cells executed, and stays
// consistent when sampled while a job is live (run under -race).
func TestPoolStats(t *testing.T) {
	p := newPool(3, NewProgCache())
	defer p.Close()

	if s := p.Stats(); s.Workers != 3 || s.BusyWorkers != 0 || s.ActiveJobs != 0 ||
		s.QueuedCells != 0 || s.InFlightCells != 0 || s.ClaimedCells != 0 || s.CompletedCells != 0 {
		t.Fatalf("idle pool stats = %+v, want all-zero occupancy", s)
	}

	cells := smallCells(7)
	stop := make(chan struct{})
	go func() { // concurrent sampler: invariants must hold mid-run too
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := p.Stats()
			if s.BusyWorkers < 0 || s.BusyWorkers > s.Workers {
				t.Errorf("busy workers %d outside [0,%d]", s.BusyWorkers, s.Workers)
				return
			}
			if s.QueuedCells < 0 || s.InFlightCells < 0 {
				t.Errorf("negative occupancy: %+v", s)
				return
			}
		}
	}()
	if _, err := p.Run(context.Background(), cells, Options{}); err != nil {
		t.Fatal(err)
	}
	close(stop)

	s := p.Stats()
	if s.ActiveJobs != 0 || s.QueuedCells != 0 || s.InFlightCells != 0 || s.BusyWorkers != 0 {
		t.Errorf("post-run stats = %+v, want zero occupancy", s)
	}
	want := uint64(len(cells))
	if s.ClaimedCells != want || s.CompletedCells != want {
		t.Errorf("claimed/completed = %d/%d, want %d/%d", s.ClaimedCells, s.CompletedCells, want, want)
	}
}

// TestPoolStatsCancelDrainsQueue: cancelling a job returns its
// unclaimed cells out of the queued gauge — occupancy settles to zero.
func TestPoolStatsCancelDrainsQueue(t *testing.T) {
	p := newPool(1, NewProgCache())
	defer p.Close()
	var cells []Cell
	for i := 0; i < 48; i++ {
		cells = append(cells, Cell{
			Exp: "t", Kind: Whisper, Workload: "echo", Scheme: params.TT,
			EWMicros: 40, Seed: int64(i + 1), Ops: 20_000,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	fired := make(chan struct{})
	opt := Options{Progress: func(done, total int, last Cell) {
		if done == 1 {
			close(fired)
		}
	}}
	go func() {
		<-fired
		cancel()
	}()
	if _, err := p.Run(ctx, cells, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	// In-flight cells may still be retiring; wait for occupancy to settle.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := p.Stats()
		if s.QueuedCells == 0 && s.InFlightCells == 0 && s.ActiveJobs == 0 && s.BusyWorkers == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("occupancy never settled after cancel: %+v", p.Stats())
}

// TestPoolRoundRobinFairness: with one worker and two concurrent jobs,
// completed cells alternate between the jobs — neither job head-of-line
// blocks the other.
func TestPoolRoundRobinFairness(t *testing.T) {
	p := newPool(1, NewProgCache())
	defer p.Close()

	mkCells := func(n int, seed int64) []Cell {
		var cells []Cell
		for i := 0; i < n; i++ {
			cells = append(cells, Cell{
				Exp: "t", Kind: Whisper, Workload: "echo", Scheme: params.MM,
				EWMicros: 40, Seed: seed, Ops: 100,
			})
		}
		return cells
	}

	var mu sync.Mutex
	var order []string
	progress := func(tag string) Progress {
		return func(done, total int, last Cell) {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}

	// Submit job A, wait until it is mid-flight, then submit job B; with
	// a single worker the round-robin claim must interleave the tails.
	aStarted := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		opt := Options{Progress: func(d, tot int, c Cell) {
			once.Do(func() { close(aStarted) })
			progress("A")(d, tot, c)
		}}
		if _, err := p.Run(context.Background(), mkCells(8, 1), opt); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		<-aStarted
		opt := Options{Progress: progress("B")}
		if _, err := p.Run(context.Background(), mkCells(8, 2), opt); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	// After B's first completion, A and B must alternate strictly (one
	// worker, two jobs, round-robin): no "BB" or trailing "AA" runs while
	// both jobs still have cells.
	s := strings.Join(order, "")
	first := strings.Index(s, "B")
	if first < 0 {
		t.Fatalf("job B never progressed: %q", s)
	}
	tail := s[first:]
	// Both jobs have 8 cells; the alternation region is everything until
	// one job's cells run out.
	aLeft := 8 - strings.Count(s[:first], "A")
	bLeft := 8
	for i := 0; i+1 < len(tail) && aLeft > 0 && bLeft > 0; i++ {
		if tail[i] == tail[i+1] {
			t.Fatalf("cells did not alternate with both jobs pending: %q", s)
		}
		if tail[i] == 'A' {
			aLeft--
		} else {
			bLeft--
		}
	}
}
