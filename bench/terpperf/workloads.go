package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	terp "repro"
	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/speckit"
)

// workloadNames lists the workloads in BENCHMARK.json order. Why each
// was chosen is recorded there and in bench/README.md.
var workloadNames = []string{"whisper-pm", "spec-4t", "crash-persist", "terpd-serve"}

// sizes scales the workloads: fullSizes for the benchmark, smallSizes
// for the smoke test.
type sizes struct {
	whisperOps, whisperWarmOps int           // fig9 grid and its warm-up
	specExp                    string        // the spec-4t grid
	crashOps, crashWarmOps     int           // crash grid (0 = paper default) and its warm-up
	serveOps                   int           // table3 ops of a served job
	jobsPerTenant              int           // jobs per tenant per serve round
	setups                     int           // timed set-ups per run
	section, budget            time.Duration // layer drivers: shortest timed section, time per driver
}

var fullSizes = sizes{
	whisperOps: 10000, whisperWarmOps: 1000,
	specExp:  "fig11",
	crashOps: 0, crashWarmOps: 30000,
	serveOps: 500, jobsPerTenant: 12,
	setups:  5,
	section: 50 * time.Millisecond, budget: 300 * time.Millisecond,
}

// smallSizes runs every workload at its smallest size. The spec-4t grid
// becomes table4: the same compile-and-interpret path over single-thread
// cells, because fig11 has no smaller size.
var smallSizes = sizes{
	whisperOps: 300, whisperWarmOps: 100,
	specExp:  "table4",
	crashOps: 20000, crashWarmOps: 20000,
	serveOps: 100, jobsPerTenant: 4,
	setups:  1,
	section: 2 * time.Millisecond, budget: 10 * time.Millisecond,
}

// workload is one set of inputs the benchmark times.
type workload interface {
	// setup does what a user pays before the first result: compiling,
	// warming the heap, or starting a server and computing reference
	// digests. Each call replaces the state of the previous one.
	setup(tr *tracer) error
	// inputs is how many inputs untraced repetitions rotate through.
	inputs() int
	// rep runs one timed repetition on input (0 <= input < inputs())
	// and returns its wall time and the bytes it allocated. Its
	// operations, failures and, when untraced, the latency of each
	// request it completed go to the measurement. A non-nil tr records
	// spans.
	rep(tr *tracer, job string, input int) (time.Duration, uint64)
	// grid returns a representative finished grid.
	grid() *terp.Grid
	close()
}

func newWorkload(name string, seed int64, sz sizes, m *measurement) (workload, error) {
	switch name {
	case "whisper-pm":
		warm := terp.ExperimentSpec{Name: "fig9", Opts: terp.ExpOpts{Ops: sz.whisperWarmOps, Seed: seed}, Parallel: 1}
		return newBatch(m, terp.ExperimentSpec{Name: "fig9", Opts: terp.ExpOpts{Ops: sz.whisperOps, Seed: seed}, Parallel: 1},
			func() error { _, err := terp.Run(warm); return err }, nil), nil
	case "spec-4t":
		// The first set-up fills the shared program cache that terp.Run
		// uses; later ones compile into a fresh cache, so every set-up
		// does the same work. One 4-thread cell then warms the heap.
		cache := runner.DefaultCache
		warm := runner.Cell{Exp: "warm", Kind: runner.Spec, Workload: "mcf", Scheme: params.PlusCB,
			EWMicros: 40, Seed: seed, Scale: 1, Threads: params.Cores}
		return newBatch(m, terp.ExperimentSpec{Name: sz.specExp, Opts: terp.ExpOpts{Scale: 1, Seed: seed}, Parallel: 1},
			func() error {
				err := compileKernels(cache, fig11Points)
				cache = runner.NewProgCache()
				if err == nil {
					_, err = runner.RunCell(warm, nil)
				}
				return err
			}, nil), nil
	case "crash-persist":
		warm := terp.ExperimentSpec{Name: "crash", Opts: terp.ExpOpts{Ops: sz.crashWarmOps, Seed: seed}, Parallel: 1}
		return newBatch(m, terp.ExperimentSpec{Name: "crash", Opts: terp.ExpOpts{Ops: sz.crashOps, Seed: seed}, Parallel: 1},
			func() error { _, err := terp.Run(warm); return err }, checkCrash), nil
	case "terpd-serve":
		return newServe(seed, sz, m), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
}

// schemePoint is one (scheme, EW target) configuration of a grid.
type schemePoint struct {
	scheme params.Scheme
	ew     float64
}

// fig11Points are the configurations of the fig11 grid, whose programs
// spec-4t compiles during set-up.
var fig11Points = []schemePoint{
	{params.Unprotected, 40}, {params.BasicSem, 40}, {params.PlusCond, 40},
	{params.PlusCB, 40}, {params.TT, 80}, {params.TT, 160},
}

// compileKernels compiles and links every kernel under every point.
func compileKernels(cache *runner.ProgCache, points []schemePoint) error {
	for _, k := range speckit.Kernels() {
		for _, c := range points {
			cell := runner.Cell{Scheme: c.scheme, EWMicros: c.ew}
			opt, insert := speckit.InsertOptions(cell.Config())
			if _, err := cache.Linked(k, 1, insert, opt); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCrash applies the crash experiment's own pass criterion: every
// injected crash image recovered with all invariants intact.
func checkCrash(g *terp.Grid) error {
	if len(g.Crash) == 0 {
		return fmt.Errorf("crash grid has no rows")
	}
	for _, r := range g.Crash {
		if r.Failures != 0 {
			return fmt.Errorf("crash %s/%s: %d recovery failures", r.Prog, r.Policy, r.Failures)
		}
	}
	return nil
}

// gridRun is one timed terp.Run followed by Grid.JSON.
type gridRun struct {
	spec         terp.ExperimentSpec // as given, before tracing changed it
	grid         *terp.Grid
	digest       string // sha256 of Grid.JSON without the Obs payload
	run, marshal time.Duration
	cells        []time.Duration // between progress callbacks
	alloc        uint64
}

// runGrid runs spec once. With a tracer it records spans for the run,
// each cell and the marshal, and turns on the simulator's metrics so the
// grid carries its layer counts; the digest leaves those out, so traced
// and untraced runs of one spec must digest the same.
func runGrid(spec terp.ExperimentSpec, tr *tracer, job string) (gridRun, error) {
	r := gridRun{spec: spec}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	runID := tr.begin("terp.Run", job, laneWorkload, 0)
	last := start
	spec.Progress = func(done, total int, cell string) {
		now := time.Now()
		r.cells = append(r.cells, now.Sub(last))
		tr.record("runner.cell "+cell, job, laneWorkload, runID, last, now)
		last = now
	}
	if tr != nil {
		spec.Obs.Metrics = true
	}
	g, err := terp.Run(spec)
	tr.end(runID)
	if err != nil {
		return r, err
	}
	ran := time.Now()
	marshalID := tr.begin("terp.marshal", job, laneWorkload, 0)
	body, err := g.JSON()
	tr.end(marshalID)
	if err != nil {
		return r, err
	}
	r.marshal = time.Since(ran)
	r.run = ran.Sub(start)
	runtime.ReadMemStats(&after)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	r.grid = g
	if g.Obs != nil {
		plain := *g
		plain.Obs = nil
		if body, err = plain.JSON(); err != nil {
			return r, err
		}
	}
	r.digest = sha256Hex(body)
	return r, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// batchInputs is how many seeds a batch run rotates through, starting
// at the run's seed: how long a grid takes depends on its seed, and a
// run that measures several keeps one slow input from deciding it.
const batchInputs = 4

// batch is a workload that runs one experiment grid per repetition, the
// way `terpbench -exp <name> -parallel 1` does.
type batch struct {
	m     *measurement
	spec  terp.ExperimentSpec // at the run's seed
	warm  func() error
	check func(*terp.Grid) error // extra correctness check, may be nil
	ref   map[int64]string       // by seed: the digest every repetition must match
	last  *terp.Grid
}

func newBatch(m *measurement, spec terp.ExperimentSpec, warm func() error, check func(*terp.Grid) error) *batch {
	return &batch{m: m, spec: spec, warm: warm, check: check, ref: map[int64]string{}}
}

func (b *batch) setup(*tracer) error { return b.warm() }
func (b *batch) inputs() int         { return batchInputs }

func (b *batch) rep(tr *tracer, job string, input int) (time.Duration, uint64) {
	spec := b.spec
	spec.Opts.Seed += int64(input)
	r, err := runGrid(spec, tr, job)
	if err == nil && b.check != nil {
		err = b.check(r.grid)
	}
	if err != nil {
		b.m.op(job, err)
		return r.run + r.marshal, r.alloc
	}
	if ref, ok := b.ref[spec.Opts.Seed]; !ok {
		b.ref[spec.Opts.Seed] = r.digest
		b.m.digest(spec, r.digest)
	} else if r.digest != ref {
		err = fmt.Errorf("grid digest %s differs from the first repetition's %s", r.digest, ref)
	}
	b.m.op(job, err)
	b.m.grid(r, tr)
	if tr == nil && err == nil {
		b.last = r.grid
		b.m.request(r.run + r.marshal)
	}
	return r.run + r.marshal, r.alloc
}

func (b *batch) grid() *terp.Grid { return b.last }
func (b *batch) close()           {}

// tenants is the serve workload's client count: a closed loop in which
// each tenant waits for its grid before submitting its next job.
const tenants = 2

// serve runs an in-process terpd behind a loopback HTTP listener.
type serve struct {
	m     *measurement
	specs []terp.ExperimentSpec // distinct served specs
	mix   []int                 // one tenant's round, as indices into specs
	rngs  [tenants]*rand.Rand   // per-tenant job order
	ref   []string              // offline reference digest per spec
	big   *terp.Grid            // the largest reference grid, as served

	srv    *service.Server
	hs     *httptest.Server
	client *http.Client
}

// newServe builds the job mix: half table3 over four seeds, a quarter
// fig8 and a quarter table5 (neither has cells). Specs repeat, so served
// requests share work.
func newServe(seed int64, sz sizes, m *measurement) *serve {
	s := &serve{m: m}
	for i := int64(0); i < 4; i++ {
		s.specs = append(s.specs, terp.ExperimentSpec{Name: "table3", Opts: terp.ExpOpts{Ops: sz.serveOps, Seed: seed + i}})
	}
	s.specs = append(s.specs,
		terp.ExperimentSpec{Name: "fig8", Opts: terp.ExpOpts{Seed: seed}},
		terp.ExperimentSpec{Name: "table5", Opts: terp.ExpOpts{Seed: seed}})
	table3 := 0
	for i := 0; i < sz.jobsPerTenant; i++ {
		switch i % 4 {
		case 0, 1:
			s.mix = append(s.mix, table3%4)
			table3++
		case 2:
			s.mix = append(s.mix, 4)
		case 3:
			s.mix = append(s.mix, 5)
		}
	}
	for t := range s.rngs {
		s.rngs[t] = rand.New(rand.NewSource(seed*tenants + int64(t)))
	}
	return s
}

func (s *serve) setup(tr *tracer) error {
	s.close()
	nproc := runtime.NumCPU()
	s.srv = service.New(service.Config{Workers: nproc})
	s.hs = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	if _, err := s.get("/healthz"); err != nil {
		return err
	}
	ref := make([]string, len(s.specs))
	for i, spec := range s.specs {
		spec.Parallel = 1
		r, err := runGrid(spec, tr, "reference "+spec.Name)
		if err != nil {
			return fmt.Errorf("offline %s: %w", spec.Name, err)
		}
		s.m.grid(r, tr)
		ref[i] = r.digest
		if s.ref == nil {
			s.m.digest(spec, r.digest)
		} else if s.ref[i] != r.digest {
			return fmt.Errorf("offline %s seed %d: digest %s differs from the previous set-up's %s",
				spec.Name, spec.Opts.Seed, r.digest, s.ref[i])
		}
		if s.big == nil || len(r.grid.Whisper) > len(s.big.Whisper) {
			served := *r.grid
			served.Obs = nil
			s.big = &served
		}
	}
	s.ref = ref
	return nil
}

// jobRecord is one served job's timeline as the tenant saw it, with the
// server's own queue and run phases.
type jobRecord struct {
	id, exp                                        string
	latency, submit, queueWait, run, notify, fetch time.Duration
	err                                            error
}

func (s *serve) inputs() int { return 1 }

// rep runs one round: every tenant submits its shuffled mix in a closed
// loop, and the round ends when both tenants are done. The served specs
// already span four seeds, so there is one input.
func (s *serve) rep(tr *tracer, job string, _ int) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	recs := s.round(tr)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	for _, r := range recs {
		s.m.op(r.id, r.err)
		if r.err == nil && tr == nil {
			s.m.request(r.latency)
		}
	}
	return wall, after.TotalAlloc - before.TotalAlloc
}

func (s *serve) round(tr *tracer) []jobRecord {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		recs []jobRecord
	)
	for t := 0; t < tenants; t++ {
		order := append([]int(nil), s.mix...)
		s.rngs[t].Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		wg.Add(1)
		go func(t int, order []int) {
			defer wg.Done()
			for _, i := range order {
				r := s.job(t, i, tr)
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}(t, order)
	}
	wg.Wait()
	return recs
}

// jobTimeout bounds how long a tenant waits for one job, so a wedged
// server fails the run instead of hanging it.
const jobTimeout = time.Minute

// job submits spec i as tenant t, waits for it through the job's
// subscription, fetches the grid and checks it against the offline
// reference.
func (s *serve) job(t, i int, tr *tracer) jobRecord {
	spec := s.specs[i]
	rec := jobRecord{id: fmt.Sprintf("tenant%d %s seed %d", t, spec.Name, spec.Opts.Seed), exp: spec.Name}
	body, err := spec.JSON()
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, s.hs.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set(service.TenantHeader, fmt.Sprintf("tenant%d", t))
	resp, err := s.client.Do(req)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	var st service.Status
	if err == nil {
		err = json.Unmarshal(reply, &st)
	}
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	rec.id = st.ID
	t1 := time.Now()

	j, err := s.srv.Scheduler().Lookup(st.ID)
	if err != nil {
		rec.err = err
		return rec
	}
	if err := waitJob(j); err != nil {
		rec.err = err
		return rec
	}
	t2 := time.Now()
	if state := j.State(); state != service.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", st.ID, state, j.Status().Error)
		return rec
	}
	grid, err := s.get("/v1/jobs/" + st.ID + "/grid")
	if err != nil {
		rec.err = err
		return rec
	}
	t3 := time.Now()
	if d := sha256Hex(grid); d != s.ref[i] {
		rec.err = fmt.Errorf("job %s (%s seed %d): served grid digest %s, offline %s",
			st.ID, spec.Name, spec.Opts.Seed, d, s.ref[i])
		return rec
	}

	submitted, started, finished := j.WallTimes()
	rec.latency, rec.submit, rec.fetch = t3.Sub(t0), t1.Sub(t0), t3.Sub(t2)
	rec.queueWait, rec.run, rec.notify = started.Sub(submitted), finished.Sub(started), t2.Sub(finished)
	lane := laneTenant + t
	root := tr.record("terpd.job "+spec.Name, st.ID, lane, 0, t0, t3)
	tr.record("service.submit", st.ID, lane, root, t0, t1)
	wait := tr.record("service.wait", st.ID, lane, root, t1, t2)
	tr.record("service.queue_wait", st.ID, lane, wait, submitted, started)
	tr.record("service.run", st.ID, lane, wait, started, finished)
	tr.record("service.grid_fetch", st.ID, lane, root, t2, t3)
	return rec
}

// waitJob blocks until the job's event stream closes, which it does
// after the terminal event.
func waitJob(j *service.Job) error {
	events, cancel := j.Subscribe()
	defer cancel()
	timeout := time.NewTimer(jobTimeout)
	defer timeout.Stop()
	for {
		select {
		case _, open := <-events:
			if !open {
				return nil
			}
		case <-timeout.C:
			return fmt.Errorf("job %s did not finish within %v", j.ID, jobTimeout)
		}
	}
}

// get fetches path from the server and fails on any status but 200.
func (s *serve) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.hs.URL + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	return body, nil
}

func (s *serve) grid() *terp.Grid { return s.big }

func (s *serve) close() {
	if s.srv == nil {
		return
	}
	s.hs.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
	s.srv, s.hs, s.client = nil, nil, nil
}
