// Package runner is the parallel experiment engine behind the public
// experiment API. Every table and figure of the evaluation decomposes
// into independent cells — one (workload, scheme, EW/TEW target, seed,
// scale) simulation each — and the engine executes a cell list across a
// pool of OS workers while keeping the result order identical to the
// enumeration order, so a parallel run is bit-identical to a serial one.
//
// Each cell builds its own simulated machine, NVM device and runtime, so
// cells share no mutable state; the only cross-cell structure is the
// compiled-program cache (see ProgCache), which memoizes the TPL
// compile + insertion + link pipeline per (kernel, scale, cost model)
// and hands out read-only linked programs.
package runner

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/litmus"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/speckit"
	"repro/internal/whisper"
)

// Kind selects the driver a cell runs under.
type Kind int

const (
	// Whisper runs one WHISPER workload (single-thread driver).
	Whisper Kind = iota
	// Spec runs one SPEC-style kernel through the compiler pipeline.
	Spec
	// Crash runs one fault-injection spec through internal/crash.
	Crash
	// Litmus runs one persistency-litmus suite through internal/litmus.
	Litmus
)

// String names the kind for progress labels.
func (k Kind) String() string {
	switch k {
	case Whisper:
		return "whisper"
	case Spec:
		return "spec"
	case Crash:
		return "crash"
	case Litmus:
		return "litmus"
	default:
		return "unknown"
	}
}

// Cell is one self-contained experiment unit: everything needed to build
// a fresh simulated system and measure one (workload, scheme, target)
// point. Cells are plain data so they can be enumerated up front, hashed
// into progress displays, and executed on any worker.
type Cell struct {
	// Exp is the owning experiment (e.g. "table3"); Label is an optional
	// display name for the configuration (e.g. "TT(80us)").
	Exp, Label string
	// Kind selects the driver.
	Kind Kind
	// Workload is the WHISPER workload or SPEC kernel name.
	Workload string
	// Scheme is the protection scheme.
	Scheme params.Scheme
	// EWMicros is the exposure-window target in microseconds.
	EWMicros float64
	// TEWMicros overrides the thread exposure window target when > 0;
	// zero keeps the scheme default (2 us for TERP schemes, none for MM).
	TEWMicros float64
	// Seed seeds the cell's deterministic randomness.
	Seed int64
	// Ops is the WHISPER operation count (Whisper cells).
	Ops int
	// Scale and Threads size the kernel and its worker count (Spec cells).
	Scale, Threads int
	// Policy, Every, PointStart, PointCount and Adversarial describe the
	// fault-injection slice (Crash cells): the crash-point enumeration
	// policy and the window of points this cell injects.
	Policy                        string
	Every, PointStart, PointCount int
	Adversarial                   bool
	// CrossCheck verifies each sampled crash image against the
	// exhaustive enumerator (Crash cells only).
	CrossCheck bool
}

// Config builds the cell's protection configuration.
func (c Cell) Config() params.Config {
	cfg := params.NewConfig(c.Scheme, c.EWMicros)
	cfg.Seed = c.Seed
	if c.TEWMicros > 0 && cfg.TEWTarget != 0 {
		cfg.TEWTarget = params.Micros(c.TEWMicros)
	}
	return cfg
}

// Name renders a stable human-readable cell identifier for progress
// output and error messages.
func (c Cell) Name() string {
	label := c.Label
	if label == "" {
		label = fmt.Sprintf("%v(%.0fus)", c.Scheme, c.EWMicros)
	}
	return fmt.Sprintf("%s/%s/%s", c.Exp, c.Workload, label)
}

// CellResult pairs a cell with its measurements.
type CellResult struct {
	// Cell is the spec that ran.
	Cell Cell
	// Result is the finished run's measurements (zero on error; unused
	// for Crash cells).
	Result core.Result
	// Crash is the fault-injection report (Crash cells only).
	Crash *crash.Report
	// Litmus is the persistency-litmus report (Litmus cells only).
	Litmus *litmus.Report
	// Obs is the cell's observability payload (nil when collection is
	// off). Because each cell owns its own recorder and snapshot, the
	// payload is identical at any worker count.
	Obs *obs.CellObs
	// Err is the cell's failure, if any.
	Err error
}

// Progress is called after each cell completes. done counts finished
// cells, total is the cell count, and last is the cell that just
// finished. Calls are serialized by the engine but arrive in completion
// order, which under parallelism is not the enumeration order.
type Progress func(done, total int, last Cell)

// Options configures an Execute call.
type Options struct {
	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Progress, when set, receives live completion events.
	Progress Progress
	// Cache overrides the compiled-program cache; nil uses the shared
	// process-wide DefaultCache.
	Cache *ProgCache
	// Obs selects per-cell tracing/metrics collection.
	Obs obs.Config
}

// Execute runs every cell across the worker pool and returns the results
// in enumeration order (results[i] belongs to cells[i], whatever order
// the workers finished in). The returned error joins every cell error
// with errors.Join; the per-cell errors also remain in the result slice
// so callers can attribute failures.
func Execute(cells []Cell, opt Options) ([]CellResult, error) {
	return ExecuteContext(context.Background(), cells, opt)
}

// ExecuteContext is Execute with cancellation: it spins up an ephemeral
// Pool of Options.Workers workers for the batch and tears it down when
// the batch completes. Cancelling ctx stops the batch between cells
// (and interrupts long-running whisper cells at operation granularity);
// ExecuteContext then returns ctx.Err() once in-flight cells drain.
// Long-lived callers with many concurrent batches should own a shared
// Pool instead.
func ExecuteContext(ctx context.Context, cells []Cell, opt Options) ([]CellResult, error) {
	results := make([]CellResult, len(cells))
	if len(cells) == 0 {
		return results, ctx.Err()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	p := NewPool(workers)
	defer p.Close()
	return p.Run(ctx, cells, opt)
}

// RunCell executes one cell on the calling goroutine, returning the
// populated result (Err is left for the caller to attach). The cache
// supplies compiled kernel programs for Spec cells; nil uses DefaultCache.
func RunCell(c Cell, cache *ProgCache) (CellResult, error) {
	return RunCellCtx(context.Background(), c, cache, obs.Config{})
}

// RunCellCtx is RunCell with observability and cancellation. When ocfg
// enables tracing or metrics, the cell's runtime is instrumented and the
// result carries its CellObs payload; the instrumented run charges the
// same simulated cycles as a plain one — collection only observes, never
// charges. The cell is skipped when ctx is already done, and whisper
// cells additionally poll ctx between operation batches so a cancelled
// grid stops mid-cell instead of simulating to completion. Cancellation
// never alters results — a cell either runs to completion with
// byte-identical output or fails with ctx.Err().
func RunCellCtx(ctx context.Context, c Cell, cache *ProgCache, ocfg obs.Config) (CellResult, error) {
	if cache == nil {
		cache = DefaultCache
	}
	out := CellResult{Cell: c}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	cfg := c.Config()

	var rt *core.Runtime
	var onRuntime func(*core.Runtime)
	if ocfg.Enabled() {
		onRuntime = func(r *core.Runtime) {
			rt = r
			r.EnableObs(ocfg)
		}
	}
	// snapshot harvests the payload after the run; it tolerates error
	// paths where no runtime was built.
	snapshot := func() {
		if rt == nil {
			return
		}
		out.Obs = &obs.CellObs{Cell: c.Name(), Metrics: rt.ObsSnapshot()}
		if rec := rt.ObsRecorder(); rec != nil {
			out.Obs.TraceEvents = rec.Total()
			out.Obs.TraceDropped = rec.Dropped()
			out.Obs.Events = rec.Events()
		}
	}

	switch c.Kind {
	case Whisper:
		mk, err := whisper.ByName(c.Workload)
		if err != nil {
			return out, err
		}
		res, err := whisper.Run(cfg, mk, whisper.RunOpts{Ops: c.Ops, OnRuntime: onRuntime, Interrupt: ctx.Err})
		out.Result = res
		snapshot()
		return out, err
	case Spec:
		k, err := speckit.ByName(c.Workload)
		if err != nil {
			return out, err
		}
		opt, insert := speckit.InsertOptions(cfg)
		linked, err := cache.Linked(k, c.Scale, insert, opt)
		if err != nil {
			return out, err
		}
		res, err := speckit.RunLinked(cfg, k, linked, speckit.RunOpts{
			Threads:   c.Threads,
			Scale:     c.Scale,
			OnRuntime: onRuntime,
		})
		out.Result = res
		snapshot()
		return out, err
	case Crash:
		rep, err := crash.Run(crash.Spec{
			Workload:    c.Workload,
			Ops:         c.Ops,
			Seed:        c.Seed,
			Policy:      crash.Policy(c.Policy),
			Every:       c.Every,
			PointStart:  c.PointStart,
			Points:      c.PointCount,
			Adversarial: c.Adversarial,
			CrossCheck:  c.CrossCheck,
		})
		out.Crash = rep
		if ocfg.Metrics && rep != nil {
			// Crash cells run outside a core.Runtime; surface the
			// injector's persist-event counters instead.
			s := obs.NewSnapshot()
			s.Add("crash/events", rep.Events)
			s.Add("crash/fences", rep.Fences)
			s.Add("crash/candidates", uint64(rep.Candidates))
			s.Add("crash/points", uint64(len(rep.Points)))
			s.Add("crash/failures", uint64(rep.Failures))
			s.Add("crash/undone", uint64(rep.Undone))
			s.Add("crash/crosschecked", uint64(rep.CrossChecked))
			s.Add("crash/crossskipped", uint64(rep.CrossSkipped))
			out.Obs = &obs.CellObs{Cell: c.Name(), Metrics: s}
		}
		return out, err
	case Litmus:
		var progs []litmus.Program
		suite := c.Workload
		switch c.Workload {
		case "named":
			progs = litmus.Named()
		case "gen":
			progs = litmus.Generate(c.Seed, c.Ops)
			suite = fmt.Sprintf("gen/%d", c.Seed)
		default:
			return out, fmt.Errorf("runner: unknown litmus suite %q", c.Workload)
		}
		rep, err := litmus.RunSuite(suite, progs, litmus.DefaultAllowlist())
		out.Litmus = rep
		if ocfg.Metrics && rep != nil {
			// Litmus cells run outside a core.Runtime; surface the
			// engine's enumeration counters instead.
			s := obs.NewSnapshot()
			s.Add("litmus/programs", uint64(rep.Programs))
			s.Add("litmus/events", uint64(rep.Events))
			s.Add("litmus/modelstates", uint64(rep.ModelStates))
			s.Add("litmus/specstates", uint64(rep.SpecStates))
			s.Add("litmus/evictions", uint64(rep.Eviction))
			s.Add("litmus/wbreplace", uint64(rep.WbReplace))
			s.Add("litmus/violations", uint64(rep.Violations))
			out.Obs = &obs.CellObs{Cell: c.Name(), Metrics: s}
		}
		return out, err
	default:
		return out, fmt.Errorf("runner: unknown cell kind %d", c.Kind)
	}
}
