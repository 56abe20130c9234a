package whisper

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
)

// RunOpts configures a measured run.
type RunOpts struct {
	// Ops is the number of operations (the paper runs 100K).
	Ops int
	// OnRuntime, when set, is called with the freshly built runtime
	// before the run (tracing, inspection).
	OnRuntime func(*core.Runtime)
	// Interrupt, when set, is polled every interruptStride operations;
	// a non-nil return aborts the run with that error. The poll only
	// observes — a run that completes is byte-identical whether or not
	// Interrupt was set.
	Interrupt func() error
}

// interruptStride is how many operations run between Interrupt polls.
const interruptStride = 1024

// DefaultOps is the paper's operation count.
const DefaultOps = 100_000

// unprotCfg is the configuration used for load phases.
func unprotCfg() params.Config {
	return params.NewConfig(params.Unprotected, params.DefaultEWMicros)
}

// newLoadThread returns a throwaway thread for load phases.
func newLoadThread() *sim.Thread { return sim.SingleThread() }

// Run executes one WHISPER workload under the given protection
// configuration on a fresh simulated machine and returns the result.
//
// Insertion strategies follow Section VI:
//   - Unprotected: attach once; no protection operations.
//   - MM: manual MERR bracketing — the "programmer" sizes batches of
//     operations from a conservative static estimate so each bracketed
//     section targets (and in practice under-fills) the EW target; think
//     time falls outside the bracket.
//   - TERP schemes (TM, TT, ablations): the compiler's insertion wraps
//     each operation's PM section in a conditional attach/detach pair
//     (TEW granularity); window combining is then the architecture's job.
func Run(cfg params.Config, mk func() Workload, opts RunOpts) (core.Result, error) {
	if opts.Ops == 0 {
		opts.Ops = DefaultOps
	}
	w := mk()

	dev := nvm.NewDevice(nvm.NVM, 2*pmoSize)
	mgr := pmo.NewManager(dev)
	rt := core.NewRuntime(cfg, mgr)
	if opts.OnRuntime != nil {
		opts.OnRuntime(rt)
	}
	ctx := rt.NewThread(sim.SingleThread())
	rng := rand.New(rand.NewSource(cfg.Seed))

	if err := w.Setup(mgr, ctx, rng); err != nil {
		return core.Result{}, fmt.Errorf("whisper %s setup: %w", w.Name(), err)
	}
	// Setup must not count: reset the clock's costs by measuring from a
	// fresh thread context.
	start := ctx.Now()

	prof := w.Profile()
	p := w.PMO()
	idle := func() {
		ctx.Compute(prof.IdleBase + uint64(rng.Int63n(int64(prof.IdleSpread+1))))
	}
	interrupted := func(i int) error {
		if opts.Interrupt == nil || i%interruptStride != 0 {
			return nil
		}
		return opts.Interrupt()
	}

	switch cfg.Scheme {
	case params.Unprotected:
		if err := ctx.Attach(p, paging.ReadWrite); err != nil {
			return core.Result{}, err
		}
		for i := 0; i < opts.Ops; i++ {
			if err := interrupted(i); err != nil {
				return core.Result{}, err
			}
			ctx.Compute(prof.Parse)
			if err := w.Op(ctx, rng); err != nil {
				return core.Result{}, fmt.Errorf("%s op %d: %w", w.Name(), i, err)
			}
			idle()
		}
	case params.MM:
		batch := int(cfg.EWTarget / prof.EstOpCycles)
		if batch < 1 {
			batch = 1
		}
		for i := 0; i < opts.Ops; {
			if opts.Interrupt != nil {
				if err := opts.Interrupt(); err != nil {
					return core.Result{}, err
				}
			}
			if err := ctx.Attach(p, paging.ReadWrite); err != nil {
				return core.Result{}, err
			}
			for k := 0; k < batch && i < opts.Ops; k++ {
				ctx.Compute(prof.Parse)
				if err := w.Op(ctx, rng); err != nil {
					return core.Result{}, fmt.Errorf("%s op %d: %w", w.Name(), i, err)
				}
				i++
			}
			if err := ctx.Detach(p); err != nil {
				return core.Result{}, err
			}
			for k := 0; k < batch; k++ {
				idle()
			}
		}
	default:
		// TERP insertion: conditional attach/detach around each op's
		// PM section; parse and idle run outside the window.
		for i := 0; i < opts.Ops; i++ {
			if err := interrupted(i); err != nil {
				return core.Result{}, err
			}
			ctx.Compute(prof.Parse)
			if err := ctx.Attach(p, paging.ReadWrite); err != nil {
				return core.Result{}, err
			}
			if err := w.Op(ctx, rng); err != nil {
				return core.Result{}, fmt.Errorf("%s op %d: %w", w.Name(), i, err)
			}
			if err := ctx.Detach(p); err != nil {
				return core.Result{}, err
			}
			idle()
		}
	}
	res := rt.Finish(ctx.Now())
	res.Cycles = ctx.Now() - start
	return res, nil
}

// Overhead runs the workload under cfg and under the unprotected baseline
// with identical op streams and returns the relative execution-time
// overhead plus both results.
func Overhead(cfg params.Config, mk func() Workload, opts RunOpts) (float64, core.Result, core.Result, error) {
	base, err := Run(params.Config{Scheme: params.Unprotected, Seed: cfg.Seed, EWTarget: cfg.EWTarget}, mk, opts)
	if err != nil {
		return 0, core.Result{}, core.Result{}, err
	}
	prot, err := Run(cfg, mk, opts)
	if err != nil {
		return 0, core.Result{}, core.Result{}, err
	}
	ov := float64(prot.Cycles)/float64(base.Cycles) - 1
	return ov, prot, base, nil
}
