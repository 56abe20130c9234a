package whisper

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
)

// RunOpts configures a measured run.
type RunOpts struct {
	// Ops is the number of operations (the paper runs 100K).
	Ops int
	// Obs selects what the runtime records; Result.Obs carries it.
	Obs obs.Config
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
	rt.EnableObs(opts.Obs)
	ctx := rt.NewThread(sim.SingleThread())
	rng := rand.New(rand.NewSource(cfg.Seed))

	if err := w.Setup(mgr, ctx, rng); err != nil {
		return core.Result{}, fmt.Errorf("whisper %s setup: %w", w.Name(), err)
	}
	// The load phase is not measured: Result.Cycles counts from here.
	// Nothing is reset, though. Setup ran on this thread context, so what
	// it charged stays in the thread's costs: ctree's load-phase undo log
	// charges 12,779,520 Base cycles at every seed, which Result.Costs,
	// the sim/cycles/base metric and the charge hook all include.
	start := ctx.Now()

	prof := w.Profile()
	p := w.PMO()
	idle := func() {
		ctx.Compute(prof.IdleBase + uint64(rng.Int63n(int64(prof.IdleSpread+1))))
	}

	switch cfg.Scheme {
	case params.MM:
		// A batch never exceeds the run, so the EW target only sizes it:
		// every target at or above the whole run's estimate runs alike.
		batch := int(min(cfg.EWTarget/prof.EstOpCycles, uint64(opts.Ops)))
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
		// Unprotected attaches once, before the first op. TERP insertion
		// brackets each op's PM section with a conditional attach/detach
		// pair; parse and idle run outside the window.
		terp := cfg.Scheme != params.Unprotected
		if !terp {
			if err := ctx.Attach(p, paging.ReadWrite); err != nil {
				return core.Result{}, err
			}
		}
		for i := 0; i < opts.Ops; i++ {
			if opts.Interrupt != nil && i%interruptStride == 0 {
				if err := opts.Interrupt(); err != nil {
					return core.Result{}, err
				}
			}
			ctx.Compute(prof.Parse)
			if terp {
				if err := ctx.Attach(p, paging.ReadWrite); err != nil {
					return core.Result{}, err
				}
			}
			if err := w.Op(ctx, rng); err != nil {
				return core.Result{}, fmt.Errorf("%s op %d: %w", w.Name(), i, err)
			}
			if terp {
				if err := ctx.Detach(p); err != nil {
					return core.Result{}, err
				}
			}
			idle()
		}
	}
	res := rt.Finish(ctx.Now())
	res.Cycles = ctx.Now() - start
	return res, nil
}
