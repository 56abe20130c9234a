package speckit

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nvm"
	"repro/internal/paging"
	"repro/internal/params"
	"repro/internal/pmo"
	"repro/internal/sim"
	"repro/internal/terpc"
)

// deviceSize is the NVM device every kernel run gets (1 GB).
const deviceSize = 1 << 30

// RunOpts configures one kernel run.
type RunOpts struct {
	// Threads is the worker count (1 or the paper's 4).
	Threads int
	// Scale multiplies the kernel's array sizes.
	Scale int
	// InsertOverride replaces the insertion pass options (used by the
	// compiler cost-model ablation); nil selects the scheme defaults.
	InsertOverride *terpc.Options
	// OnRuntime, when set, is called with the freshly built runtime
	// before the run (tracing, inspection).
	OnRuntime func(*core.Runtime)
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Threads == 0 {
		o.Threads = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// InsertOptions returns the insertion pass options the configuration's
// scheme implies (MERR-style single-level insertion for MM, TEW-granularity
// conditional insertion for the TERP schemes) and whether the insertion
// pass runs at all (it does not for the unprotected baseline).
func InsertOptions(cfg params.Config) (terpc.Options, bool) {
	switch cfg.Scheme {
	case params.Unprotected:
		return terpc.Options{}, false
	case params.MM:
		return terpc.Options{EWThreshold: cfg.EWTarget}, true
	default:
		return terpc.Options{EWThreshold: cfg.EWTarget, TEWThreshold: cfg.TEWTarget}, true
	}
}

// Build compiles the kernel at the given scale and, when insert is true,
// runs the attach/detach insertion pass over it. Neither the interpreter
// nor ir.Link mutates the returned program, so one Build result may back
// any number of concurrent runs (the runner's program cache relies on
// this).
func Build(k Kernel, scale int, insert bool, opt terpc.Options) (*ir.Program, error) {
	if scale < 1 {
		scale = 1
	}
	prog, err := lang.Compile(k.Source(scale))
	if err != nil {
		return nil, fmt.Errorf("speckit %s: %w", k.Name, err)
	}
	if insert {
		if _, err := terpc.Insert(prog, opt); err != nil {
			return nil, fmt.Errorf("speckit %s insertion: %w", k.Name, err)
		}
	}
	return prog, nil
}

// Run compiles the kernel, applies the configuration's insertion strategy,
// links the result and executes it on a fresh simulated machine.
func Run(cfg params.Config, k Kernel, opts RunOpts) (core.Result, error) {
	opts = opts.withDefaults()
	o, insert := InsertOptions(cfg)
	if opts.InsertOverride != nil {
		o = *opts.InsertOverride
	}
	prog, err := Build(k, opts.Scale, insert, o)
	if err != nil {
		return core.Result{}, err
	}
	l, err := ir.Link(prog)
	if err != nil {
		return core.Result{}, fmt.Errorf("speckit %s: %w", k.Name, err)
	}
	return RunLinked(cfg, k, l, opts)
}

// RunProgram executes an already compiled (and, scheme permitting,
// instrumented) kernel program on a fresh simulated machine through the
// block interpreter (interp.New). It is the reference RunLinked is
// tested against. The program is not mutated, so callers may share one
// program across concurrent runs.
func RunProgram(cfg params.Config, k Kernel, prog *ir.Program, opts RunOpts) (core.Result, error) {
	return runWith(cfg, k, prog.PMONames(), opts, func(ctx *core.ThreadCtx) (*interp.Machine, error) {
		return interp.New(prog, ctx)
	})
}

// RunLinked executes a pre-linked program form (see ir.Link) on a fresh
// simulated machine. The linked form is read-only to the interpreter, so
// one Link result may back any number of concurrent runs; results are
// identical to RunProgram on the program the form was linked from.
func RunLinked(cfg params.Config, k Kernel, l *ir.Linked, opts RunOpts) (core.Result, error) {
	return runWith(cfg, k, l.Prog.PMONames(), opts, func(ctx *core.ThreadCtx) (*interp.Machine, error) {
		return interp.NewLinked(l, ctx)
	})
}

// runWith builds the simulated machine (single-thread or scheduled) and
// executes the kernel with interpreters supplied by newMachine — the one
// place the single- and multi-thread drive logic lives.
func runWith(cfg params.Config, k Kernel, pmoNames []string, opts RunOpts, newMachine func(*core.ThreadCtx) (*interp.Machine, error)) (core.Result, error) {
	opts = opts.withDefaults()
	mgr := pmo.NewManager(nvm.NewDevice(nvm.NVM, deviceSize))
	rt := core.NewRuntime(cfg, mgr)
	if opts.OnRuntime != nil {
		opts.OnRuntime(rt)
	}

	if opts.Threads == 1 {
		ctx := rt.NewThread(sim.SingleThread())
		m, err := newMachine(ctx)
		if err != nil {
			return core.Result{}, err
		}
		if cfg.Scheme == params.Unprotected {
			if err := preAttach(ctx, m, pmoNames); err != nil {
				return core.Result{}, err
			}
		}
		if _, err := m.Run("worker", 0, 1); err != nil {
			return core.Result{}, fmt.Errorf("speckit %s: %w", k.Name, err)
		}
		return rt.Finish(ctx.Now()), nil
	}

	machine := sim.NewMachine(cfg.Seed, 200)
	rt.AttachMachine(machine)
	errs := make([]error, opts.Threads)
	var first *interp.Machine
	for t := 0; t < opts.Threads; t++ {
		t := t
		machine.AddThread(func(th *sim.Thread) {
			ctx := rt.NewThread(th)
			m, err := newMachine(ctx)
			if err != nil {
				errs[t] = err
				return
			}
			if first == nil {
				first = m
			} else {
				m.SharePMOs(first)
				m.ShareDRAM(first)
			}
			if cfg.Scheme == params.Unprotected && t == 0 {
				if err := preAttach(ctx, m, pmoNames); err != nil {
					errs[t] = err
					return
				}
			}
			if _, err := m.Run("worker", int64(t), int64(opts.Threads)); err != nil {
				errs[t] = err
			}
		})
	}
	end := machine.Run()
	for t, err := range errs {
		if err != nil {
			return core.Result{}, fmt.Errorf("speckit %s thread %d: %w", k.Name, t, err)
		}
	}
	return rt.Finish(end), nil
}

func preAttach(ctx *core.ThreadCtx, m *interp.Machine, names []string) error {
	for _, name := range names {
		p, ok := m.PMO(name)
		if !ok {
			return fmt.Errorf("speckit: missing PMO %q", name)
		}
		if err := ctx.Attach(p, paging.ReadWrite); err != nil {
			return err
		}
	}
	return nil
}

// Overhead runs the kernel under cfg and the unprotected baseline and
// returns the relative execution-time overhead plus both results.
func Overhead(cfg params.Config, k Kernel, opts RunOpts) (float64, core.Result, core.Result, error) {
	baseCfg := params.NewConfig(params.Unprotected, params.DefaultEWMicros)
	baseCfg.Seed = cfg.Seed
	base, err := Run(baseCfg, k, opts)
	if err != nil {
		return 0, core.Result{}, core.Result{}, err
	}
	prot, err := Run(cfg, k, opts)
	if err != nil {
		return 0, core.Result{}, core.Result{}, err
	}
	ov := float64(prot.Cycles)/float64(base.Cycles) - 1
	return ov, prot, base, nil
}
