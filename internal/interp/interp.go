// Package interp executes compiled IR programs on the TERP runtime: it
// creates one PMO per persistent array declaration (the paper's SPEC
// methodology allocates each large heap object as a PMO), dispatches
// instructions with their cycle costs, routes PMO loads and stores through
// the runtime's full protection path, and executes the attach/detach
// constructs the compiler pass inserted.
package interp

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/paging"
	"repro/internal/pmo"
)

var (
	// ErrNoFunc is returned when the entry function is missing.
	ErrNoFunc = errors.New("interp: function not found")
	// ErrBounds is returned for out-of-range array indexing.
	ErrBounds = errors.New("interp: index out of bounds")
	// ErrSteps is returned when the step budget is exhausted.
	ErrSteps = errors.New("interp: step budget exhausted")
	// ErrDepth is returned on call-stack overflow.
	ErrDepth = errors.New("interp: call depth exceeded")
)

// Machine executes one program on behalf of one simulated thread, on one
// of two engines that execute the same instructions and charge the same
// cycles through the same core access path. The linked engine (NewLinked)
// runs the flat form ir.Link produces, with every symbol resolved to a
// slot and its calls on an explicit stack, so it can stop at a thread
// switch and resume there (see Step); every SPEC cell runs on it. The
// block interpreter (New) recurses over the program's basic blocks and
// resolves each symbol by scanning the program's declarations. It shares
// no code with ir.Link, so it stays as the reference that the
// equivalence tests hold the link pass and the linked engine to.
type Machine struct {
	prog   *ir.Program
	linked *ir.Linked
	ctx    *core.ThreadCtx

	// The program's arrays, indexed by declaration order (the slot space
	// ir.Link resolves into): each PMO's handle and element count, and
	// each volatile array's storage and synthetic base address. A worker
	// shares them with the machine it was made from.
	pmos     []*pmo.PMO
	elems    []int64
	dram     [][]int64
	dramBase []uint64

	// The linked engine's live frames are stack[:depth]; those above
	// keep their register files for later calls. pending is set while
	// the top frame's instruction waits for the next Step to apply its
	// effect. entry and args are the block interpreter's started call,
	// and result and err the outcome of either engine's.
	stack   []frame
	pending bool
	entry   *ir.Func
	args    []int64
	result  int64
	err     error

	// MaxSteps bounds execution (default 2e9).
	MaxSteps uint64
	// Steps counts executed instructions.
	Steps uint64
	// Interrupt, when set, is polled every pollSteps steps; a non-nil
	// return stops the run with that error. The poll only observes: a
	// run that completes is identical whether or not Interrupt was set.
	Interrupt func() error
	// stop is the step count past which the dispatch loops leave their
	// one-comparison fast path: MaxSteps, or the next Interrupt poll
	// when that comes first.
	stop uint64

	depth int
}

// MaxCallDepth bounds recursion.
const MaxCallDepth = 256

// pollSteps is how many steps run between Interrupt polls.
const pollSteps = 1 << 16

// defaultMaxSteps is every new machine's step budget.
const defaultMaxSteps = 2_000_000_000

// New prepares a block-interpreter machine: persistent arrays are created
// as PMOs in the runtime's manager (or reopened when they already exist,
// supporting cross-run persistence), volatile arrays are zero-initialized.
func New(prog *ir.Program, ctx *core.ThreadCtx) (*Machine, error) {
	m := &Machine{
		prog:     prog,
		ctx:      ctx,
		pmos:     make([]*pmo.PMO, len(prog.PMOs)),
		elems:    make([]int64, len(prog.PMOs)),
		dram:     make([][]int64, len(prog.DRAMs)),
		dramBase: make([]uint64, len(prog.DRAMs)),
		MaxSteps: defaultMaxSteps,
	}
	mgr := ctx.Runtime().Manager()
	for i, d := range prog.PMOs {
		p, err := mgr.Open(d.Name)
		if errors.Is(err, pmo.ErrNotFound) {
			p, err = mgr.Create(d.Name, uint64(d.Elems)*8+pmo.DataStart, pmo.ModeRead|pmo.ModeWrite)
		}
		if err != nil {
			return nil, err
		}
		m.pmos[i] = p
		m.elems[i] = int64(d.Elems)
	}
	base := uint64(1) << 20
	for i, d := range prog.DRAMs {
		m.dram[i] = make([]int64, d.Elems)
		m.dramBase[i] = base
		base += uint64(d.Elems)*8 + 4096
	}
	return m, nil
}

// NewLinked prepares a machine that executes the linked program form on
// the zero-allocation access path. PMO and DRAM state is created exactly
// as New does (the linked form shares its program's declarations).
func NewLinked(l *ir.Linked, ctx *core.ThreadCtx) (*Machine, error) {
	m, err := New(l.Prog, ctx)
	if err != nil {
		return nil, err
	}
	m.linked = l
	return m, nil
}

// Worker returns a machine for another simulated thread of m's run; ctx
// must come from m's runtime. The worker runs m's program on m's engine
// and shares m's arrays: the PMOs and, OpenMP-style, the volatile arrays.
// It has its own registers, frames, Steps, step budget and Interrupt.
func (m *Machine) Worker(ctx *core.ThreadCtx) *Machine {
	return &Machine{prog: m.prog, linked: m.linked, ctx: ctx, MaxSteps: defaultMaxSteps,
		pmos: m.pmos, elems: m.elems, dram: m.dram, dramBase: m.dramBase}
}

// PMOs returns the PMOs backing the persistent arrays, in declaration
// order. The slice is the machine's own table; callers must not modify it.
func (m *Machine) PMOs() []*pmo.PMO { return m.pmos }

// Run executes the named function with the given arguments and returns
// its result. A stepper thread runs it with Start, Step and Result.
func (m *Machine) Run(fn string, args ...int64) (int64, error) {
	if err := m.Start(fn, args...); err != nil {
		return 0, err
	}
	m.Step()
	return m.Result()
}

// Start readies the machine to run the named function with the given
// arguments; Step runs it.
func (m *Machine) Start(fn string, args ...int64) error {
	m.setStop()
	m.result, m.err, m.depth, m.pending = 0, nil, 0, false
	if m.linked == nil {
		if m.entry, m.args = m.prog.Funcs[fn], args; m.entry == nil {
			return fmt.Errorf("%w: %q", ErrNoFunc, fn)
		}
		return nil
	}
	f, ok := m.linked.Func(fn)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoFunc, fn)
	}
	regs, _ := m.push(f)
	for i, p := range f.Params {
		if i < len(args) {
			regs[p] = args[i]
		}
	}
	return nil
}

// Result returns what the started function returned, or why it failed.
func (m *Machine) Result() (int64, error) { return m.result, m.err }

// setStop sets the step count at which the dispatch loops next leave
// their fast path.
func (m *Machine) setStop() {
	m.stop = m.MaxSteps
	if m.Interrupt != nil {
		m.stop = min(m.stop, m.Steps+pollSteps)
	}
}

// pastStop runs once Steps passes the stop: past MaxSteps the run fails
// with ErrSteps; otherwise Interrupt is due, and when it returns nil the
// next stop is set.
func (m *Machine) pastStop() error {
	if m.Steps > m.MaxSteps {
		return ErrSteps
	}
	if err := m.Interrupt(); err != nil {
		return err
	}
	m.setStop()
	return nil
}

func (m *Machine) call(f *ir.Func, args []int64) (int64, error) {
	if m.depth >= MaxCallDepth {
		return 0, ErrDepth
	}
	m.depth++
	defer func() { m.depth-- }()
	regs := make([]int64, f.NumRegs)
	for i, p := range f.Params {
		if i < len(args) {
			regs[p] = args[i]
		}
	}
	b := f.Blocks[f.Entry]
	for {
		for _, in := range b.Instrs {
			m.Steps++
			if m.Steps > m.stop {
				if err := m.pastStop(); err != nil {
					return 0, err
				}
			}
			if err := m.exec(&in, regs); err != nil {
				return 0, fmt.Errorf("%s b%d: %w", f.Name, b.ID, err)
			}
		}
		m.ctx.Compute(1) // terminator
		switch b.Term {
		case ir.Ret:
			if b.Cond >= 0 {
				return regs[b.Cond], nil
			}
			return 0, nil
		case ir.Jmp:
			b = f.Blocks[b.Succs[0]]
		case ir.Br:
			if regs[b.Cond] != 0 {
				b = f.Blocks[b.Succs[0]]
			} else {
				b = f.Blocks[b.Succs[1]]
			}
		}
	}
}

func (m *Machine) exec(in *ir.Instr, regs []int64) error {
	switch in.Op {
	case ir.Const:
		m.ctx.Compute(1)
		regs[in.Dst] = in.Imm
	case ir.Mov:
		m.ctx.Compute(1)
		regs[in.Dst] = regs[in.A]
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr,
		ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
		m.ctx.Compute(1)
		regs[in.Dst] = ir.Eval(in.Op, regs[in.A], regs[in.B])
	case ir.Compute:
		m.ctx.Compute(uint64(in.Imm))
	case ir.LoadPM, ir.StorePM:
		oid, err := m.oid(in.Sym, regs[in.A])
		if err != nil {
			return err
		} else if in.Op == ir.StorePM {
			return m.ctx.Store(oid, uint64(regs[in.B]))
		}
		v, err := m.ctx.Load(oid)
		regs[in.Dst] = int64(v)
		return err
	case ir.LoadDRAM, ir.StoreDRAM:
		s := m.dramSlot(in.Sym)
		if s < 0 {
			return fmt.Errorf("interp: unknown array %q", in.Sym)
		}
		arr, idx := m.dram[s], regs[in.A]
		if idx < 0 || idx >= int64(len(arr)) {
			return fmt.Errorf("%w: %s[%d] of %d", ErrBounds, in.Sym, idx, len(arr))
		}
		m.ctx.DRAMAccess(m.dramBase[s] + uint64(idx)*8)
		if in.Op == ir.LoadDRAM {
			regs[in.Dst] = arr[idx]
		} else {
			arr[idx] = regs[in.B]
		}
	case ir.Call:
		callee, ok := m.prog.Funcs[in.Sym]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoFunc, in.Sym)
		}
		args := make([]int64, len(in.Args))
		for i, r := range in.Args {
			args[i] = regs[r]
		}
		m.ctx.Compute(2) // call/return overhead
		v, err := m.call(callee, args)
		if err != nil {
			return err
		}
		if in.Dst >= 0 {
			regs[in.Dst] = v
		}
	case ir.Attach, ir.Detach:
		s := m.pmoSlot(in.Sym)
		if s < 0 {
			return fmt.Errorf("interp: %v unknown PMO %q", in.Op, in.Sym)
		} else if in.Op == ir.Detach {
			return m.ctx.Detach(m.pmos[s])
		}
		return m.ctx.Attach(m.pmos[s], permFromBits(in.Imm))
	default:
		return fmt.Errorf("interp: bad opcode %v", in.Op)
	}
	return nil
}

// pmoSlot and dramSlot resolve a symbol for the block interpreter by
// scanning the program's declarations, apart from ir.Link's resolution;
// -1 means no array of that name is declared.
func (m *Machine) pmoSlot(sym string) int {
	return slices.IndexFunc(m.prog.PMOs, func(d ir.PMODecl) bool { return d.Name == sym })
}

func (m *Machine) dramSlot(sym string) int {
	return slices.IndexFunc(m.prog.DRAMs, func(d ir.DRAMDecl) bool { return d.Name == sym })
}

// oid translates an element index into the PMO object address.
func (m *Machine) oid(sym string, idx int64) (pmo.OID, error) {
	s := m.pmoSlot(sym)
	if s < 0 {
		return pmo.NilOID, fmt.Errorf("interp: unknown PMO %q", sym)
	} else if idx < 0 || idx >= m.elems[s] {
		return pmo.NilOID, fmt.Errorf("%w: %s[%d] of %d", ErrBounds, sym, idx, m.elems[s])
	}
	return pmo.MakeOID(m.pmos[s].ID, pmo.DataStart+uint64(idx)*8), nil
}

// permFromBits decodes an attach's rights, read in bit 0 and write in
// bit 1, as paging.Perm encodes them.
func permFromBits(b int64) paging.Perm { return paging.Perm(b) & paging.ReadWrite }
