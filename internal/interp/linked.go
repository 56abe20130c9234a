package interp

// The linked execution engine: runs the flat, pre-resolved program form
// produced by ir.Link. Three things make it fast relative to the block
// interpreter while charging exactly the same simulated cycles:
//
//   - Symbol operands were resolved at link time, so LoadPM/StorePM/
//     LoadDRAM/StoreDRAM/Call/Attach/Detach index the machine's tables by
//     slot instead of scanning the program's declarations.
//   - Block terminators are explicit pc jumps inside one flat code array,
//     so dispatch is a single bounds-checked slice index.
//   - Call frames come from a pooled stack: a finished call's register
//     file is zeroed and reused by the next call instead of allocating a
//     fresh []int64 per invocation.
//
// Determinism contract: for any program, the linked engine must produce
// the same results, the same Steps count and the same cycle charges as the
// block interpreter (linked_test.go enforces this over random programs;
// TestCellsMatchReference in internal/core enforces it over SPEC cells).

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/pmo"
)

// invokeLinked is the top-level entry: allocate (or reuse) a frame, bind
// arguments and execute.
func (m *Machine) invokeLinked(f *ir.LFunc, args []int64) (int64, error) {
	if m.depth >= MaxCallDepth {
		return 0, ErrDepth
	}
	m.depth++
	regs := m.getFrame(f.NumRegs)
	for i, p := range f.Params {
		if i < len(args) {
			regs[p] = args[i]
		}
	}
	v, err := m.execLinked(f, regs)
	m.putFrame(regs)
	m.depth--
	return v, err
}

// callLinked invokes a callee from inside the engine, copying argument
// registers straight from the caller's frame into the callee's (the block
// interpreter materializes an intermediate args slice; skipping it is
// observationally identical because the frames are distinct).
func (m *Machine) callLinked(f *ir.LFunc, caller []int64, argv []int32) (int64, error) {
	if m.depth >= MaxCallDepth {
		return 0, ErrDepth
	}
	m.depth++
	regs := m.getFrame(f.NumRegs)
	for i, p := range f.Params {
		if i < len(argv) {
			regs[p] = caller[argv[i]]
		}
	}
	v, err := m.execLinked(f, regs)
	m.putFrame(regs)
	m.depth--
	return v, err
}

// getFrame pops a pooled register file (zeroed, like a fresh make) or
// allocates one when the pool is empty or too small.
func (m *Machine) getFrame(n int) []int64 {
	if k := len(m.frames) - 1; k >= 0 {
		fr := m.frames[k]
		m.frames = m.frames[:k]
		if cap(fr) >= n {
			fr = fr[:n]
			for i := range fr {
				fr[i] = 0
			}
			return fr
		}
	}
	return make([]int64, n)
}

// putFrame returns a frame to the pool.
func (m *Machine) putFrame(fr []int64) {
	m.frames = append(m.frames, fr)
}

// execLinked is the dispatch loop. Cycle accounting mirrors the block
// interpreter instruction for instruction: every regular op counts one
// step against the budget and charges what its block-interpreter case
// charges; terminators charge the one Compute cycle the block loop
// charges and do not count as steps.
func (m *Machine) execLinked(f *ir.LFunc, regs []int64) (int64, error) {
	code := f.Code
	pc := f.EntryPC
	for {
		in := &code[pc]
		if in.Op < ir.LJmp {
			m.Steps++
			if m.Steps > m.stop {
				if err := m.pastStop(); err != nil {
					return 0, err
				}
			}
		}
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
		case ir.LoadPM:
			slot := in.Slot
			if slot < 0 {
				return 0, wrapLinked(f, in, fmt.Errorf("interp: unknown PMO %q", in.Sym))
			}
			idx := regs[in.A]
			if uint64(idx) >= uint64(m.elems[slot]) {
				return 0, wrapLinked(f, in, fmt.Errorf("%w: %s[%d] of %d", ErrBounds, in.Sym, idx, m.elems[slot]))
			}
			v, err := m.ctx.Load(pmo.MakeOID(m.pmos[slot].ID, pmo.DataStart+uint64(idx)*8))
			if err != nil {
				return 0, wrapLinked(f, in, err)
			}
			regs[in.Dst] = int64(v)
		case ir.StorePM:
			slot := in.Slot
			if slot < 0 {
				return 0, wrapLinked(f, in, fmt.Errorf("interp: unknown PMO %q", in.Sym))
			}
			idx := regs[in.A]
			if uint64(idx) >= uint64(m.elems[slot]) {
				return 0, wrapLinked(f, in, fmt.Errorf("%w: %s[%d] of %d", ErrBounds, in.Sym, idx, m.elems[slot]))
			}
			oid := pmo.MakeOID(m.pmos[slot].ID, pmo.DataStart+uint64(idx)*8)
			if err := m.ctx.Store(oid, uint64(regs[in.B])); err != nil {
				return 0, wrapLinked(f, in, err)
			}
		case ir.LoadDRAM:
			slot := in.Slot
			if slot < 0 {
				return 0, wrapLinked(f, in, fmt.Errorf("interp: unknown array %q", in.Sym))
			}
			arr := m.dram[slot]
			idx := regs[in.A]
			if uint64(idx) >= uint64(len(arr)) {
				return 0, wrapLinked(f, in, fmt.Errorf("%w: %s[%d] of %d", ErrBounds, in.Sym, idx, len(arr)))
			}
			m.ctx.DRAMAccess(m.dramBase[slot]+uint64(idx)*8, 8)
			regs[in.Dst] = arr[idx]
		case ir.StoreDRAM:
			slot := in.Slot
			if slot < 0 {
				return 0, wrapLinked(f, in, fmt.Errorf("interp: unknown array %q", in.Sym))
			}
			arr := m.dram[slot]
			idx := regs[in.A]
			if uint64(idx) >= uint64(len(arr)) {
				return 0, wrapLinked(f, in, fmt.Errorf("%w: %s[%d] of %d", ErrBounds, in.Sym, idx, len(arr)))
			}
			m.ctx.DRAMAccess(m.dramBase[slot]+uint64(idx)*8, 8)
			arr[idx] = regs[in.B]
		case ir.Call:
			if in.Slot < 0 {
				return 0, wrapLinked(f, in, fmt.Errorf("%w: %q", ErrNoFunc, in.Sym))
			}
			callee := m.linked.Funcs[in.Slot]
			m.ctx.Compute(2) // call/return overhead
			v, err := m.callLinked(callee, regs, in.Args)
			if err != nil {
				return 0, wrapLinked(f, in, err)
			}
			if in.Dst >= 0 {
				regs[in.Dst] = v
			}
		case ir.Attach:
			if in.Slot < 0 {
				return 0, wrapLinked(f, in, fmt.Errorf("interp: attach unknown PMO %q", in.Sym))
			}
			if err := m.ctx.Attach(m.pmos[in.Slot], permFromBits(in.Imm)); err != nil {
				return 0, wrapLinked(f, in, err)
			}
		case ir.Detach:
			if in.Slot < 0 {
				return 0, wrapLinked(f, in, fmt.Errorf("interp: detach unknown PMO %q", in.Sym))
			}
			if err := m.ctx.Detach(m.pmos[in.Slot]); err != nil {
				return 0, wrapLinked(f, in, err)
			}
		case ir.LJmp:
			m.ctx.Compute(1)
			pc = int(in.Slot)
			continue
		case ir.LBr:
			m.ctx.Compute(1)
			if regs[in.A] != 0 {
				pc = int(in.Slot)
			} else {
				pc = int(in.Targ)
			}
			continue
		case ir.LRet:
			m.ctx.Compute(1)
			if in.Dst >= 0 {
				return regs[in.Dst], nil
			}
			return 0, nil
		default:
			return 0, wrapLinked(f, in, fmt.Errorf("interp: bad opcode %v", in.Op))
		}
		pc++
	}
}

// wrapLinked matches the block interpreter's error context ("func bN:").
func wrapLinked(f *ir.LFunc, in *ir.LInstr, err error) error {
	return fmt.Errorf("%s b%d: %w", f.Name, in.Block, err)
}
