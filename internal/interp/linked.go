package interp

// The linked execution engine runs the flat, pre-resolved program form
// ir.Link produces, charging exactly the block interpreter's cycles:
//
//   - Symbol operands were resolved at link time to table slots.
//   - Block terminators are pc jumps inside one flat code array.
//   - Calls push frames on an explicit stack whose register files later
//     calls reuse. Since no call recurses on the Go stack, a thread
//     switch is a return to sim.Machine.Run (see Step).
//
// Determinism contract: for any program, the linked engine must produce
// the same results, the same Steps count and the same cycle charges as the
// block interpreter (linked_test.go enforces this over random programs;
// TestCellsMatchReference in internal/core enforces it over SPEC cells).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/paging"
	"repro/internal/pmo"
)

// frame is one call on the linked engine's stack: the function, its
// register file and its pc, which in a caller is the pc of its Call.
type frame struct {
	f    *ir.LFunc
	pc   int
	regs []int64
}

// push enters f and returns its register file, zeroed like a fresh make:
// the file an earlier call left at this depth when it is large enough.
func (m *Machine) push(f *ir.LFunc) ([]int64, error) {
	if m.depth >= MaxCallDepth {
		return nil, ErrDepth
	}
	if m.depth == len(m.stack) {
		m.stack = append(m.stack, frame{})
	}
	fr := &m.stack[m.depth]
	m.depth++
	if cap(fr.regs) < f.NumRegs {
		fr.regs = make([]int64, f.NumRegs)
	} else {
		fr.regs = fr.regs[:f.NumRegs]
		clear(fr.regs)
	}
	fr.f, fr.pc = f, f.EntryPC
	return fr.regs, nil
}

// fail ends the run with err, in the top frame's context; each caller
// wraps it in its Call's, as the block interpreter's nested calls do.
func (m *Machine) fail(err error) {
	for m.depth--; m.depth > 0; m.depth-- {
		fr := &m.stack[m.depth-1]
		err = wrapLinked(fr.f, &fr.f.Code[fr.pc], err)
	}
	m.err = err
}

// Step runs the started function until a yield of the machine's thread
// switches to another thread (see sim.Thread.Switched) or until the
// function returns or fails; the next Step goes on from there. A
// switching yield ends an instruction's charge, before its effect. An
// effect on the thread's own registers, pc and frames, which no other
// thread sees, is applied before Step returns. Any other waits for the
// next Step, which does not count the step again: a PM or DRAM access
// reads or writes its word after the threads that ran in between, and a
// Basic attach that waits (core.ErrAttachWaits) executes again. Each op
// charges what its block-interpreter case charges.
func (m *Machine) Step() {
	if m.linked == nil {
		m.result, m.err = m.call(m.entry, m.args)
		return
	}
	if m.depth == 0 {
		return
	}
	th := m.ctx.Thread()
	fr := &m.stack[m.depth-1]
	f, code, pc, regs := fr.f, fr.f.Code, fr.pc, fr.regs
	resumed := m.pending
	m.pending = false
	for !th.Switched() {
		in := &code[pc]
		if in.Op < ir.LJmp && !resumed {
			if m.Steps++; m.Steps > m.stop {
				if err := m.pastStop(); err != nil {
					m.fail(err)
					return
				}
			}
		}
		var err error
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
			idx := regs[in.A]
			if in.Slot < 0 {
				err = fmt.Errorf("interp: unknown PMO %q", in.Sym)
				break
			} else if uint64(idx) >= uint64(m.elems[in.Slot]) {
				err = fmt.Errorf("%w: %s[%d] of %d", ErrBounds, in.Sym, idx, m.elems[in.Slot])
				break
			}
			p, off := m.pmos[in.Slot], pmo.DataStart+uint64(idx)*8
			if !resumed {
				want := paging.PermRead
				if in.Op == ir.StorePM {
					want = paging.PermWrite
				}
				if err = m.ctx.Access(pmo.MakeOID(p.ID, off), want); err != nil {
					break
				}
				if th.Switched() {
					m.stack[m.depth-1].pc, m.pending = pc, true
					return
				}
			}
			if resumed = false; in.Op == ir.LoadPM {
				var v uint64
				v, err = p.Read8(off)
				regs[in.Dst] = int64(v)
			} else {
				err = p.Write8(off, uint64(regs[in.B]))
			}
		case ir.LoadDRAM, ir.StoreDRAM:
			if in.Slot < 0 {
				err = fmt.Errorf("interp: unknown array %q", in.Sym)
				break
			}
			arr, idx := m.dram[in.Slot], regs[in.A]
			if uint64(idx) >= uint64(len(arr)) {
				err = fmt.Errorf("%w: %s[%d] of %d", ErrBounds, in.Sym, idx, len(arr))
				break
			}
			if !resumed {
				if m.ctx.DRAMAccess(m.dramBase[in.Slot] + uint64(idx)*8); th.Switched() {
					m.stack[m.depth-1].pc, m.pending = pc, true
					return
				}
			}
			if resumed = false; in.Op == ir.LoadDRAM {
				regs[in.Dst] = arr[idx]
			} else {
				arr[idx] = regs[in.B]
			}
		case ir.Call:
			if in.Slot < 0 {
				err = fmt.Errorf("%w: %q", ErrNoFunc, in.Sym)
				break
			}
			callee := m.linked.Funcs[in.Slot]
			m.ctx.Compute(2) // call/return overhead
			m.stack[m.depth-1].pc = pc
			var callRegs []int64
			if callRegs, err = m.push(callee); err != nil {
				break
			}
			for i, p := range callee.Params {
				if i < len(in.Args) {
					callRegs[p] = regs[in.Args[i]]
				}
			}
			f, code, pc, regs = callee, callee.Code, callee.EntryPC, callRegs
			continue
		case ir.Attach, ir.Detach:
			if in.Slot < 0 {
				err = fmt.Errorf("interp: %v unknown PMO %q", in.Op, in.Sym)
			} else if resumed = false; in.Op == ir.Detach {
				err = m.ctx.Detach(m.pmos[in.Slot])
			} else if err = m.ctx.Attach(m.pmos[in.Slot], permFromBits(in.Imm)); err == core.ErrAttachWaits {
				m.stack[m.depth-1].pc, m.pending = pc, true
				return
			}
		case ir.LJmp:
			m.ctx.Compute(1)
			pc = int(in.Slot)
			continue
		case ir.LBr:
			m.ctx.Compute(1)
			if pc = int(in.Targ); regs[in.A] != 0 {
				pc = int(in.Slot)
			}
			continue
		case ir.LRet:
			m.ctx.Compute(1)
			var v int64
			if in.Dst >= 0 {
				v = regs[in.Dst]
			}
			if m.depth--; m.depth == 0 {
				m.result = v
				return
			}
			fr := &m.stack[m.depth-1]
			f, code, pc, regs = fr.f, fr.f.Code, fr.pc, fr.regs
			if dst := code[pc].Dst; dst >= 0 {
				regs[dst] = v
			}
		default:
			err = fmt.Errorf("interp: bad opcode %v", in.Op)
		}
		if err != nil {
			m.fail(wrapLinked(f, in, err))
			return
		}
		pc++
	}
	m.stack[m.depth-1].pc = pc
}

// wrapLinked matches the block interpreter's error context ("func bN:").
func wrapLinked(f *ir.LFunc, in *ir.LInstr, err error) error {
	return fmt.Errorf("%s b%d: %w", f.Name, in.Block, err)
}
