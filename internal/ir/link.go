package ir

import (
	"fmt"
	"sort"
)

// This file defines the linked program form the hot-path execution engine
// runs: a one-time link pass rewrites each Func into a flat, pre-resolved
// instruction stream in which every symbol operand (PMO name, DRAM array
// name, callee) has been replaced by a dense integer slot index, and block
// terminators have become explicit program-counter jumps. The interpreter
// then dispatches without a single map lookup per instruction.
//
// Linking is purely a representation change: the linked form executes the
// same instructions, charges the same simulated cycles and produces the
// same results as interpreting the block-structured Func directly (the
// interp package's equivalence tests hold it to this against interp's
// block interpreter, which resolves symbols without this pass).

// Linked-form terminator opcodes. They live above every regular Op so the
// interpreter can split instruction handling from control transfer with a
// single compare (regular instructions count against the step budget,
// terminators charge one cycle like the block interpreter's terminators).
const (
	// LJmp is an unconditional jump to pc Slot.
	LJmp Op = 64 + iota
	// LBr branches to pc Slot when register A is nonzero, else pc Targ.
	LBr
	// LRet returns register Dst (or no value when Dst < 0).
	LRet
)

// LInstr is one linked instruction. Regular ops keep their Op value and
// register operands; symbol operands are pre-resolved into Slot:
//
//	LoadPM/StorePM/Attach/Detach  Slot = index into Program.PMOs
//	LoadDRAM/StoreDRAM            Slot = index into Program.DRAMs
//	Call                          Slot = index into Linked.Funcs
//	LJmp                          Slot = target pc
//	LBr                           Slot = taken pc, Targ = fallthrough pc
//
// A Slot of -1 marks a symbol that did not resolve at link time; executing
// such an instruction fails with the same error the block interpreter
// reports, so invalid-but-unreached code behaves identically.
type LInstr struct {
	// Op is the opcode (a regular Op, or LJmp/LBr/LRet).
	Op Op
	// Dst, A, B are register operands (see Instr).
	Dst, A, B int32
	// Slot is the pre-resolved symbol slot or branch target (see above).
	Slot int32
	// Targ is the fallthrough pc of LBr.
	Targ int32
	// Block is the source basic-block ID, kept for error messages.
	Block int32
	// Imm is the immediate operand.
	Imm int64
	// Sym is the original symbol, kept only for error messages.
	Sym string
	// Args are pre-narrowed argument registers for Call.
	Args []int32
}

// LFunc is one linked function: a flat code array addressed by pc.
type LFunc struct {
	// Name is the function's symbol.
	Name string
	// Code is the flattened instruction stream.
	Code []LInstr
	// EntryPC is the pc of the entry block's first instruction.
	EntryPC int
	// NumRegs is the register file size.
	NumRegs int
	// Params are the registers that receive arguments.
	Params []int
}

// Linked is a linked program: every function flattened and every symbol
// resolved to a slot. The slot spaces are the declaration orders of
// Prog.PMOs and Prog.DRAMs, and the name-sorted function order for calls,
// so a Linked program is a deterministic function of its Program.
type Linked struct {
	// Prog is the source program (declarations stay authoritative).
	Prog *Program
	// Funcs are the linked functions, sorted by name.
	Funcs []*LFunc
	// Index maps function name to its Funcs slot.
	Index map[string]int
}

// Link flattens and resolves every function of the program. The source
// program is not modified and may keep serving the block interpreter; one
// Linked result is read-only and may back any number of concurrent
// machines.
func Link(p *Program) (*Linked, error) {
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)

	l := &Linked{Prog: p, Index: make(map[string]int, len(names))}
	for i, name := range names {
		l.Index[name] = i
	}
	pmoSlot := make(map[string]int, len(p.PMOs))
	for i, d := range p.PMOs {
		pmoSlot[d.Name] = i
	}
	dramSlot := make(map[string]int, len(p.DRAMs))
	for i, d := range p.DRAMs {
		dramSlot[d.Name] = i
	}
	for _, name := range names {
		f := p.Funcs[name]
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("ir: link: %w", err)
		}
		l.Funcs = append(l.Funcs, linkFunc(f, l.Index, pmoSlot, dramSlot))
	}
	return l, nil
}

// Func returns the linked function by name.
func (l *Linked) Func(name string) (*LFunc, bool) {
	i, ok := l.Index[name]
	if !ok {
		return nil, false
	}
	return l.Funcs[i], true
}

func linkFunc(f *Func, funcIdx map[string]int, pmoSlot, dramSlot map[string]int) *LFunc {
	// Block layout: blocks in ID order, each contributing its straight-line
	// instructions plus one terminator instruction.
	pcOf := make([]int, len(f.Blocks))
	pc := 0
	for i, b := range f.Blocks {
		pcOf[i] = pc
		pc += len(b.Instrs) + 1
	}
	lf := &LFunc{
		Name:    f.Name,
		Code:    make([]LInstr, 0, pc),
		EntryPC: pcOf[f.Entry],
		NumRegs: f.NumRegs,
		Params:  f.Params,
	}
	slotOf := func(table map[string]int, sym string) int32 {
		if s, ok := table[sym]; ok {
			return int32(s)
		}
		return -1
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			li := LInstr{
				Op:    in.Op,
				Dst:   int32(in.Dst),
				A:     int32(in.A),
				B:     int32(in.B),
				Imm:   in.Imm,
				Block: int32(b.ID),
			}
			switch in.Op {
			case LoadPM, StorePM, Attach, Detach:
				li.Slot, li.Sym = slotOf(pmoSlot, in.Sym), in.Sym
			case LoadDRAM, StoreDRAM:
				li.Slot, li.Sym = slotOf(dramSlot, in.Sym), in.Sym
			case Call:
				li.Slot, li.Sym = slotOf(funcIdx, in.Sym), in.Sym
				li.Args = make([]int32, len(in.Args))
				for j, r := range in.Args {
					li.Args[j] = int32(r)
				}
			}
			lf.Code = append(lf.Code, li)
		}
		term := LInstr{Block: int32(b.ID)}
		switch b.Term {
		case Jmp:
			term.Op, term.Slot = LJmp, int32(pcOf[b.Succs[0]])
		case Br:
			term.Op = LBr
			term.A = int32(b.Cond)
			term.Slot, term.Targ = int32(pcOf[b.Succs[0]]), int32(pcOf[b.Succs[1]])
		case Ret:
			term.Op, term.Dst = LRet, int32(b.Cond)
		}
		lf.Code = append(lf.Code, term)
	}
	return lf
}
