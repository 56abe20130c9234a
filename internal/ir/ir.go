// Package ir defines the compiler intermediate representation of the TERP
// reproduction and the control-flow analyses the insertion pass needs:
// CFG construction, dominators and post-dominators, natural loops,
// single-entry single-exit code regions (the "classic code region
// analysis" of Algorithm 1), and longest-execution-time (LET) estimation
// with the paper's assumed trip count for statically unbounded loops.
//
// The IR is a register machine: each function owns an unbounded register
// file of 64-bit integers; basic blocks hold straight-line instructions
// and end in an explicit terminator.
package ir

import (
	"fmt"
	"strings"
)

// Op is an instruction opcode.
type Op int

// The instruction set.
const (
	// Const: Dst = Imm.
	Const Op = iota
	// Mov: Dst = A.
	Mov
	// Add, Sub, Mul, Div, Mod: Dst = A op B (Div/Mod by zero yields 0).
	Add
	Sub
	Mul
	Div
	Mod
	// And, Or, Xor, Shl, Shr: bitwise Dst = A op B.
	And
	Or
	Xor
	Shl
	Shr
	// CmpEQ..CmpGE: Dst = 1 if A op B else 0.
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	// LoadPM: Dst = PMO[Sym] element at index A. Sym names the PMO.
	LoadPM
	// StorePM: PMO[Sym] element at index A = B.
	StorePM
	// LoadDRAM: Dst = element A of volatile array Sym.
	LoadDRAM
	// StoreDRAM: element A of volatile array Sym = B.
	StoreDRAM
	// Compute: Imm cycles of opaque computation (no register effects).
	Compute
	// Call: Dst = Sym(args in Args registers).
	Call
	// Attach: conditional/real attach of PMO Sym with Imm permission
	// bits (1 read, 2 write). Inserted by the compiler pass.
	Attach
	// Detach: conditional/real detach of PMO Sym. Inserted by the pass.
	Detach
)

// String names the opcode.
func (o Op) String() string {
	names := [...]string{"const", "mov", "add", "sub", "mul", "div", "mod",
		"and", "or", "xor", "shl", "shr",
		"cmpeq", "cmpne", "cmplt", "cmple", "cmpgt", "cmpge",
		"loadpm", "storepm", "loaddram", "storedram", "compute", "call",
		"attach", "detach"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Eval returns Dst of the binary integer instruction op (Add through
// CmpGE) with operands a and b. It is the IR's one definition of integer
// semantics, which both interpreter engines share: division and modulus
// by zero yield 0, shift counts are taken mod 64, Shr is a logical shift,
// comparisons yield 1 or 0, and any other op yields 0.
func Eval(op Op, a, b int64) int64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return a / b
	case Mod:
		if b == 0 {
			return 0
		}
		return a % b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shl:
		return a << (uint64(b) & 63)
	case Shr:
		return int64(uint64(a) >> (uint64(b) & 63))
	case CmpEQ:
		return b2i(a == b)
	case CmpNE:
		return b2i(a != b)
	case CmpLT:
		return b2i(a < b)
	case CmpLE:
		return b2i(a <= b)
	case CmpGT:
		return b2i(a > b)
	case CmpGE:
		return b2i(a >= b)
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Instr is one instruction.
type Instr struct {
	// Op is the opcode.
	Op Op
	// Dst is the destination register (where meaningful).
	Dst int
	// A and B are source registers.
	A, B int
	// Imm is the immediate operand (Const value, Compute cycles,
	// Attach permission).
	Imm int64
	// Sym is the symbol operand: PMO name, DRAM array name, or callee.
	Sym string
	// Args are argument registers for Call.
	Args []int
}

// TermKind discriminates block terminators.
type TermKind int

// Terminators.
const (
	// Jmp: unconditional jump to Succs[0].
	Jmp TermKind = iota
	// Br: if Cond register != 0 go to Succs[0] else Succs[1].
	Br
	// Ret: return register Cond (or no value if Cond < 0).
	Ret
)

// Block is one basic block.
type Block struct {
	// ID is the block's index within its function.
	ID int
	// Instrs are the straight-line instructions.
	Instrs []Instr
	// Term is the terminator kind.
	Term TermKind
	// Cond is the branch condition register (Br) or return value
	// register (Ret; -1 for none).
	Cond int
	// Succs are successor block IDs (none for Ret).
	Succs []int
	// TripHint, when positive, is a static bound for the loop this
	// block heads; unbounded loops use DefaultTrips in LET estimation.
	TripHint int
}

// Func is one function.
type Func struct {
	// Name is the function's symbol.
	Name string
	// Blocks are the basic blocks; Blocks[i].ID == i.
	Blocks []*Block
	// Entry is the entry block ID.
	Entry int
	// NumRegs is the register file size.
	NumRegs int
	// Params are the registers that receive arguments.
	Params []int
}

// NewFunc creates an empty function.
func NewFunc(name string) *Func { return &Func{Name: name} }

// NewBlock appends a fresh block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks), Cond: -1}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewReg allocates a fresh register.
func (f *Func) NewReg() int {
	r := f.NumRegs
	f.NumRegs++
	return r
}

// Emit appends an instruction to the block.
func (b *Block) Emit(in Instr) { b.Instrs = append(b.Instrs, in) }

// PMODecl declares a persistent array hosted in its own PMO.
type PMODecl struct {
	// Name is the PMO name (and the array symbol in TPL).
	Name string
	// Elems is the number of 8-byte elements.
	Elems int
}

// DRAMDecl declares a volatile global array.
type DRAMDecl struct {
	// Name is the array symbol.
	Name string
	// Elems is the number of 8-byte elements.
	Elems int
}

// Program is a compilation unit.
type Program struct {
	// Funcs maps function names to bodies.
	Funcs map[string]*Func
	// PMOs are the persistent arrays, each its own PMO.
	PMOs []PMODecl
	// DRAMs are the volatile global arrays.
	DRAMs []DRAMDecl
}

// NewProgram creates an empty program.
func NewProgram() *Program {
	return &Program{Funcs: make(map[string]*Func)}
}

// Validate checks structural invariants: block IDs dense, successors in
// range, terminators consistent. It returns the first problem found.
func (f *Func) Validate() error {
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("ir: %s: block %d has ID %d", f.Name, i, b.ID)
		}
		switch b.Term {
		case Jmp:
			if len(b.Succs) != 1 {
				return fmt.Errorf("ir: %s: block %d jmp with %d succs", f.Name, i, len(b.Succs))
			}
		case Br:
			if len(b.Succs) != 2 {
				return fmt.Errorf("ir: %s: block %d br with %d succs", f.Name, i, len(b.Succs))
			}
		case Ret:
			if len(b.Succs) != 0 {
				return fmt.Errorf("ir: %s: block %d ret with succs", f.Name, i)
			}
		}
		for _, s := range b.Succs {
			if s < 0 || s >= len(f.Blocks) {
				return fmt.Errorf("ir: %s: block %d succ %d out of range", f.Name, i, s)
			}
		}
	}
	if f.Entry < 0 || f.Entry >= len(f.Blocks) {
		return fmt.Errorf("ir: %s: bad entry %d", f.Name, f.Entry)
	}
	return nil
}

// String renders the function for debugging and golden tests.
func (f *Func) String() string {
	s := fmt.Sprintf("func %s (regs=%d)\n", f.Name, f.NumRegs)
	for _, b := range f.Blocks {
		s += fmt.Sprintf("b%d:\n", b.ID)
		for _, in := range b.Instrs {
			switch in.Op {
			case Const:
				s += fmt.Sprintf("  r%d = const %d\n", in.Dst, in.Imm)
			case Compute:
				s += fmt.Sprintf("  compute %d\n", in.Imm)
			case LoadPM, LoadDRAM:
				s += fmt.Sprintf("  r%d = %s %s[r%d]\n", in.Dst, in.Op, in.Sym, in.A)
			case StorePM, StoreDRAM:
				s += fmt.Sprintf("  %s %s[r%d] = r%d\n", in.Op, in.Sym, in.A, in.B)
			case Call:
				s += fmt.Sprintf("  r%d = call %s %v\n", in.Dst, in.Sym, in.Args)
			case Attach:
				s += fmt.Sprintf("  attach %s perm=%d\n", in.Sym, in.Imm)
			case Detach:
				s += fmt.Sprintf("  detach %s\n", in.Sym)
			default:
				s += fmt.Sprintf("  r%d = %s r%d r%d\n", in.Dst, in.Op, in.A, in.B)
			}
		}
		switch b.Term {
		case Jmp:
			s += fmt.Sprintf("  jmp b%d\n", b.Succs[0])
		case Br:
			s += fmt.Sprintf("  br r%d b%d b%d\n", b.Cond, b.Succs[0], b.Succs[1])
		case Ret:
			s += fmt.Sprintf("  ret r%d\n", b.Cond)
		}
	}
	return s
}

// DOT renders the function's CFG in Graphviz format, with PMO accesses
// and inserted attach/detach constructs highlighted — handy for
// inspecting what the insertion pass did (`terpc -dot | dot -Tsvg`).
func (f *Func) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  node [shape=box, fontname=monospace];\n", f.Name)
	for _, blk := range f.Blocks {
		var label strings.Builder
		fmt.Fprintf(&label, "b%d", blk.ID)
		if blk.TripHint > 0 {
			fmt.Fprintf(&label, " (trips=%d)", blk.TripHint)
		}
		attrs := ""
		for _, in := range blk.Instrs {
			switch in.Op {
			case Attach:
				fmt.Fprintf(&label, "\\nattach %s", in.Sym)
				attrs = ", style=filled, fillcolor=lightblue"
			case Detach:
				fmt.Fprintf(&label, "\\ndetach %s", in.Sym)
				if attrs == "" {
					attrs = ", style=filled, fillcolor=lightyellow"
				}
			case LoadPM, StorePM:
				fmt.Fprintf(&label, "\\n%s %s", in.Op, in.Sym)
			}
		}
		fmt.Fprintf(&b, "  b%d [label=\"%s\"%s];\n", blk.ID, label.String(), attrs)
		for i, s := range blk.Succs {
			edge := ""
			if blk.Term == Br && i == 1 {
				edge = " [style=dashed]"
			}
			fmt.Fprintf(&b, "  b%d -> b%d%s;\n", blk.ID, s, edge)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
