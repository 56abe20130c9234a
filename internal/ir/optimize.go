package ir

// Optimize is the compiler's cleanup pipeline, run before region analysis
// and insertion: block-local constant folding, branch simplification
// (conditional branches on known constants become jumps), and
// unreachable-block elimination with ID compaction. Folding tightens the
// LET estimates the insertion pass works from; dead-block removal keeps
// the region enumeration small.

// OptStats reports what Optimize changed.
type OptStats struct {
	// Folded counts instructions replaced by constants.
	Folded int
	// Branches counts conditional branches turned into jumps.
	Branches int
	// RemovedBlocks counts unreachable blocks eliminated.
	RemovedBlocks int
}

// Optimize runs the pipeline on one function until it reaches a fixed
// point, returning cumulative statistics.
func Optimize(f *Func) OptStats {
	var total OptStats
	for {
		st := foldConstants(f)
		st.RemovedBlocks = removeUnreachable(f)
		total.Folded += st.Folded
		total.Branches += st.Branches
		total.RemovedBlocks += st.RemovedBlocks
		if st.Folded == 0 && st.Branches == 0 && st.RemovedBlocks == 0 {
			return total
		}
	}
}

// foldConstants does block-local constant propagation and folding, plus
// branch simplification when the condition register holds a known
// constant at the terminator.
func foldConstants(f *Func) OptStats {
	var st OptStats
	for _, b := range f.Blocks {
		known := map[int]int64{} // register -> constant value
		kill := func(dst int) { delete(known, dst) }
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case Const:
				known[in.Dst] = in.Imm
			case Mov:
				if v, ok := known[in.A]; ok {
					*in = Instr{Op: Const, Dst: in.Dst, Imm: v}
					known[in.Dst] = v
					st.Folded++
				} else {
					kill(in.Dst)
				}
			case Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr,
				CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE:
				a, okA := known[in.A]
				bv, okB := known[in.B]
				if okA && okB {
					v := Eval(in.Op, a, bv)
					*in = Instr{Op: Const, Dst: in.Dst, Imm: v}
					known[in.Dst] = v
					st.Folded++
				} else {
					kill(in.Dst)
				}
			case LoadPM, LoadDRAM, Call:
				kill(in.Dst)
			case StorePM, StoreDRAM, Compute, Attach, Detach:
				// No register effects.
			default:
				kill(in.Dst)
			}
		}
		if b.Term == Br {
			if v, ok := known[b.Cond]; ok {
				target := b.Succs[1]
				if v != 0 {
					target = b.Succs[0]
				}
				b.Term, b.Cond, b.Succs = Jmp, -1, []int{target}
				st.Branches++
			}
		}
	}
	return st
}

// removeUnreachable prunes blocks not reachable from the entry and
// compacts block IDs, remapping successors.
func removeUnreachable(f *Func) int {
	reachable := make([]bool, len(f.Blocks))
	stack := []int{f.Entry}
	reachable[f.Entry] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[b].Succs {
			if !reachable[s] {
				reachable[s] = true
				stack = append(stack, s)
			}
		}
	}
	removed := 0
	remap := make([]int, len(f.Blocks))
	var kept []*Block
	for i, b := range f.Blocks {
		if !reachable[i] {
			removed++
			remap[i] = -1
			continue
		}
		remap[i] = len(kept)
		kept = append(kept, b)
	}
	if removed == 0 {
		return 0
	}
	for _, b := range kept {
		b.ID = remap[b.ID]
		for j, s := range b.Succs {
			b.Succs[j] = remap[s]
		}
	}
	f.Blocks = kept
	f.Entry = remap[f.Entry]
	return removed
}
