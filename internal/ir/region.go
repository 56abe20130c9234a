package ir

import "sort"

// Region is a single-entry single-exit code region (Section V-A): a
// header that dominates every block in the region and an exit block that
// post-dominates every block in it. Exit == -1 denotes the function-level
// region whose exit is the virtual exit node.
type Region struct {
	// Header is the region entry block.
	Header int
	// Exit is the region exit block (not a member), or -1.
	Exit int
	// Blocks is the member set (header included, exit excluded).
	Blocks map[int]bool
	// LET is the longest-execution-time estimate in cycles across all
	// paths of the region, with loops weighted by their trip counts.
	LET uint64
	// Parent is the smallest strictly containing region, or nil.
	Parent *Region
}

// Size returns the number of member blocks.
func (r *Region) Size() int { return len(r.Blocks) }

// Regions is the region hierarchy of one function.
type Regions struct {
	// All holds every region, smallest-first.
	All []*Region
	// Root is the whole-function region.
	Root *Region

	an     *Analysis
	cost   func(int) uint64
	chains [][]*Region // per block: enclosing regions smallest-first
}

// BlockCost is the signature of the per-block cost estimator (the
// conservative cycles-per-instruction model; the insertion pass supplies
// one that knows callee LETs).
type BlockCost func(blockID int) uint64

// BuildRegions enumerates the SESE regions of the function, estimates
// each region's LET, and links the containment hierarchy.
func BuildRegions(f *Func, an *Analysis, cost BlockCost) *Regions {
	rs := &Regions{an: an, cost: cost}
	n := len(f.Blocks)
	reachable := make([]bool, n)
	for _, b := range an.RPO {
		reachable[b] = true
	}

	seen := map[string]bool{}
	for h := 0; h < n; h++ {
		if !reachable[h] {
			continue
		}
		for x := 0; x < n; x++ {
			if x == h || !reachable[x] {
				continue
			}
			if !an.Dominates(h, x) || !an.PostDominates(x, h) {
				continue
			}
			blocks := rs.memberBlocks(h, x)
			if blocks == nil {
				continue
			}
			key := regionKey(blocks, x)
			if seen[key] {
				continue
			}
			seen[key] = true
			r := &Region{Header: h, Exit: x, Blocks: blocks}
			r.LET = rs.let(r)
			rs.All = append(rs.All, r)
		}
	}
	// Whole-function root region.
	root := &Region{Header: f.Entry, Exit: -1, Blocks: map[int]bool{}}
	for _, b := range an.RPO {
		root.Blocks[b] = true
	}
	root.LET = rs.let(root)
	rs.All = append(rs.All, root)
	rs.Root = root

	sort.Slice(rs.All, func(i, j int) bool {
		if rs.All[i].Size() != rs.All[j].Size() {
			return rs.All[i].Size() < rs.All[j].Size()
		}
		if rs.All[i].Header != rs.All[j].Header {
			return rs.All[i].Header < rs.All[j].Header
		}
		return rs.All[i].Exit < rs.All[j].Exit
	})
	// Parent = smallest strictly containing region.
	for i, r := range rs.All {
		for j := i + 1; j < len(rs.All); j++ {
			o := rs.All[j]
			if o.Size() <= r.Size() {
				continue
			}
			if containsAll(o.Blocks, r.Blocks) {
				r.Parent = o
				break
			}
		}
	}
	// Per-block chains.
	rs.chains = make([][]*Region, n)
	for _, r := range rs.All {
		for b := range r.Blocks {
			rs.chains[b] = append(rs.chains[b], r)
		}
	}
	return rs
}

// memberBlocks collects blocks reachable from h without passing x that h
// dominates and x post-dominates; it returns nil if any reached block
// escapes those conditions (not a valid region).
func (rs *Regions) memberBlocks(h, x int) map[int]bool {
	blocks := map[int]bool{h: true}
	stack := []int{h}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range rs.an.Succs[b] {
			if s == x || blocks[s] {
				continue
			}
			if !rs.an.Dominates(h, s) || !rs.an.PostDominates(x, s) {
				return nil
			}
			blocks[s] = true
			stack = append(stack, s)
		}
		if rs.an.f.Blocks[b].Term == Ret {
			// A return inside the candidate escapes the exit.
			return nil
		}
	}
	return blocks
}

func regionKey(blocks map[int]bool, exit int) string {
	ids := sortedKeys(blocks)
	key := make([]byte, 0, len(ids)*3+4)
	for _, id := range ids {
		key = append(key, byte(id), byte(id>>8), ',')
	}
	key = append(key, '|', byte(exit), byte(exit>>8))
	return string(key)
}

func containsAll(outer, inner map[int]bool) bool {
	for b := range inner {
		if !outer[b] {
			return false
		}
	}
	return true
}

// ChainOf returns the enclosing regions of a block, smallest-first. The
// insertion pass walks this chain as the "next-level region" lookup of
// Algorithm 1.
func (rs *Regions) ChainOf(b int) []*Region {
	if b < 0 || b >= len(rs.chains) {
		return nil
	}
	return rs.chains[b]
}

// let estimates the region's longest execution time: the longest weighted
// path from the header through forward (non-back) edges within the
// region, where each block's weight is its cost multiplied by the trip
// counts of all loops that contain it and are nested inside the region.
func (rs *Regions) let(r *Region) uint64 {
	an := rs.an
	// Topological order: RPO restricted to region, ignoring back edges.
	memo := make(map[int]uint64, len(r.Blocks))
	var longest uint64
	for _, b := range an.RPO {
		if !r.Blocks[b] {
			continue
		}
		var in uint64
		for _, p := range an.Preds[b] {
			if !r.Blocks[p] {
				continue
			}
			if an.Dominates(b, p) {
				continue // back edge
			}
			if memo[p] > in {
				in = memo[p]
			}
		}
		w := rs.cost(b) * rs.tripWeight(b, r)
		memo[b] = in + w
		if memo[b] > longest {
			longest = memo[b]
		}
	}
	return longest
}

// tripWeight multiplies the trip counts of all loops containing b whose
// headers lie inside the region: executing the region once executes those
// loop bodies Trips times each. A region nested strictly inside one
// iteration of a loop does not contain the loop header and is unaffected.
func (rs *Regions) tripWeight(b int, r *Region) uint64 {
	w := uint64(1)
	for l := rs.an.LoopOf[b]; l != nil; l = l.Parent {
		if !r.Blocks[l.Header] {
			break
		}
		w *= uint64(l.Trips)
		if w > 1<<40 {
			return 1 << 40 // saturate
		}
	}
	return w
}
