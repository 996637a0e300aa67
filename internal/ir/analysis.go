package ir

import "math/bits"

// This file holds the CFG analyses the optimizer and register allocator
// share: reverse postorder, liveness, dominators, and natural loops.

// ReversePostorder returns the blocks reachable from the entry in reverse
// postorder (a topological-ish order good for forward dataflow and for
// linearizing code).
func (f *Func) ReversePostorder() []*Block {
	seen := make(map[*Block]bool, len(f.Blocks))
	order := make([]*Block, 0, len(f.Blocks))
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		var sb [2]*Block
		succs := b.AppendSuccs(sb[:0])
		// Visit the fall-through last so it ends up adjacent in the
		// final order where possible.
		for i := len(succs) - 1; i >= 0; i-- {
			if !seen[succs[i]] {
				dfs(succs[i])
			}
		}
		order = append(order, b)
	}
	dfs(f.Entry())
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// RemoveUnreachable drops blocks not reachable from the entry.
func (f *Func) RemoveUnreachable() {
	reach := map[*Block]bool{}
	var dfs func(b *Block)
	dfs = func(b *Block) {
		reach[b] = true
		for _, s := range b.Succs() {
			if !reach[s] {
				dfs(s)
			}
		}
	}
	dfs(f.Entry())
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
}

// RegSet is a dense bitset over a function's virtual register numbers
// (0..NumRegs-1). Probing a register beyond the set's size reports false
// rather than panicking, so the zero-length set is a valid empty set.
type RegSet []uint64

// NewRegSet returns an empty set sized for nregs virtual registers.
func NewRegSet(nregs int) RegSet { return make(RegSet, (nregs+63)/64) }

// Has reports whether r is in the set.
func (s RegSet) Has(r Reg) bool {
	w := int(r) >> 6
	return w < len(s) && s[w]&(1<<(uint(r)&63)) != 0
}

// Add inserts r.
func (s RegSet) Add(r Reg) { s[int(r)>>6] |= 1 << (uint(r) & 63) }

// Remove deletes r.
func (s RegSet) Remove(r Reg) {
	if w := int(r) >> 6; w < len(s) {
		s[w] &^= 1 << (uint(r) & 63)
	}
}

// Clone returns an independent copy.
func (s RegSet) Clone() RegSet { return append(RegSet(nil), s...) }

// ForEach calls fn for every register in the set, in ascending order.
func (s RegSet) ForEach(fn func(Reg)) {
	for w, word := range s {
		for word != 0 {
			fn(Reg(w<<6 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// Liveness holds per-block live-in/live-out virtual register sets.
type Liveness struct {
	in, out map[*Block]RegSet
}

// In returns the live-in set of b (empty for blocks unknown to the
// analysis). Callers must treat it as read-only; Clone before mutating.
func (lv *Liveness) In(b *Block) RegSet { return lv.in[b] }

// Out returns the live-out set of b, with the same contract as In.
func (lv *Liveness) Out(b *Block) RegSet { return lv.out[b] }

// ComputeLiveness runs the standard backward iterative dataflow. The sets
// are word-parallel bitsets carved from one backing array — per sweep this
// analysis runs on every function at every optimization level for every
// machine configuration, and the per-register map version of it used to be
// the compile pipeline's top allocation site.
func (f *Func) ComputeLiveness() *Liveness {
	n := len(f.Blocks)
	words := (f.NumRegs() + 63) / 64
	backing := make([]uint64, 4*n*words)
	sets := func(fam int) []RegSet {
		out := make([]RegSet, n)
		for i := range out {
			off := (fam*n + i) * words
			out[i] = RegSet(backing[off : off+words : off+words])
		}
		return out
	}
	use, def, in, out := sets(0), sets(1), sets(2), sets(3)

	idx := make(map[*Block]int, n)
	var buf []Reg
	for bi, b := range f.Blocks {
		idx[b] = bi
		u, d := use[bi], def[bi]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			buf = in.Uses(buf[:0])
			for _, r := range buf {
				if !d.Has(r) {
					u.Add(r)
				}
			}
			if dst := in.Def(); dst != NoReg {
				d.Add(dst)
			}
		}
	}

	// Iterate in reverse RPO for fast convergence; the CFG does not change
	// here, so the order is computed once, not per fixpoint round.
	rpo := f.ReversePostorder()
	var sb [2]*Block
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			bi := idx[rpo[i]]
			ob := out[bi]
			for _, s := range rpo[i].AppendSuccs(sb[:0]) {
				si := in[idx[s]]
				for w := range ob {
					if v := ob[w] | si[w]; v != ob[w] {
						ob[w] = v
						changed = true
					}
				}
			}
			// in = use ∪ (out − def), word-parallel.
			ib, ub, db := in[bi], use[bi], def[bi]
			for w := range ib {
				if v := ub[w] | (ob[w] &^ db[w]); v != ib[w] {
					ib[w] = v
					changed = true
				}
			}
		}
	}

	lv := &Liveness{
		in:  make(map[*Block]RegSet, n),
		out: make(map[*Block]RegSet, n),
	}
	for bi, b := range f.Blocks {
		lv.in[b], lv.out[b] = in[bi], out[bi]
	}
	return lv
}

// Dominators computes the immediate-dominator map (entry maps to nil) with
// the Cooper-Harvey-Kennedy iterative algorithm.
func (f *Func) Dominators() map[*Block]*Block {
	rpo := f.ReversePostorder()
	index := map[*Block]int{}
	for i, b := range rpo {
		index[b] = i
	}
	idom := map[*Block]*Block{}
	entry := f.Entry()
	idom[entry] = entry
	preds := f.Preds()

	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *Block
			for _, p := range preds[b] {
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[entry] = nil
	return idom
}

// Dominates reports whether a dominates b under the idom map.
func Dominates(idom map[*Block]*Block, a, b *Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = idom[b]
	}
	return false
}

// Loop is a natural loop: a back edge tail->header plus the body.
type Loop struct {
	Header *Block
	Blocks map[*Block]bool
	// Depth is the nesting depth (1 = outermost).
	Depth int
}

// NaturalLoops finds all natural loops (merging loops that share a header)
// and computes nesting depths. The loops come in the order their first back
// edge is found walking f.Blocks, so passes that number new blocks per loop
// number them the same way on every run.
func (f *Func) NaturalLoops() []*Loop {
	idom := f.Dominators()
	preds := f.Preds()
	byHeader := map[*Block]*Loop{}
	var loops []*Loop // in the order their first back edge is found
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if Dominates(idom, s, b) {
				// Back edge b -> s.
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
					byHeader[s] = l
					loops = append(loops, l)
				}
				// Walk predecessors from the tail to collect the body.
				var stack []*Block
				if !l.Blocks[b] {
					l.Blocks[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range preds[x] {
						if !l.Blocks[p] {
							l.Blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	// Depth: number of loops containing each header.
	for _, l := range loops {
		l.Depth = 0
		for _, m := range loops {
			if m.Blocks[l.Header] {
				l.Depth++
			}
		}
	}
	return loops
}

// LoopDepths returns the nesting depth per block (0 = not in any loop).
func (f *Func) LoopDepths() map[*Block]int {
	depth := map[*Block]int{}
	for _, l := range f.NaturalLoops() {
		for b := range l.Blocks {
			depth[b]++
		}
	}
	return depth
}
