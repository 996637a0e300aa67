package ir

import "math/bits"

// This file holds the CFG analyses the optimizer and register allocator
// share: predecessors, reverse postorder, liveness, dominators, and natural
// loops. Each indexes its tables by Block.ID (below Func.NumBlockIDs) and
// allocates a fixed number of objects per call, however many blocks and
// registers the function has: the analyses run on every function at every
// optimization level of every front a sweep lowers.

// Preds holds every block's predecessors in one backing array, indexed by
// block ID.
type Preds struct {
	start []int32 // block ID -> first index into list; len NumBlockIDs+1
	list  []*Block
}

// Of returns b's predecessors, in the order of f.Blocks and each block's
// successors (a block branching to b on both edges appears twice). A
// block created after the analysis has none. Callers must not modify it.
func (p Preds) Of(b *Block) []*Block {
	if b.ID+1 >= len(p.start) {
		return nil
	}
	return p.list[p.start[b.ID]:p.start[b.ID+1]:p.start[b.ID+1]]
}

// Preds computes predecessor lists for the current CFG.
func (f *Func) Preds() Preds {
	n := f.NumBlockIDs()
	start := make([]int32, n+1)
	var sb [2]*Block
	edges := 0
	for _, b := range f.Blocks {
		for _, s := range b.AppendSuccs(sb[:0]) {
			start[s.ID+1]++
			edges++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	list := make([]*Block, edges)
	// Fill each block's range from its front, which moves its start to
	// the next block's; then shift the starts back.
	for _, b := range f.Blocks {
		for _, s := range b.AppendSuccs(sb[:0]) {
			list[start[s.ID]] = b
			start[s.ID]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return Preds{start: start, list: list}
}

// dfs is a depth-first walk over the CFG from the entry. It marks every
// block it reaches in seen, by ID, and, when record is set, appends each
// to post once all its successors are done.
type dfs struct {
	seen   []bool
	post   []*Block
	record bool
}

func (w *dfs) visit(b *Block) {
	w.seen[b.ID] = true
	var sb [2]*Block
	succs := b.AppendSuccs(sb[:0])
	// Visit the fall-through last so it ends up adjacent in the final
	// order where possible.
	for i := len(succs) - 1; i >= 0; i-- {
		if !w.seen[succs[i].ID] {
			w.visit(succs[i])
		}
	}
	if w.record {
		w.post = append(w.post, b)
	}
}

// ReversePostorder returns the blocks reachable from the entry in reverse
// postorder (a topological-ish order good for forward dataflow and for
// linearizing code).
func (f *Func) ReversePostorder() []*Block {
	return f.reversePostorder(make([]*Block, 0, len(f.Blocks)), make([]bool, f.NumBlockIDs()))
}

// reversePostorder appends the reverse postorder to order, marking the
// blocks it reaches in seen, which must be all false and NumBlockIDs long.
func (f *Func) reversePostorder(order []*Block, seen []bool) []*Block {
	w := dfs{seen: seen, post: order, record: true}
	w.visit(f.Entry())
	order = w.post
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// RemoveUnreachable drops blocks not reachable from the entry.
func (f *Func) RemoveUnreachable() {
	w := dfs{seen: make([]bool, f.NumBlockIDs())}
	w.visit(f.Entry())
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if w.seen[b.ID] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
}

// RegSet is a dense bitset over a function's virtual register numbers
// (0..NumRegs-1). Probing a register beyond the set's size reports false
// rather than panicking, so the zero-length set is a valid empty set.
type RegSet []uint64

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

// ForEach calls fn for every register in the set, in ascending order.
func (s RegSet) ForEach(fn func(Reg)) {
	for w, word := range s {
		for word != 0 {
			fn(Reg(w<<6 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// Liveness holds per-block live-in/live-out virtual register sets, by
// block ID, carved from one backing array.
type Liveness struct {
	sets  []uint64 // four families of n sets of words words each
	n     int      // block IDs covered
	words int
	// Kept for the next Compute.
	rpo  []*Block
	seen []bool
}

// The families of Liveness.sets.
const (
	liveIn = iota
	liveOut
	liveUse
	liveDef
)

// set returns family fam's set for block ID id, or the empty set for an
// ID the analysis does not cover.
func (lv *Liveness) set(fam, id int) RegSet {
	if id >= lv.n {
		return nil
	}
	off := (fam*lv.n + id) * lv.words
	return RegSet(lv.sets[off : off+lv.words : off+lv.words])
}

// In returns the live-in set of b (empty for blocks created after the
// analysis). Callers must treat it as read-only; copy before mutating.
func (lv *Liveness) In(b *Block) RegSet { return lv.set(liveIn, b.ID) }

// Out returns the live-out set of b, with the same contract as In.
func (lv *Liveness) Out(b *Block) RegSet { return lv.set(liveOut, b.ID) }

// ComputeLiveness runs the standard backward iterative dataflow into a new
// Liveness.
func (f *Func) ComputeLiveness() *Liveness {
	lv := new(Liveness)
	lv.Compute(f)
	return lv
}

// Compute runs the standard backward iterative dataflow over f into lv,
// reusing the storage of lv's last Compute, whose sets it overwrites. The
// sets are word-parallel bitsets carved from one backing array: per sweep
// this analysis runs on every function at every optimization level for
// every register split, and the per-register map version of it used to be
// the compile pipeline's top allocation site.
func (lv *Liveness) Compute(f *Func) {
	n := f.NumBlockIDs()
	words := (f.NumRegs() + 63) / 64
	lv.n, lv.words = n, words
	lv.sets = zeroed(lv.sets, 4*n*words)

	var buf [8]Reg
	for _, b := range f.Blocks {
		u, d := lv.set(liveUse, b.ID), lv.set(liveDef, b.ID)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range in.Uses(buf[:0]) {
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
	lv.seen = zeroed(lv.seen, n)
	if cap(lv.rpo) < len(f.Blocks) {
		lv.rpo = make([]*Block, 0, len(f.Blocks))
	}
	lv.rpo = f.reversePostorder(lv.rpo[:0], lv.seen)
	rpo := lv.rpo
	var sb [2]*Block
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			ob := lv.set(liveOut, b.ID)
			for _, s := range b.AppendSuccs(sb[:0]) {
				si := lv.set(liveIn, s.ID)
				for w := range ob {
					if v := ob[w] | si[w]; v != ob[w] {
						ob[w] = v
						changed = true
					}
				}
			}
			// in = use ∪ (out − def), word-parallel.
			ib, ub, db := lv.set(liveIn, b.ID), lv.set(liveUse, b.ID), lv.set(liveDef, b.ID)
			for w := range ib {
				if v := ub[w] | (ob[w] &^ db[w]); v != ib[w] {
					ib[w] = v
					changed = true
				}
			}
		}
	}
}

// zeroed returns s resized to n elements, all zero, reusing s's array
// when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// DomTree holds each block's immediate dominator, by block ID.
type DomTree struct {
	idom []*Block
}

// Idom returns b's immediate dominator: nil for the entry, for
// unreachable blocks and for blocks created after the analysis.
func (d DomTree) Idom(b *Block) *Block {
	if b.ID >= len(d.idom) {
		return nil
	}
	return d.idom[b.ID]
}

// Dominates reports whether a dominates b.
func (d DomTree) Dominates(a, b *Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = d.Idom(b)
	}
	return false
}

// Dominators computes the immediate-dominator tree with the
// Cooper-Harvey-Kennedy iterative algorithm.
func (f *Func) Dominators() DomTree { return f.dominators(f.Preds()) }

func (f *Func) dominators(preds Preds) DomTree {
	rpo := f.ReversePostorder()
	index := make([]int32, f.NumBlockIDs()) // RPO position by ID
	for i, b := range rpo {
		index[b.ID] = int32(i)
	}
	idom := make([]*Block, f.NumBlockIDs())
	entry := f.Entry()
	idom[entry.ID] = entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a.ID] > index[b.ID] {
				a = idom[a.ID]
			}
			for index[b.ID] > index[a.ID] {
				b = idom[b.ID]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *Block
			for _, p := range preds.Of(b) {
				if idom[p.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	idom[entry.ID] = nil
	return DomTree{idom: idom}
}

// BlockSet is a dense bitset over a function's block IDs. Probing a block
// beyond the set's size, such as one created after the set was built,
// reports false.
type BlockSet []uint64

// Has reports whether b is in the set.
func (s BlockSet) Has(b *Block) bool {
	w := b.ID >> 6
	return w < len(s) && s[w]&(1<<(uint(b.ID)&63)) != 0
}

func (s BlockSet) add(b *Block) { s[b.ID>>6] |= 1 << (uint(b.ID) & 63) }

// ForEach calls fn with the ID of every block in the set, in ascending
// order.
func (s BlockSet) ForEach(fn func(id int)) {
	for w, word := range s {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Loop is a natural loop: a back edge tail->header plus the body.
type Loop struct {
	Header *Block
	// Blocks is the body, the header included.
	Blocks BlockSet
	// Depth is the nesting depth (1 = outermost).
	Depth int
}

// NaturalLoops finds all natural loops (merging loops that share a header)
// and computes nesting depths. The loops come in the order their first back
// edge is found walking f.Blocks, so passes that number new blocks per loop
// number them the same way on every run. The loops and their bodies share
// one backing array each.
func (f *Func) NaturalLoops() []*Loop {
	preds := f.Preds()
	dom := f.dominators(preds)
	n := f.NumBlockIDs()
	var sb [2]*Block

	// One loop per header, numbered in the order its first back edge is
	// found.
	loopOf := make([]int32, n) // header ID -> loop number + 1
	nloops := 0
	for _, b := range f.Blocks {
		for _, s := range b.AppendSuccs(sb[:0]) {
			if dom.Dominates(s, b) && loopOf[s.ID] == 0 {
				nloops++
				loopOf[s.ID] = int32(nloops)
			}
		}
	}
	if nloops == 0 {
		return nil
	}
	words := (n + 63) / 64
	body := make([]uint64, nloops*words)
	all := make([]Loop, nloops)
	loops := make([]*Loop, nloops)
	for _, b := range f.Blocks {
		if k := int(loopOf[b.ID]) - 1; k >= 0 {
			all[k] = Loop{Header: b, Blocks: BlockSet(body[k*words : (k+1)*words : (k+1)*words])}
			all[k].Blocks.add(b)
			loops[k] = &all[k]
		}
	}

	// Walk predecessors from each back edge's tail to collect the body.
	// A block enters the stack at most once per loop.
	stack := make([]*Block, 0, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.AppendSuccs(sb[:0]) {
			if !dom.Dominates(s, b) {
				continue
			}
			l := loops[loopOf[s.ID]-1]
			if !l.Blocks.Has(b) {
				l.Blocks.add(b)
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range preds.Of(x) {
					if !l.Blocks.Has(p) {
						l.Blocks.add(p)
						stack = append(stack, p)
					}
				}
			}
		}
	}
	// Depth: number of loops containing each header.
	for _, l := range loops {
		l.Depth = 0
		for _, m := range loops {
			if m.Blocks.Has(l.Header) {
				l.Depth++
			}
		}
	}
	return loops
}

// LoopDepths returns the nesting depth per block ID (0 = not in any loop).
func (f *Func) LoopDepths() []int {
	depth := make([]int, f.NumBlockIDs())
	for _, l := range f.NaturalLoops() {
		l.Blocks.ForEach(func(id int) { depth[id]++ })
	}
	return depth
}
