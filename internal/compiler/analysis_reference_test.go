package compiler

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/ir"
	"ilp/internal/machine"
)

// This file keeps the map-based CFG analyses of package ir as they were
// before they indexed their tables by block ID, verbatim but for their
// names, as the reference the ID-indexed analyses must match.

func refPreds(f *ir.Func) map[*ir.Block][]*ir.Block {
	preds := make(map[*ir.Block][]*ir.Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

func refReversePostorder(f *ir.Func) []*ir.Block {
	seen := make(map[*ir.Block]bool, len(f.Blocks))
	order := make([]*ir.Block, 0, len(f.Blocks))
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		var sb [2]*ir.Block
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

type refLiveness struct {
	in, out map[*ir.Block]ir.RegSet
}

func refComputeLiveness(f *ir.Func) *refLiveness {
	n := len(f.Blocks)
	words := (f.NumRegs() + 63) / 64
	backing := make([]uint64, 4*n*words)
	sets := func(fam int) []ir.RegSet {
		out := make([]ir.RegSet, n)
		for i := range out {
			off := (fam*n + i) * words
			out[i] = ir.RegSet(backing[off : off+words : off+words])
		}
		return out
	}
	use, def, in, out := sets(0), sets(1), sets(2), sets(3)

	idx := make(map[*ir.Block]int, n)
	var buf []ir.Reg
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
			if dst := in.Def(); dst != ir.NoReg {
				d.Add(dst)
			}
		}
	}

	// Iterate in reverse RPO for fast convergence; the CFG does not change
	// here, so the order is computed once, not per fixpoint round.
	rpo := refReversePostorder(f)
	var sb [2]*ir.Block
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

	lv := &refLiveness{
		in:  make(map[*ir.Block]ir.RegSet, n),
		out: make(map[*ir.Block]ir.RegSet, n),
	}
	for bi, b := range f.Blocks {
		lv.in[b], lv.out[b] = in[bi], out[bi]
	}
	return lv
}

func refDominators(f *ir.Func) map[*ir.Block]*ir.Block {
	rpo := refReversePostorder(f)
	index := map[*ir.Block]int{}
	for i, b := range rpo {
		index[b] = i
	}
	idom := map[*ir.Block]*ir.Block{}
	entry := f.Entry()
	idom[entry] = entry
	preds := refPreds(f)

	intersect := func(a, b *ir.Block) *ir.Block {
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
			var newIdom *ir.Block
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

func refDominates(idom map[*ir.Block]*ir.Block, a, b *ir.Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = idom[b]
	}
	return false
}

type refLoop struct {
	Header *ir.Block
	Blocks map[*ir.Block]bool
	Depth  int
}

func refNaturalLoops(f *ir.Func) []*refLoop {
	idom := refDominators(f)
	preds := refPreds(f)
	byHeader := map[*ir.Block]*refLoop{}
	var loops []*refLoop // in the order their first back edge is found
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if refDominates(idom, s, b) {
				// Back edge b -> s.
				l := byHeader[s]
				if l == nil {
					l = &refLoop{Header: s, Blocks: map[*ir.Block]bool{s: true}}
					byHeader[s] = l
					loops = append(loops, l)
				}
				// Walk predecessors from the tail to collect the body.
				var stack []*ir.Block
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

func refLoopDepths(f *ir.Func) map[*ir.Block]int {
	depth := map[*ir.Block]int{}
	for _, l := range refNaturalLoops(f) {
		for b := range l.Blocks {
			depth[b]++
		}
	}
	return depth
}

// matchAnalyses requires every ID-indexed analysis of f to equal the
// reference: predecessor lists in order, reverse postorder, each block's
// idom, the same loops in the same order with the same bodies and depths,
// per-block loop depths, and the same live-in and live-out sets.
func matchAnalyses(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	name += " " + f.Name
	preds, refP := f.Preds(), refPreds(f)
	for _, b := range f.Blocks {
		if got, want := preds.Of(b), refP[b]; !slices.Equal(got, want) {
			t.Errorf("%s: b%d preds %v, reference %v", name, b.ID, got, want)
		}
	}
	if got, want := f.ReversePostorder(), refReversePostorder(f); !slices.Equal(got, want) {
		t.Errorf("%s: reverse postorder differs from the reference", name)
	}
	dom, refIdom := f.Dominators(), refDominators(f)
	for _, b := range f.Blocks {
		if got, want := dom.Idom(b), refIdom[b]; got != want {
			t.Errorf("%s: b%d idom %v, reference %v", name, b.ID, got, want)
		}
	}
	loops, refL := f.NaturalLoops(), refNaturalLoops(f)
	if len(loops) != len(refL) {
		t.Fatalf("%s: %d loops, reference %d", name, len(loops), len(refL))
	}
	for i, l := range loops {
		r := refL[i]
		if l.Header != r.Header || l.Depth != r.Depth {
			t.Errorf("%s: loop %d header b%d depth %d, reference b%d depth %d", name, i, l.Header.ID, l.Depth, r.Header.ID, r.Depth)
		}
		for _, b := range f.Blocks {
			if l.Blocks.Has(b) != r.Blocks[b] {
				t.Errorf("%s: loop %d: b%d in body %v, reference %v", name, i, b.ID, l.Blocks.Has(b), r.Blocks[b])
			}
		}
	}
	depths, refD := f.LoopDepths(), refLoopDepths(f)
	for _, b := range f.Blocks {
		if depths[b.ID] != refD[b] {
			t.Errorf("%s: b%d loop depth %d, reference %d", name, b.ID, depths[b.ID], refD[b])
		}
	}
	lv, refLv := f.ComputeLiveness(), refComputeLiveness(f)
	for _, b := range f.Blocks {
		if !slices.Equal(lv.In(b), refLv.in[b]) || !slices.Equal(lv.Out(b), refLv.out[b]) {
			t.Errorf("%s: b%d live sets differ from the reference", name, b.ID)
		}
	}
}

// TestAnalysesMatchReference: on every function of every compiled IR —
// the eight benchmarks at O0..O4 at their default unroll and unrolled
// carefully, and the differential suite's random programs at every level —
// the ID-indexed analyses equal the map-based reference.
func TestAnalysesMatchReference(t *testing.T) {
	wide := machine.Base()
	wide.IntTemps, wide.FPTemps = machine.WideTemps, machine.WideTemps
	wide.IntHomes, wide.FPHomes = 10, 10
	check := func(name, src string, opts Options) {
		t.Helper()
		c, err := Compile(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range c.IR.Funcs {
			matchAnalyses(t, name, f)
		}
	}
	for _, b := range benchmarks.All() {
		for lvl := O0; lvl <= O4; lvl++ {
			check(fmt.Sprintf("%s O%d", b.Name, lvl), b.Source, Options{Level: lvl, Unroll: b.DefaultUnroll})
			check(fmt.Sprintf("%s O%d careful", b.Name, lvl), b.Source, Options{Machine: wide, Level: lvl, Unroll: 4, Careful: true})
		}
	}
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		g := &progGen{r: rand.New(rand.NewSource(int64(seed)))}
		src := g.generate(6)
		unroll := 0
		if seed%3 == 0 {
			unroll = 3
		}
		for lvl := O0; lvl <= O4; lvl++ {
			check(fmt.Sprintf("seed %d O%d", seed, lvl), src, Options{Level: lvl, Unroll: unroll})
		}
	}
}
