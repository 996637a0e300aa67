package opt

import (
	"sort"

	"ilp/internal/ir"
	"ilp/internal/isa"
	"ilp/internal/lang/ast"
)

// LoopInvariant hoists loop-invariant computations to loop preheaders —
// the paper's canonical example of a global optimization ("to move
// invariant code out of a loop, we just remove a large computation and
// replace it with a reference to a single temporary", §4.4).
//
// Hoisted instructions are pure operations (and loads whose location is
// provably not written in the loop) whose operands are defined outside the
// loop. Operations that can trap (divide, remainder, float-to-int) are not
// speculated, since a preheader executes even when the loop body might not.
func LoopInvariant(f *ir.Func) bool { return new(Scratch).LoopInvariant(f) }

// LoopInvariant is the package function LoopInvariant on s's storage.
func (s *Scratch) LoopInvariant(f *ir.Func) bool {
	loops := f.NaturalLoops()
	if len(loops) == 0 {
		return false
	}
	// Innermost first so inner invariants can later migrate further out.
	sort.Slice(loops, func(i, j int) bool { return loops[i].Depth > loops[j].Depth })

	h := &s.h
	h.init(f)
	changed := false
	for _, l := range loops {
		if h.hoistLoop(l) {
			changed = true
		}
	}
	if changed {
		f.RemoveUnreachable()
	}
	return changed
}

// hoister is a LoopInvariant call's state, reset for each loop.
type hoister struct {
	f    *ir.Func
	byID []*ir.Block // the function's blocks when the loops were found
	// defCount counts definitions per register across the whole function
	// (non-SSA safety: only hoist single-definition registers). Hoisting
	// moves definitions without adding or removing any, so one count
	// serves every loop.
	defCount []int32
	// What the current loop writes, and what it has hoisted so far.
	definedInLoop, hoisted    ir.RegSet
	storedScalar, storedArray map[*ast.Symbol]bool
	blocks                    []*ir.Block
	toHoist                   []ir.Instr
}

// init readies h for f's loops.
func (h *hoister) init(f *ir.Func) {
	h.f = f
	h.byID = zeroed(h.byID, f.NumBlockIDs())
	h.defCount = zeroed(h.defCount, f.NumRegs())
	words := (f.NumRegs() + 63) / 64
	h.definedInLoop = zeroed(h.definedInLoop, words)
	h.hoisted = zeroed(h.hoisted, words)
	if h.storedScalar == nil {
		h.storedScalar = map[*ast.Symbol]bool{}
		h.storedArray = map[*ast.Symbol]bool{}
	}
	for _, b := range f.Blocks {
		h.byID[b.ID] = b
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				h.defCount[d]++
			}
		}
	}
}

func (h *hoister) hoistLoop(l *ir.Loop) bool {
	f := h.f
	clear(h.definedInLoop)
	clear(h.hoisted)
	clearMap(h.storedScalar)
	clearMap(h.storedArray)

	// The loop's blocks in ID order, so the hoisting order (and thus
	// cycle counts) is the same on every run.
	h.blocks = h.blocks[:0]
	l.Blocks.ForEach(func(id int) { h.blocks = append(h.blocks, h.byID[id]) })

	// What the loop writes.
	hasCall := false
	for _, b := range h.blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.NoReg {
				h.definedInLoop.Add(d)
			}
			switch in.Kind {
			case ir.KStoreVar:
				h.storedScalar[in.Sym] = true
			case ir.KStoreElem:
				h.storedArray[in.Sym] = true
			case ir.KCall:
				hasCall = true
			}
		}
	}

	if hasCall {
		// Calls may rewrite any pinned home register (promoted globals).
		for r := range f.Pinned {
			h.definedInLoop.Add(r)
		}
	}
	invariantReg := func(r ir.Reg) bool {
		return r == ir.NoReg || !h.definedInLoop.Has(r) || h.hoisted.Has(r)
	}
	h.toHoist = h.toHoist[:0]
	var buf [8]ir.Reg

	// Iterate: hoisting one instruction can make another invariant.
	for again := true; again; {
		again = false
		for _, b := range h.blocks {
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				in := b.Instrs[i]
				if canHoist(&in, invariantReg, h.defCount, h.storedScalar, h.storedArray, hasCall, &buf) {
					h.toHoist = append(h.toHoist, in)
					h.hoisted.Add(in.Def())
					again = true
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
	}
	if len(h.toHoist) == 0 {
		return false
	}

	// Build the preheader and retarget entering edges.
	ph := f.NewBlock()
	ph.Instrs = make([]ir.Instr, 0, len(h.toHoist)+1)
	ph.Instrs = append(ph.Instrs, h.toHoist...)
	ph.Instrs = append(ph.Instrs, ir.Instr{
		Kind: ir.KJmp, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg,
		Targets: [2]*ir.Block{l.Header},
	})
	for _, b := range f.Blocks {
		if b == ph || l.Blocks.Has(b) {
			continue
		}
		t := b.Terminator()
		if t == nil {
			continue
		}
		for k := range t.Targets {
			if t.Targets[k] == l.Header {
				t.Targets[k] = ph
			}
		}
	}
	return true
}

func canHoist(in *ir.Instr, invariantReg func(ir.Reg) bool, defCount []int32,
	storedScalar, storedArray map[*ast.Symbol]bool, hasCall bool, buf *[8]ir.Reg) bool {

	d := in.Def()
	if d == ir.NoReg || defCount[d] != 1 {
		return false
	}
	for _, u := range in.Uses((*buf)[:0]) {
		if !invariantReg(u) {
			return false
		}
	}
	switch in.Kind {
	case ir.KOp:
		switch in.Op {
		case isa.OpDiv, isa.OpRem, isa.OpCvtfi:
			return false // may trap; do not speculate
		}
		return in.Op.Info().HasDst
	case ir.KLoadVar:
		if storedScalar[in.Sym] {
			return false
		}
		// Calls in the loop may write global scalars, never locals or
		// parameters (TL has no pointers).
		if hasCall && in.Sym.Kind == ast.SymGlobal {
			return false
		}
		return true
	case ir.KLoadElem:
		if storedArray[in.Sym] || hasCall {
			return false
		}
		return true
	}
	return false
}
