package regalloc

import (
	"cmp"
	"fmt"
	"slices"

	"ilp/internal/ir"
	"ilp/internal/isa"
	"ilp/internal/machine"
)

// Assignment is the result of local allocation: every virtual register of
// the function either has a physical register or a spill slot.
type Assignment struct {
	// Phys maps virtual registers to physical registers; isa.NoReg when
	// spilled.
	Phys []isa.Reg
	// Slot maps virtual registers to spill-slot indices; -1 when in a
	// register.
	Slot []int
	// NumSlots is the number of spill slots the frame needs.
	NumSlots int
}

// PhysOf returns the physical register of a non-spilled vreg.
func (a *Assignment) PhysOf(r ir.Reg) isa.Reg { return a.Phys[r] }

// Spilled reports whether the vreg lives in a stack slot.
func (a *Assignment) Spilled(r ir.Reg) bool { return a.Slot[r] >= 0 }

// scratchPerClass is how many temporaries per file are reserved for
// spill-code addressing; the rest are allocatable.
const scratchPerClass = 2

// Allocate maps the function's virtual registers onto the machine's
// temporary registers with a linear scan over live intervals. Intervals
// that cross a call are spilled outright (every temporary is caller-save;
// home registers, being pinned, survive calls by construction). Spill code
// is inserted into the IR using the reserved scratch temporaries; after
// Allocate returns, every vreg in the (possibly grown) function has an
// entry in the Assignment.
func Allocate(f *ir.Func, cfg *machine.Config) (*Assignment, error) {
	// Pools (minus scratch registers), by class.
	poolSize := [...]int{
		ir.RInt: cfg.IntTemps - scratchPerClass,
		ir.RFP:  cfg.FPTemps - scratchPerClass,
	}
	for cl, n := range poolSize {
		if n < 0 {
			return nil, fmt.Errorf("regalloc: %s: class %d temp pool too small (%d temps, %d reserved for spill code)",
				f.Name, cl, n+scratchPerClass, scratchPerClass)
		}
	}
	scratch := func(cl ir.RegClass, i int) isa.Reg {
		return TempPhys(cl, poolSize[cl]+i)
	}

	// 1. Linearize in reverse postorder: instruction i of a block starting
	// at position p sits at p+2i, and the block's range is [p, p+2n).
	// Liveness at the block's ends and every use and def extend each
	// register's interval, indexed by register.
	order := f.ReversePostorder()
	lv := f.ComputeLiveness()
	nregs := f.NumRegs()
	ivs := make([]interval, nregs)
	touch := func(r ir.Reg, p int) {
		if r == ir.NoReg {
			return
		}
		it := &ivs[r]
		if !it.used {
			*it = interval{start: p, end: p, used: true}
			return
		}
		it.start = min(it.start, p)
		it.end = max(it.end, p)
	}
	var callPositions []int
	var buf [8]ir.Reg
	pos := 0
	for _, b := range order {
		start, end := pos, pos+2*len(b.Instrs)
		lv.In(b).ForEach(func(r ir.Reg) { touch(r, start) })
		lv.Out(b).ForEach(func(r ir.Reg) { touch(r, end) })
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Kind == ir.KCall {
				callPositions = append(callPositions, pos)
			}
			for _, u := range in.Uses(buf[:0]) {
				touch(u, pos)
			}
			if d := in.Def(); d != ir.NoReg {
				touch(d, pos)
			}
			pos += 2
		}
	}

	// 2. Order the intervals by start, then register, and mark those that
	// cross a call: a call position strictly inside. The positions are
	// ascending, so the first one past the start decides.
	all := make([]ir.Reg, 0, nregs)
	for r := range ivs {
		it := &ivs[r]
		if !it.used {
			continue
		}
		all = append(all, ir.Reg(r))
		k, _ := slices.BinarySearch(callPositions, it.start+1)
		it.crossCall = k < len(callPositions) && callPositions[k] < it.end
	}
	slices.SortFunc(all, func(a, b ir.Reg) int {
		if c := cmp.Compare(ivs[a].start, ivs[b].start); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// 3. Linear scan per class.
	a := &Assignment{Phys: make([]isa.Reg, nregs), Slot: make([]int, nregs)}
	for v := range a.Phys {
		a.Phys[v], a.Slot[v] = isa.NoReg, -1
	}
	newSlot := func() int {
		s := a.NumSlots
		a.NumSlots++
		return s
	}
	freeAll := make([]bool, max(poolSize[ir.RInt], poolSize[ir.RFP]))
	physIdx := make([]int, nregs) // pool index of each register holding one
	var active []ir.Reg
	for _, cl := range [...]ir.RegClass{ir.RInt, ir.RFP} {
		free := freeAll[:poolSize[cl]]
		for i := range free {
			free[i] = true
		}
		active = active[:0]
		// Round-robin cursor: reusing the most-recently-freed register
		// would introduce artificial WAR/WAW dependencies between
		// independent computations — exactly the effect the paper warns
		// about ("using the same temporary register for two different
		// values in the same basic block introduces an artificial
		// dependency that can interfere with pipeline scheduling", §3).
		// Rotating through the pool spreads values across temporaries.
		cursor := 0
		expire := func(now int) {
			kept := active[:0]
			for _, r := range active {
				if ivs[r].end < now {
					free[physIdx[r]] = true
					continue
				}
				kept = append(kept, r)
			}
			active = kept
		}
		for _, r := range all {
			it := &ivs[r]
			if f.RegClassOf(r) != cl {
				continue
			}
			if _, pinned := f.Pinned[r]; pinned {
				continue
			}
			if it.crossCall {
				a.Slot[r] = newSlot()
				continue
			}
			expire(it.start)
			found := -1
			for k := 0; k < len(free); k++ {
				i := (cursor + k) % len(free)
				if free[i] {
					found = i
					cursor = (i + 1) % len(free)
					break
				}
			}
			if found >= 0 {
				free[found] = false
				physIdx[r] = found
				a.Phys[r] = TempPhys(cl, found)
				active = append(active, r)
				continue
			}
			// Spill the active interval ending last, or this one.
			victim := r
			for _, act := range active {
				if ivs[act].end > ivs[victim].end {
					victim = act
				}
			}
			if victim != r {
				// Steal the victim's register.
				idx := physIdx[victim]
				a.Phys[victim] = isa.NoReg
				a.Slot[victim] = newSlot()
				kept := active[:0]
				for _, act := range active {
					if act != victim {
						kept = append(kept, act)
					}
				}
				active = kept
				physIdx[r] = idx
				a.Phys[r] = TempPhys(cl, idx)
				active = append(active, r)
			} else {
				a.Slot[r] = newSlot()
			}
		}
	}

	// 4. Insert spill code, rewriting spilled operands through scratch
	// registers. Calls and returns are left alone: the code generator
	// reloads spilled arguments directly into argument registers.
	if a.NumSlots > 0 {
		insertSpillCode(f, a, scratch)
	}

	// 5. Finalize: pinned registers and bounds.
	for len(a.Phys) < f.NumRegs() {
		a.Phys = append(a.Phys, isa.NoReg)
		a.Slot = append(a.Slot, -1)
	}
	for v, phys := range f.Pinned {
		a.Phys[v] = phys
	}
	for v := 0; v < f.NumRegs(); v++ {
		if a.Phys[v] == isa.NoReg && a.Slot[v] < 0 {
			// Never-used register (e.g. optimized away): park it on a
			// scratch so the code generator never sees NoReg.
			a.Phys[v] = scratch(f.RegClassOf(ir.Reg(v)), 0)
		}
	}
	return a, nil
}

// interval is a virtual register's live range in linearized positions.
type interval struct {
	start, end int
	used       bool // the register occurs at all
	crossCall  bool
}

// spillsIn returns how many spill instructions insertSpillCode adds to b:
// before each instruction but calls and returns, a reload per distinct
// spilled source, and after it a store for a spilled destination.
func spillsIn(b *ir.Block, a *Assignment) int {
	var buf [8]ir.Reg
	n := 0
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Kind == ir.KCall || in.Kind == ir.KRet {
			continue
		}
		uses := in.Uses(buf[:0])
		for k, u := range uses {
			if a.Slot[u] >= 0 && !slices.Contains(uses[:k], u) {
				n++
			}
		}
		if d := in.Def(); d != ir.NoReg && a.Slot[d] >= 0 {
			n++
		}
	}
	return n
}

// insertSpillCode rewrites the blocks that touch a spilled register:
// each spilled source is reloaded into a scratch register before its
// instruction, and a spilled destination is written through scratch 0
// and stored after it. The rewritten blocks share one exactly sized
// array; the others keep their instructions.
func insertSpillCode(f *ir.Func, a *Assignment, scratch func(ir.RegClass, int) isa.Reg) {
	total := 0
	for _, b := range f.Blocks {
		if extra := spillsIn(b, a); extra > 0 {
			total += len(b.Instrs) + extra
		}
	}
	var scratchVreg [2][scratchPerClass]ir.Reg // (class, i) -> pinned vreg
	for cl := range scratchVreg {
		for i := range scratchVreg[cl] {
			scratchVreg[cl][i] = ir.NoReg
		}
	}
	getScratch := func(cl ir.RegClass, i int) ir.Reg {
		if r := scratchVreg[cl][i]; r != ir.NoReg {
			return r
		}
		r := f.NewPinnedReg(cl, scratch(cl, i))
		scratchVreg[cl][i] = r
		return r
	}

	out := make([]ir.Instr, 0, total)
	type reload struct{ from, to ir.Reg }
	var buf [8]ir.Reg
	for _, b := range f.Blocks {
		if spillsIn(b, a) == 0 {
			continue
		}
		first := len(out)
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Kind == ir.KCall || in.Kind == ir.KRet {
				out = append(out, in)
				continue
			}
			// Reload spilled sources.
			next := 0
			var rbuf [4]reload
			reloaded := rbuf[:0]
		uses:
			for _, u := range in.Uses(buf[:0]) {
				if a.Slot[u] < 0 {
					continue
				}
				for _, rl := range reloaded {
					if rl.from == u {
						in.ReplaceUses(u, rl.to)
						continue uses
					}
				}
				s := getScratch(f.RegClassOf(u), next)
				next++
				out = append(out, ir.Instr{Kind: ir.KLoadSlot, Dst: s, Src1: ir.NoReg, Src2: ir.NoReg, Imm: int64(a.Slot[u])})
				in.ReplaceUses(u, s)
				reloaded = append(reloaded, reload{u, s})
			}
			// Redirect a spilled destination through scratch 0.
			d := in.Def()
			if d != ir.NoReg && a.Slot[d] >= 0 {
				s := getScratch(f.RegClassOf(d), 0)
				in.Dst = s
				out = append(out, in)
				out = append(out, ir.Instr{Kind: ir.KStoreSlot, Dst: ir.NoReg, Src1: s, Src2: ir.NoReg, Imm: int64(a.Slot[d])})
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out[first:len(out):len(out)]
	}
}
