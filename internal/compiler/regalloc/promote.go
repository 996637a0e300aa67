// Package regalloc implements both halves of the paper's register story:
//
//   - PromoteHomes is the global register allocator [16]: it assigns the
//     "home location" part of the register file to local and global
//     variables, using call-graph interference the way Wall's link-time
//     allocator did (two functions' locals may share a home register only
//     if the functions can never be active simultaneously).
//
//   - Allocate is the local allocator: it maps expression temporaries
//     (virtual registers) onto the "temporaries" part of the register
//     file with a linear scan, spilling to stack slots when the paper's
//     16-temporary budget (or the 40-temporary unrolling budget) runs out.
//
// The split mirrors §3: "Our compiler divides the register set into two
// disjoint parts. It uses one part as temporaries for short-term
// expressions ... It uses the other part as home locations for local and
// global variables."
package regalloc

import (
	"sort"

	"ilp/internal/ir"
	"ilp/internal/isa"
	"ilp/internal/lang/ast"
	"ilp/internal/machine"
)

// PoolBase is the physical register pool layout: the 50 allocatable
// registers per file are r10..r59 (f10..f59), first the temporaries, then
// the home locations. Registers below PoolBase (and r60/r62) are fixed by
// the software conventions in package isa; the machine-code verifier
// rejects any register outside the conventions and the configured split.
const PoolBase = 10

// TempPhys returns the i'th temporary register of the class.
func TempPhys(c ir.RegClass, i int) isa.Reg {
	if c == ir.RFP {
		return isa.F(PoolBase + i)
	}
	return isa.R(PoolBase + i)
}

// HomePhys returns the i'th home register of the class given the
// temporary-pool size.
func HomePhys(c ir.RegClass, temps, i int) isa.Reg {
	if c == ir.RFP {
		return isa.F(PoolBase + temps + i)
	}
	return isa.R(PoolBase + temps + i)
}

// loopWeight is the per-nesting-level multiplier for usage estimates.
const loopWeight = 10

// candidate is a variable considered for a home register.
type candidate struct {
	sym    *ast.Symbol
	fn     *ir.Func // nil for globals
	weight int64
	class  ir.RegClass
}

// PromoteHomes performs global register allocation: the most-used global
// scalars and function locals/parameters move from memory into home
// registers. It rewrites LoadVar/StoreVar of promoted symbols into register
// moves and records the assignment in p.Promoted (the code generator uses
// it to initialize promoted globals and parameters).
func PromoteHomes(p *ir.Program, cfg *machine.Config) {
	if p.Promoted == nil {
		p.Promoted = map[*ast.Symbol]isa.Reg{}
	}
	reach := callReach(p)
	// Two functions interfere if they can be active at the same time:
	// one reachable from the other in the call graph.
	interferes := func(a, b string) bool { return reach[a][b] || reach[b][a] }

	// Gather candidates with static usage weights.
	var cands []candidate
	bySym := map[*ast.Symbol]int{} // index into cands
	for _, f := range p.Funcs {
		depths := f.LoopDepths()
		for _, b := range f.Blocks {
			w := int64(1)
			for d := 0; d < depths[b.ID] && d < 6; d++ {
				w *= loopWeight
			}
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Kind != ir.KLoadVar && in.Kind != ir.KStoreVar {
					continue
				}
				sym := in.Sym
				k, ok := bySym[sym]
				if !ok {
					cl := ir.RInt
					if sym.Type == ast.Real {
						cl = ir.RFP
					}
					c := candidate{sym: sym, class: cl}
					if sym.Kind != ast.SymGlobal {
						c.fn = f
					}
					k = len(cands)
					bySym[sym] = k
					cands = append(cands, c)
				}
				cands[k].weight += w
			}
		}
	}

	// Locals of recursive functions (those that can reach themselves)
	// cannot live in home registers: a second activation would clobber
	// the first.
	eligible := cands[:0]
	for _, c := range cands {
		if c.fn != nil && reach[c.fn.Name][c.fn.Name] {
			continue
		}
		eligible = append(eligible, c)
	}
	cands = eligible

	sort.SliceStable(cands, func(i, j int) bool { return cands[i].weight > cands[j].weight })

	// Greedy assignment into the home pools: each candidate takes the
	// lowest home that no conflicting candidate already holds.
	homes := [...]int{ir.RInt: cfg.IntHomes, ir.RFP: cfg.FPHomes}
	temps := [...]int{ir.RInt: cfg.IntTemps, ir.RFP: cfg.FPTemps}
	home := make([]int, len(cands)) // -1 while unassigned
	conflict := func(a, b *candidate) bool {
		if a.fn == nil || b.fn == nil {
			return true // globals are live everywhere
		}
		if a.fn == b.fn {
			return true
		}
		return interferes(a.fn.Name, b.fn.Name)
	}
	for i := range cands {
		c := &cands[i]
		home[i] = -1
		var held [machine.AvailableRegs]bool // homes taken by a conflicting candidate
		for j := range cands[:i] {
			if h := home[j]; h >= 0 && cands[j].class == c.class && !held[h] && conflict(c, &cands[j]) {
				held[h] = true
			}
		}
		for h := 0; h < homes[c.class]; h++ {
			if !held[h] {
				home[i] = h
				p.Promoted[c.sym] = HomePhys(c.class, temps[c.class], h)
				break
			}
		}
	}

	// Rewrite accesses of promoted symbols to moves through pinned
	// virtual registers.
	pinnedOf := map[*ast.Symbol]ir.Reg{} // per function
	for _, f := range p.Funcs {
		clear(pinnedOf)
		pin := func(sym *ast.Symbol, cl ir.RegClass) ir.Reg {
			if r, ok := pinnedOf[sym]; ok {
				return r
			}
			r := f.NewPinnedReg(cl, p.Promoted[sym])
			pinnedOf[sym] = r
			return r
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Kind != ir.KLoadVar && in.Kind != ir.KStoreVar {
					continue
				}
				sym := in.Sym
				if _, prom := p.Promoted[sym]; !prom {
					continue
				}
				cl := ir.RInt
				op := isa.OpMov
				if sym.Type == ast.Real {
					cl, op = ir.RFP, isa.OpFmov
				}
				h := pin(sym, cl)
				if in.Kind == ir.KLoadVar {
					*in = ir.Instr{Kind: ir.KOp, Op: op, Dst: in.Dst, Src1: h, Src2: ir.NoReg}
				} else {
					*in = ir.Instr{Kind: ir.KOp, Op: op, Dst: h, Src1: in.Src1, Src2: ir.NoReg}
				}
			}
		}
	}
}

// callReach returns, per function name, the functions it can call
// directly or transitively (programs have few functions).
func callReach(p *ir.Program) map[string]map[string]bool {
	callees := map[string]map[string]bool{}
	for _, f := range p.Funcs {
		set := map[string]bool{}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Kind == ir.KCall {
					set[b.Instrs[i].Sym.Name] = true
				}
			}
		}
		callees[f.Name] = set
	}
	reach := map[string]map[string]bool{}
	var stack []string
	for name := range callees {
		r := map[string]bool{}
		stack = append(stack[:0], name)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for callee := range callees[cur] {
				if !r[callee] {
					r[callee] = true
					stack = append(stack, callee)
				}
			}
		}
		reach[name] = r
	}
	return reach
}
