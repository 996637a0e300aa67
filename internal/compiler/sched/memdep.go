// Package sched is the pipeline instruction scheduler of the paper's
// toolchain [17]: it reorders instructions within basic blocks, driven by
// the machine description, "so that the resulting stall time will be
// minimized" (§3).
//
// Its memory dependence analysis has two modes, mirroring §4.4:
//
//   - conservative (default): "the scheduler must assume that two memory
//     locations are the same unless it can prove otherwise" — any store
//     orders against any other variable or array access. Compiler-generated
//     spill slots are still disambiguated (they can never be aliased), and
//     program output stays in order.
//
//   - careful: the memory analysis of careful unrolling — distinct
//     variables and arrays are independent (TL has no pointers, so this is
//     the trivially-sharp version of the paper's "interprocedural alias
//     analysis"), and accesses to the same array are disambiguated by
//     symbolic affine addresses, "so that stores from early copies of the
//     loop do not interfere with loads in later copies".
package sched

import (
	"math"

	"ilp/internal/ir"
	"ilp/internal/isa"
)

// maxTerms bounds the linear form before collapsing to an opaque value.
const maxTerms = 6

// linear is a symbolic address: a sum of opaque terms plus a constant. It
// is a plain value: its n terms are held inline in ascending order and the
// unused slots are zero, which no term is, so two linears are equal exactly
// when their terms and constants are.
type linear struct {
	terms [maxTerms]int32
	n     int32
	c     int64
}

// term returns the linear form of the single opaque term t.
func term(t int32) linear {
	return linear{terms: [maxTerms]int32{t}, n: 1}
}

// sameBase reports whether two linear forms share exactly the same term
// multiset (so their difference is a compile-time constant).
func sameBase(a, b linear) bool {
	return a.n == b.n && a.terms == b.terms
}

// sum returns a + b for forms holding at most maxTerms terms between them:
// the two sorted term lists merge into one.
func sum(a, b linear) linear {
	out := linear{n: a.n + b.n, c: a.c + b.c}
	i, j := int32(0), int32(0)
	for k := int32(0); k < out.n; k++ {
		if j == b.n || (i < a.n && a.terms[i] <= b.terms[j]) {
			out.terms[k] = a.terms[i]
			i++
		} else {
			out.terms[k] = b.terms[j]
			j++
		}
	}
	return out
}

// exprKey names an opaque expression: its opcode and the operands the
// expression depends on, each zero where the opcode does not read it.
// Equal keys get the same term.
type exprKey struct {
	op   isa.Opcode
	imm  int64
	fimm uint64 // the float immediate's bit pattern
	x, y linear
}

// regSet is a set of registers: bit r%64 of word r/64 stands for r.
type regSet [isa.NumRegs / 64]uint64

func (s *regSet) add(r isa.Reg)      { s[r/64] |= 1 << (r % 64) }
func (s *regSet) has(r isa.Reg) bool { return s[r/64]&(1<<(r%64)) != 0 }

// addrAnalysis tracks symbolic register values through a region so memory
// addresses can be compared. Its tables are reused from region to region
// (see reset).
type addrAnalysis struct {
	vals     [isa.NumRegs]linear
	known    regSet // the registers vals holds a value for
	memo     map[exprKey]int32
	nextTerm int32
}

// reset forgets every value and term, ready for a new region.
func (a *addrAnalysis) reset() {
	a.known = regSet{}
	clear(a.memo)
	a.nextTerm = 0
}

// valueOf returns the symbolic value of a register (registers not yet
// written in the region get a per-register opaque term).
func (a *addrAnalysis) valueOf(r isa.Reg) linear {
	if r == isa.RZero {
		return linear{}
	}
	if !a.known.has(r) {
		a.set(r, term(-int32(r)-1))
	}
	return a.vals[r]
}

func (a *addrAnalysis) set(r isa.Reg, v linear) {
	a.vals[r] = v
	a.known.add(r)
}

// opaque returns the canonical term of the expression k, interning a fresh
// one the first time k is seen in the region.
func (a *addrAnalysis) opaque(k exprKey) linear {
	t, ok := a.memo[k]
	if !ok {
		if a.memo == nil {
			a.memo = make(map[exprKey]int32)
		}
		a.nextTerm++
		t = a.nextTerm
		a.memo[k] = t
	}
	return term(t)
}

// step updates the analysis for one instruction and returns the symbolic
// address if it is a data-memory access (ok=false otherwise).
func (a *addrAnalysis) step(in *isa.Instr) (addr linear, isMem bool) {
	info := in.Op.Info()
	if info.Load || (info.Store && in.Op != isa.OpPrinti && in.Op != isa.OpPrintf) {
		addr = a.valueOf(in.Src1)
		addr.c += in.Imm
		isMem = true
	}

	// Transfer function for the destination.
	if !info.HasDst || in.Dst == isa.NoReg || in.Dst == isa.RZero {
		return addr, isMem
	}
	var v linear
	switch in.Op {
	case isa.OpLi:
		v = linear{c: in.Imm}
	case isa.OpMov:
		v = a.valueOf(in.Src1)
	case isa.OpAddi:
		v = a.valueOf(in.Src1)
		v.c += in.Imm
	case isa.OpAdd:
		s1, s2 := a.valueOf(in.Src1), a.valueOf(in.Src2)
		if s1.n+s2.n <= maxTerms {
			v = sum(s1, s2)
		} else {
			v = a.opaque(exprKey{op: in.Op, x: s1, y: s2})
		}
	case isa.OpSub:
		s1, s2 := a.valueOf(in.Src1), a.valueOf(in.Src2)
		if s2.n == 0 {
			v = s1
			v.c -= s2.c
		} else {
			v = a.opaque(exprKey{op: in.Op, x: s1, y: s2})
		}
	case isa.OpSlli:
		// Memoized opaque: identical shift/multiply expressions get the
		// same term, so scaled indices still compare equal.
		v = a.opaque(exprKey{op: in.Op, imm: in.Imm, x: a.valueOf(in.Src1)})
	case isa.OpMul, isa.OpSll:
		v = a.opaque(exprKey{op: in.Op, x: a.valueOf(in.Src1), y: a.valueOf(in.Src2)})
	default:
		// Any other producer: a fresh opaque value per destination
		// definition site is unnecessary — memoizing on operands keeps
		// equal expressions equal, which is strictly more precise and
		// still sound within a straight-line region. The float immediate
		// keys on its bit pattern, so NaN payloads stay distinct.
		k := exprKey{op: in.Op, imm: in.Imm, fimm: math.Float64bits(in.FImm)}
		if info.NSrc >= 1 {
			k.x = a.valueOf(in.Src1)
		}
		if info.NSrc >= 2 {
			k.y = a.valueOf(in.Src2)
		}
		v = a.opaque(k)
	}
	a.set(in.Dst, v)
	return addr, isMem
}

// memAccess is the dependence-relevant footprint of one instruction.
type memAccess struct {
	ref     ir.MemRef
	isStore bool
	addr    linear
	hasAddr bool
}

// depends reports whether access j (later) must stay ordered after access i
// (earlier).
func depends(i, j *memAccess, careful bool) bool {
	a, b := i.ref, j.ref
	// Output stays in program order; it never conflicts with data memory.
	if a.Kind == ir.MemOut || b.Kind == ir.MemOut {
		return a.Kind == ir.MemOut && b.Kind == ir.MemOut
	}
	if a.Kind == ir.MemNone || b.Kind == ir.MemNone {
		return false
	}
	// Two loads never conflict.
	if !i.isStore && !j.isStore {
		return false
	}
	// Spill slots are compiler-private: exact disambiguation always.
	if a.Kind == ir.MemSpill || b.Kind == ir.MemSpill {
		return a.Kind == ir.MemSpill && b.Kind == ir.MemSpill && a.Slot == b.Slot
	}
	// Distinct named arrays never overlap, even for the baseline
	// scheduler (array variables cannot alias in Modula-2 either); the
	// ambiguity the paper describes is scalars versus array elements,
	// because VAR parameters can alias scalars.
	if a.Kind == ir.MemArray && b.Kind == ir.MemArray && a.Sym != b.Sym {
		return false
	}
	if !careful {
		// Conservative otherwise: a store conflicts with any other
		// variable or same-array access, like the paper's baseline
		// scheduler ("the scheduler must assume that two memory
		// locations are the same unless it can prove otherwise").
		return true
	}
	// Careful mode: distinct symbols cannot alias.
	if a.Sym != b.Sym {
		return false
	}
	if a.Kind == ir.MemScalar {
		return true // same scalar: same address
	}
	// Same array: affine disambiguation.
	if i.hasAddr && j.hasAddr && sameBase(i.addr, j.addr) {
		return i.addr.c == j.addr.c
	}
	return true
}
