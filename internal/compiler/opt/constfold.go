// Package opt implements the classical optimizations of §4.4: constant
// folding and algebraic simplification, local common-subexpression
// elimination with copy propagation and store forwarding, dead-code
// elimination, loop-invariant code motion, reassociation (for careful
// unrolling), and AST-level loop unrolling. Each pass is independent so the
// Figure 4-8 experiment can stack them exactly as the paper does.
package opt

import (
	"math"

	"ilp/internal/ir"
	"ilp/internal/isa"
)

// constVal is a compile-time known register value.
type constVal struct {
	known bool
	fp    bool
	i     int64
	f     float64
}

// ConstFold folds constant computations and strength-reduces within each
// basic block: operations whose operands are known become immediate loads,
// adds/subtracts of a constant become immediate forms, multiplications by
// powers of two become shifts, and algebraic identities (x+0, x*1, x*0)
// simplify. Floating-point identities are left alone (they are not exact),
// but folding of constant float operands is (it performs the same float64
// arithmetic the machine would).
func ConstFold(f *ir.Func) bool { return new(Scratch).ConstFold(f) }

// ConstFold is the package function ConstFold on s's storage.
func (s *Scratch) ConstFold(f *ir.Func) bool {
	changed := false
	if s.consts == nil {
		s.consts = map[ir.Reg]constVal{}
	}
	consts := s.consts
	for _, b := range f.Blocks {
		clearMap(consts)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Kind != ir.KOp {
				if d := in.Def(); d != ir.NoReg {
					delete(consts, d)
				}
				if in.Kind == ir.KCall {
					// A callee may rewrite any pinned home register
					// (promoted globals).
					for r := range f.Pinned {
						delete(consts, r)
					}
				}
				continue
			}
			if foldInstr(in, consts) {
				changed = true
			}
			// Record or invalidate the destination.
			switch in.Op {
			case isa.OpLi:
				consts[in.Dst] = constVal{known: true, i: in.Imm}
			case isa.OpFli:
				consts[in.Dst] = constVal{known: true, fp: true, f: in.FImm}
			default:
				if d := in.Def(); d != ir.NoReg {
					delete(consts, d)
				}
			}
		}
	}
	return changed
}

// setLi rewrites the instruction to load an integer constant.
func setLi(in *ir.Instr, v int64) {
	*in = ir.Instr{Kind: ir.KOp, Op: isa.OpLi, Dst: in.Dst, Src1: ir.NoReg, Src2: ir.NoReg, Imm: v}
}

// setFli rewrites the instruction to load a float constant.
func setFli(in *ir.Instr, v float64) {
	*in = ir.Instr{Kind: ir.KOp, Op: isa.OpFli, Dst: in.Dst, Src1: ir.NoReg, Src2: ir.NoReg, FImm: v}
}

// setMov rewrites the instruction to a register move.
func setMov(in *ir.Instr, fp bool, src ir.Reg) {
	op := isa.OpMov
	if fp {
		op = isa.OpFmov
	}
	*in = ir.Instr{Kind: ir.KOp, Op: op, Dst: in.Dst, Src1: src, Src2: ir.NoReg}
}

// setImmOp rewrites to an immediate-form operation.
func setImmOp(in *ir.Instr, op isa.Opcode, src ir.Reg, imm int64) {
	*in = ir.Instr{Kind: ir.KOp, Op: op, Dst: in.Dst, Src1: src, Src2: ir.NoReg, Imm: imm}
}

func isPow2(v int64) (uint, bool) {
	if v <= 0 || v&(v-1) != 0 {
		return 0, false
	}
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n, true
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// foldInstr rewrites one KOp in place if possible.
func foldInstr(in *ir.Instr, consts map[ir.Reg]constVal) bool {
	info := in.Op.Info()
	var c1, c2 constVal
	if info.NSrc >= 1 && in.Src1 != ir.NoReg {
		c1 = consts[in.Src1]
	}
	if info.NSrc >= 2 && in.Src2 != ir.NoReg {
		c2 = consts[in.Src2]
	}

	// Fully constant: fold.
	if info.NSrc == 2 && c1.known && c2.known {
		switch in.Op {
		case isa.OpAdd:
			setLi(in, c1.i+c2.i)
		case isa.OpSub:
			setLi(in, c1.i-c2.i)
		case isa.OpMul:
			setLi(in, c1.i*c2.i)
		case isa.OpDiv:
			if c2.i == 0 {
				return false // preserve the runtime trap
			}
			setLi(in, c1.i/c2.i)
		case isa.OpRem:
			if c2.i == 0 {
				return false
			}
			setLi(in, c1.i%c2.i)
		case isa.OpAnd:
			setLi(in, c1.i&c2.i)
		case isa.OpOr:
			setLi(in, c1.i|c2.i)
		case isa.OpXor:
			setLi(in, c1.i^c2.i)
		case isa.OpSll:
			setLi(in, c1.i<<(uint64(c2.i)&63))
		case isa.OpSrl:
			setLi(in, int64(uint64(c1.i)>>(uint64(c2.i)&63)))
		case isa.OpSra:
			setLi(in, c1.i>>(uint64(c2.i)&63))
		case isa.OpSlt:
			setLi(in, b2i(c1.i < c2.i))
		case isa.OpSle:
			setLi(in, b2i(c1.i <= c2.i))
		case isa.OpSeq:
			setLi(in, b2i(c1.i == c2.i))
		case isa.OpSne:
			setLi(in, b2i(c1.i != c2.i))
		case isa.OpFadd:
			setFli(in, c1.f+c2.f)
		case isa.OpFsub:
			setFli(in, c1.f-c2.f)
		case isa.OpFmul:
			setFli(in, c1.f*c2.f)
		case isa.OpFdiv:
			setFli(in, c1.f/c2.f)
		case isa.OpFslt:
			setLi(in, b2i(c1.f < c2.f))
		case isa.OpFsle:
			setLi(in, b2i(c1.f <= c2.f))
		case isa.OpFseq:
			setLi(in, b2i(c1.f == c2.f))
		case isa.OpFsne:
			setLi(in, b2i(c1.f != c2.f))
		default:
			return false
		}
		return true
	}
	if info.NSrc == 1 && c1.known {
		switch in.Op {
		case isa.OpAddi:
			setLi(in, c1.i+in.Imm)
		case isa.OpAndi:
			setLi(in, c1.i&in.Imm)
		case isa.OpOri:
			setLi(in, c1.i|in.Imm)
		case isa.OpXori:
			setLi(in, c1.i^in.Imm)
		case isa.OpSlli:
			setLi(in, c1.i<<(uint64(in.Imm)&63))
		case isa.OpSrli:
			setLi(in, int64(uint64(c1.i)>>(uint64(in.Imm)&63)))
		case isa.OpSrai:
			setLi(in, c1.i>>(uint64(in.Imm)&63))
		case isa.OpMov:
			setLi(in, c1.i)
		case isa.OpFmov:
			setFli(in, c1.f)
		case isa.OpFneg:
			setFli(in, -c1.f)
		case isa.OpFabs:
			setFli(in, math.Abs(c1.f))
		case isa.OpCvtif:
			setFli(in, float64(c1.i))
		case isa.OpFsqrt:
			setFli(in, math.Sqrt(c1.f))
		default:
			return false
		}
		return true
	}

	// Partially constant: immediate forms, identities, strength reduction.
	switch in.Op {
	case isa.OpAdd:
		if c2.known {
			if c2.i == 0 {
				setMov(in, false, in.Src1)
			} else {
				setImmOp(in, isa.OpAddi, in.Src1, c2.i)
			}
			return true
		}
		if c1.known {
			if c1.i == 0 {
				setMov(in, false, in.Src2)
			} else {
				setImmOp(in, isa.OpAddi, in.Src2, c1.i)
			}
			return true
		}
	case isa.OpSub:
		if c2.known {
			if c2.i == 0 {
				setMov(in, false, in.Src1)
			} else {
				setImmOp(in, isa.OpAddi, in.Src1, -c2.i)
			}
			return true
		}
	case isa.OpMul:
		for pass := 0; pass < 2; pass++ {
			c, src := c2, in.Src1
			if pass == 1 {
				c, src = c1, in.Src2
			}
			if !c.known {
				continue
			}
			switch {
			case c.i == 0:
				setLi(in, 0)
				return true
			case c.i == 1:
				setMov(in, false, src)
				return true
			default:
				if sh, ok := isPow2(c.i); ok {
					setImmOp(in, isa.OpSlli, src, int64(sh))
					return true
				}
			}
		}
	case isa.OpDiv:
		if c2.known && c2.i == 1 {
			setMov(in, false, in.Src1)
			return true
		}
		if c2.known {
			if sh, ok := isPow2(c2.i); ok {
				// Only safe for non-negative dividends in general;
				// without range info, restrict to unsigned-looking
				// shifts when the dividend is a known non-negative
				// constant — which was handled above — so skip.
				_ = sh
			}
		}
	case isa.OpAnd, isa.OpOr, isa.OpXor:
		for pass := 0; pass < 2; pass++ {
			c, src := c2, in.Src1
			if pass == 1 {
				c, src = c1, in.Src2
			}
			if !c.known {
				continue
			}
			var immOp isa.Opcode
			switch in.Op {
			case isa.OpAnd:
				immOp = isa.OpAndi
			case isa.OpOr:
				immOp = isa.OpOri
			default:
				immOp = isa.OpXori
			}
			setImmOp(in, immOp, src, c.i)
			return true
		}
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		if c2.known {
			var immOp isa.Opcode
			switch in.Op {
			case isa.OpSll:
				immOp = isa.OpSlli
			case isa.OpSrl:
				immOp = isa.OpSrli
			default:
				immOp = isa.OpSrai
			}
			setImmOp(in, immOp, in.Src1, c2.i&63)
			return true
		}
	case isa.OpAddi:
		if in.Imm == 0 {
			setMov(in, false, in.Src1)
			return true
		}
	}
	return false
}
