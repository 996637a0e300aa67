package opt

import (
	"math"

	"ilp/internal/ir"
	"ilp/internal/isa"
	"ilp/internal/lang/ast"
)

// LocalCSE performs local value numbering within each basic block:
// common-subexpression elimination, copy propagation, store-to-load
// forwarding, redundant-load elimination, and local dead-store elimination.
// These are the "intra-block optimizations" step of Figure 4-8.
//
// Aliasing here is exact, because TL has no pointers: distinct scalars
// never alias, distinct arrays never alias, and calls can touch globals and
// arrays but never locals or parameters. (The pipeline scheduler is a
// different story — it deliberately mimics the paper's conservative
// scheduler unless careful unrolling is on.)
func LocalCSE(f *ir.Func) bool { return new(Scratch).LocalCSE(f) }

// LocalCSE is the package function LocalCSE on s's storage.
func (s *Scratch) LocalCSE(f *ir.Func) bool {
	st := &s.vn
	st.init(f)
	changed := false
	for _, b := range f.Blocks {
		st.reset()
		if cseBlock(f, b, st) {
			changed = true
		}
	}
	return changed
}

// vnKey identifies an available expression for value numbering. It is a
// comparable struct (not a formatted string) so key construction in the
// per-instruction loop allocates nothing. kind discriminates the three
// expression families that used to share a string namespace.
type vnKey struct {
	kind   uint8 // vnExpr, vnLoadVar, or vnLoadElem
	op     isa.Opcode
	sym    *ast.Symbol
	v1, v2 int
	imm    int64
	fbits  uint64
}

const (
	vnExpr = iota
	vnLoadVar
	vnLoadElem
)

// vnState is one block's value numbering. A LocalCSE call resets it for
// each block, so its tables grow to the largest block and are then
// reused. Value numbers start at 1; 0 means none.
type vnState struct {
	next    int
	regVN   []int    // by register: its value number in this block, or 0
	touched []ir.Reg // registers whose regVN is set
	canon   []ir.Reg // by value number: register currently holding it, or NoReg
	exprVN  map[vnKey]int
	scalarE map[*ast.Symbol]int // store epoch per scalar
	arrayE  map[*ast.Symbol]int // store epoch per array
	lastSt  map[*ast.Symbol]int // vn of last value stored to scalar (for forwarding)
	epoch   int
	// pendingStore tracks the index of the last store to each scalar
	// with no intervening readers, for dead-store elimination; dead lists
	// the stores found dead and del marks them for removal.
	pendingStore map[*ast.Symbol]int
	dead         []int
	del          []bool
}

// init readies the state for f's registers. Entries left from the last
// block of an earlier call are cleared by the next reset.
func (s *vnState) init(f *ir.Func) {
	if s.exprVN == nil {
		s.canon = []ir.Reg{ir.NoReg}
		s.exprVN = map[vnKey]int{}
		s.scalarE = map[*ast.Symbol]int{}
		s.arrayE = map[*ast.Symbol]int{}
		s.lastSt = map[*ast.Symbol]int{}
		s.pendingStore = map[*ast.Symbol]int{}
	}
	if n := f.NumRegs(); len(s.regVN) < n {
		s.regVN = append(s.regVN, make([]int, n-len(s.regVN))...)
	}
}

// reset empties the state for the next block.
func (s *vnState) reset() {
	for _, r := range s.touched {
		s.regVN[r] = 0
	}
	s.touched = s.touched[:0]
	s.canon = s.canon[:1]
	s.next, s.epoch = 0, 0
	s.dead = s.dead[:0]
	clearMap(s.exprVN)
	clearMap(s.scalarE)
	clearMap(s.arrayE)
	clearMap(s.lastSt)
	clearMap(s.pendingStore)
}

func (s *vnState) vnOf(r ir.Reg) int {
	if vn := s.regVN[r]; vn != 0 {
		return vn
	}
	s.next++
	s.regVN[r] = s.next
	s.touched = append(s.touched, r)
	s.canon = append(s.canon, r)
	return s.next
}

func (s *vnState) fresh() int {
	s.next++
	s.canon = append(s.canon, ir.NoReg)
	return s.next
}

// define binds dst to vn, updating canonical registers.
func (s *vnState) define(dst ir.Reg, vn int) {
	old := s.regVN[dst]
	if old == 0 {
		s.touched = append(s.touched, dst)
	} else if s.canon[old] == dst {
		s.canon[old] = ir.NoReg
	}
	s.regVN[dst] = vn
	if s.canon[vn] == ir.NoReg {
		s.canon[vn] = dst
	}
}

func cseBlock(f *ir.Func, b *ir.Block, st *vnState) bool {
	changed := false

	// canonicalize rewrites an operand to the canonical register of its
	// value number (copy propagation).
	canonicalize := func(in *ir.Instr, r ir.Reg) {
		if r == ir.NoReg {
			return
		}
		vn := st.vnOf(r)
		if c := st.canon[vn]; c != ir.NoReg && c != r && f.RegClassOf(c) == f.RegClassOf(r) {
			in.ReplaceUses(r, c)
			changed = true
		}
	}

	pendingStore := st.pendingStore
	clobberCalls := func() {
		// A call may read or write any global scalar or array — in
		// memory or in a pinned home register.
		for r := range f.Pinned {
			st.define(r, st.fresh())
		}
		for sym := range st.scalarE {
			if sym.Kind == ast.SymGlobal {
				st.epoch++
				st.scalarE[sym] = st.epoch
				delete(st.lastSt, sym)
			}
		}
		for sym := range st.arrayE {
			st.epoch++
			st.arrayE[sym] = st.epoch
		}
		for sym := range pendingStore {
			if sym.Kind == ast.SymGlobal {
				delete(pendingStore, sym)
			}
		}
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		// Copy-propagate all register sources first.
		var buf [8]ir.Reg
		for _, u := range in.Uses(buf[:0]) {
			canonicalize(in, u)
		}

		switch in.Kind {
		case ir.KOp:
			info := in.Op.Info()
			if !info.HasDst {
				continue
			}
			// Moves: destination shares the source's value number.
			if in.Op == isa.OpMov || in.Op == isa.OpFmov {
				st.define(in.Dst, st.vnOf(in.Src1))
				continue
			}
			// Pure ops: value-number and CSE. Div/Rem trap, so they
			// are not deduplicated away from their position — but two
			// identical divides still compute the same value, and
			// replacing the second with a move preserves the trap
			// (the first already executed), so CSE is safe for them
			// too.
			key := exprKey(st, in)
			if vn, ok := st.exprVN[key]; ok {
				if c := st.canon[vn]; c != ir.NoReg && c != in.Dst {
					fp := f.RegClassOf(in.Dst) == ir.RFP
					setMov(in, fp, c)
					st.define(in.Dst, vn)
					changed = true
					continue
				}
			}
			vn := st.fresh()
			st.exprVN[key] = vn
			st.define(in.Dst, vn)

		case ir.KLoadVar:
			sym := in.Sym
			if _, seen := st.scalarE[sym]; !seen {
				st.scalarE[sym] = 0 // register for call clobbering
			}
			// Forward a store still pending in this block.
			if vn, ok := st.lastSt[sym]; ok {
				if c := st.canon[vn]; c != ir.NoReg {
					fp := f.RegClassOf(in.Dst) == ir.RFP
					*in = ir.Instr{Kind: ir.KOp, Op: isa.OpMov, Dst: in.Dst, Src1: c, Src2: ir.NoReg}
					if fp {
						in.Op = isa.OpFmov
					}
					st.define(in.Dst, vn)
					changed = true
					// The variable is still read conceptually; the
					// pending store is NOT dead (the value escapes the
					// block through memory), but forwarding doesn't
					// change that.
					continue
				}
			}
			key := vnKey{kind: vnLoadVar, sym: sym, v1: st.scalarE[sym]}
			if vn, ok := st.exprVN[key]; ok {
				if c := st.canon[vn]; c != ir.NoReg && c != in.Dst {
					fp := f.RegClassOf(in.Dst) == ir.RFP
					setMov(in, fp, c)
					st.define(in.Dst, vn)
					changed = true
					continue
				}
			}
			// This load actually reads memory: it protects any
			// pending store to the same scalar from elimination.
			delete(pendingStore, sym)
			vn := st.fresh()
			st.exprVN[key] = vn
			st.define(in.Dst, vn)

		case ir.KStoreVar:
			sym := in.Sym
			// Dead-store elimination: a previous store with no
			// intervening load of this scalar (and, for globals, no
			// call) is overwritten here.
			if j, ok := pendingStore[sym]; ok {
				st.dead = append(st.dead, j)
				changed = true
			}
			pendingStore[sym] = i
			st.epoch++
			st.scalarE[sym] = st.epoch
			st.lastSt[sym] = st.vnOf(in.Src1)

		case ir.KLoadElem:
			sym := in.Sym
			if _, seen := st.arrayE[sym]; !seen {
				st.arrayE[sym] = 0
			}
			key := vnKey{kind: vnLoadElem, sym: sym, v1: st.vnOf(in.Src1), v2: st.arrayE[sym], imm: in.Imm}
			if vn, ok := st.exprVN[key]; ok {
				if c := st.canon[vn]; c != ir.NoReg && c != in.Dst {
					fp := f.RegClassOf(in.Dst) == ir.RFP
					setMov(in, fp, c)
					st.define(in.Dst, vn)
					changed = true
					continue
				}
			}
			vn := st.fresh()
			st.exprVN[key] = vn
			st.define(in.Dst, vn)

		case ir.KStoreElem:
			st.epoch++
			st.arrayE[in.Sym] = st.epoch
			// A store through a computed index may hit any element;
			// reads of this array must not forward across it (epoch
			// bump above handles that).

		case ir.KCall:
			clobberCalls()
			if in.Dst != ir.NoReg {
				st.define(in.Dst, st.fresh())
			}

		case ir.KPrint, ir.KRet, ir.KBr, ir.KJmp:
			// Reads only (handled by canonicalization above).
		}
	}

	// Loads of a scalar later in the block kill pending-store deadness;
	// that was handled by lastSt forwarding — but a forwarded load still
	// reads memory conceptually? No: it became a move, so the previous
	// store IS only dead if a later store overwrites it, which is what
	// pendingStore tracked. Stores still pending at block end are live
	// (visible to other blocks). Remove the dead ones now.
	if len(st.dead) > 0 {
		if len(st.del) < len(b.Instrs) {
			st.del = make([]bool, len(b.Instrs))
		}
		del := st.del[:len(b.Instrs)]
		for _, j := range st.dead {
			del[j] = true
		}
		kept := b.Instrs[:0]
		for i := range b.Instrs {
			if !del[i] {
				kept = append(kept, b.Instrs[i])
			}
		}
		clear(del)
		b.Instrs = kept
	}
	return changed
}

// exprKey builds a value-numbering key for a pure KOp. Commutative
// operations normalize operand order. Float immediates key on their bit
// pattern, which distinguishes everything the old hex formatting did.
func exprKey(st *vnState, in *ir.Instr) vnKey {
	info := in.Op.Info()
	v1, v2 := 0, 0
	if info.NSrc >= 1 {
		v1 = st.vnOf(in.Src1)
	}
	if info.NSrc >= 2 {
		v2 = st.vnOf(in.Src2)
	}
	switch in.Op {
	case isa.OpAdd, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpFadd, isa.OpFmul, isa.OpSeq, isa.OpSne, isa.OpFseq, isa.OpFsne:
		if v2 < v1 {
			v1, v2 = v2, v1
		}
	}
	return vnKey{kind: vnExpr, op: in.Op, v1: v1, v2: v2, imm: in.Imm, fbits: math.Float64bits(in.FImm)}
}
