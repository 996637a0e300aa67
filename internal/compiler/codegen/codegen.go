// Package codegen lowers allocated IR to the final machine program: it
// lays out the data segment, builds stack frames, implements the calling
// convention (arguments in r2..r9/f2..f9, results in r1/f1, caller-saved
// temporaries, callee-managed frame and return address), linearizes the
// CFG, and resolves branch targets. It also produces the parallel memory
// annotations (ir.MemRef) the pipeline scheduler's dependence analysis
// consumes, and the list of basic-block leader indices that bound the
// scheduler's regions.
package codegen

import (
	"fmt"
	"math"
	"strconv"

	"ilp/internal/compiler/regalloc"
	"ilp/internal/ir"
	"ilp/internal/isa"
	"ilp/internal/lang/ast"
	"ilp/internal/machine"
)

// Result is a lowered program plus scheduler metadata.
type Result struct {
	Prog *isa.Program
	// Mem annotates each instruction's memory behavior (parallel to
	// Prog.Instrs).
	Mem []ir.MemRef
	// BlockStarts lists basic-block leader indices in ascending order.
	BlockStarts []int
}

// Generate lowers the IR module. It runs the local register allocator on
// each function as part of lowering.
func Generate(p *ir.Program, cfg *machine.Config) (*Result, error) {
	g := &emitter{
		prog:     p,
		cfg:      cfg,
		symbols:  map[int]string{},
		varAddr:  map[*ast.Symbol]int64{},
		fixups:   map[int]string{},
		labelPos: map[string]int{},
	}
	g.layoutData()
	if err := g.emitAll(); err != nil {
		return nil, err
	}
	if err := g.link(); err != nil {
		return nil, err
	}
	out := &isa.Program{
		Instrs:  g.instrs,
		Data:    g.data,
		Entry:   0,
		Symbols: g.symbols,
		Blocks:  g.blockStarts,
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: produced invalid program: %w", err)
	}
	return &Result{Prog: out, Mem: g.mem, BlockStarts: g.blockStarts}, nil
}

type emitter struct {
	prog *ir.Program
	cfg  *machine.Config

	data    []int64
	varAddr map[*ast.Symbol]int64 // globals and arrays -> absolute word address

	instrs      []isa.Instr
	mem         []ir.MemRef
	symbols     map[int]string
	blockStarts []int
	fixups      map[int]string // instruction index -> label
	labelPos    map[string]int

	// Per-function state.
	f         *ir.Func
	alloc     *regalloc.Assignment
	slotOff   map[int]int64         // spill slot -> frame offset
	localOff  map[*ast.Symbol]int64 // unpromoted locals/params -> frame offset
	frameSize int64
	raOff     int64 // -1 if leaf
	raSlot    int
}

// layoutData assigns addresses to globals and arrays and fills initial
// values.
func (g *emitter) layoutData() {
	info := g.prog.Info
	for _, sym := range info.Globals {
		g.varAddr[sym] = int64(len(g.data))
		d := sym.Decl.(*ast.VarDecl)
		v := int64(0)
		if d.Init != nil {
			v = constWord(d.Init)
		}
		g.data = append(g.data, v)
	}
	for _, sym := range info.Arrays {
		g.varAddr[sym] = int64(len(g.data))
		g.data = append(g.data, make([]int64, sym.Size())...)
	}
}

// constWord evaluates a constant initializer to its memory representation.
func constWord(e ast.Expr) int64 {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value
	case *ast.RealLit:
		return int64(math.Float64bits(x.Value))
	case *ast.BoolLit:
		if x.Value {
			return 1
		}
		return 0
	case *ast.UnOp:
		v := constWord(x.X)
		if x.X.Type() == ast.Real {
			return int64(math.Float64bits(-math.Float64frombits(uint64(v))))
		}
		return -v
	}
	panic("codegen: non-constant initializer survived analysis")
}

func (g *emitter) emit(in isa.Instr, mr ir.MemRef) int {
	g.instrs = append(g.instrs, in)
	g.mem = append(g.mem, mr)
	return len(g.instrs) - 1
}

func (g *emitter) label(name string) {
	g.labelPos[name] = len(g.instrs)
	// When a function has an empty prologue its entry label and its first
	// block label land on the same instruction; keep the first (function)
	// label as the symbol so call targets still resolve to function
	// entries in the disassembly.
	if _, taken := g.symbols[len(g.instrs)]; !taken {
		g.symbols[len(g.instrs)] = name
	}
	if n := len(g.blockStarts); n == 0 || g.blockStarts[n-1] != len(g.instrs) {
		g.blockStarts = append(g.blockStarts, len(g.instrs))
	}
}

func (g *emitter) emitAll() error {
	// Entry stub: initialize promoted globals, call main, halt.
	g.label("_start")
	for _, sym := range g.prog.Info.Globals {
		phys, ok := g.prog.Promoted[sym]
		if !ok {
			continue
		}
		d := sym.Decl.(*ast.VarDecl)
		if d.Init == nil {
			continue // registers reset to zero, like memory
		}
		if sym.Type == ast.Real {
			g.emit(isa.Instr{Op: isa.OpFli, Dst: phys, Src1: isa.NoReg, Src2: isa.NoReg,
				FImm: math.Float64frombits(uint64(constWord(d.Init)))}, ir.MemRef{})
		} else {
			g.emit(isa.Instr{Op: isa.OpLi, Dst: phys, Src1: isa.NoReg, Src2: isa.NoReg,
				Imm: constWord(d.Init)}, ir.MemRef{})
		}
	}
	jal := g.emit(isa.Instr{Op: isa.OpJal, Dst: isa.RRA, Src1: isa.NoReg, Src2: isa.NoReg, Sym: "main"}, ir.MemRef{})
	g.fixups[jal] = "main"
	g.emit(isa.Instr{Op: isa.OpHalt, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}, ir.MemRef{})

	for _, f := range g.prog.Funcs {
		if err := g.emitFunc(f); err != nil {
			return err
		}
	}
	return nil
}

func (g *emitter) link() error {
	for idx, lbl := range g.fixups {
		pos, ok := g.labelPos[lbl]
		if !ok {
			return fmt.Errorf("codegen: undefined label %q", lbl)
		}
		g.instrs[idx].Target = pos
	}
	return nil
}

// argReg returns the register carrying parameter i of the given class.
func argReg(i int, fp bool) isa.Reg {
	if fp {
		return isa.F(isa.FArg0.Index() + i)
	}
	return isa.R(isa.RArg0.Index() + i)
}

func (g *emitter) emitFunc(f *ir.Func) error {
	g.f = f
	alloc, err := regalloc.Allocate(f, g.cfg)
	if err != nil {
		return err
	}
	g.alloc = alloc

	// Frame layout: spill slots, then unpromoted local/param slots, then
	// the saved return address for non-leaf functions.
	g.slotOff = map[int]int64{}
	g.localOff = map[*ast.Symbol]int64{}
	off := int64(0)
	for s := 0; s < alloc.NumSlots; s++ {
		g.slotOff[s] = off
		off++
	}
	vars := append(append([]*ast.Symbol{}, f.Info.Params...), f.Info.Locals...)
	for _, sym := range vars {
		if _, promoted := g.prog.Promoted[sym]; promoted {
			continue
		}
		g.localOff[sym] = off
		off++
	}
	nonLeaf := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Kind == ir.KCall {
				nonLeaf = true
			}
		}
	}
	g.raOff = -1
	if nonLeaf {
		g.raOff = off
		g.raSlot = alloc.NumSlots // distinct MemSpill id for the RA slot
		off++
	}
	g.frameSize = off

	// Prologue.
	g.label(f.Name)
	if g.frameSize > 0 {
		g.emit(isa.Instr{Op: isa.OpAddi, Dst: isa.RSP, Src1: isa.RSP, Src2: isa.NoReg, Imm: -g.frameSize}, ir.MemRef{})
	}
	if g.raOff >= 0 {
		g.emit(isa.Instr{Op: isa.OpSw, Dst: isa.NoReg, Src1: isa.RSP, Src2: isa.RRA, Imm: g.raOff, Sym: "%ra"},
			ir.MemRef{Kind: ir.MemSpill, Slot: g.raSlot})
	}
	for i, sym := range f.Info.Params {
		fp := sym.Type == ast.Real
		src := argReg(i, fp)
		if phys, promoted := g.prog.Promoted[sym]; promoted {
			op := isa.OpMov
			if fp {
				op = isa.OpFmov
			}
			g.emit(isa.Instr{Op: op, Dst: phys, Src1: src, Src2: isa.NoReg}, ir.MemRef{})
			continue
		}
		op := isa.OpSw
		if fp {
			op = isa.OpSf
		}
		g.emit(isa.Instr{Op: op, Dst: isa.NoReg, Src1: isa.RSP, Src2: src, Imm: g.localOff[sym], Sym: sym.Name},
			ir.MemRef{Kind: ir.MemScalar, Sym: sym})
	}

	// Body, in reverse postorder with fall-through-friendly layout.
	order := f.ReversePostorder()
	for k, b := range order {
		var next *ir.Block // laid out right after b
		if k+1 < len(order) {
			next = order[k+1]
		}
		g.label(f.Name + ".b" + strconv.Itoa(b.ID))
		for i := range b.Instrs {
			if err := g.emitInstr(f, &b.Instrs[i], next); err != nil {
				return err
			}
		}
	}
	return nil
}

// phys returns the physical register of a vreg (which must not be spilled
// at this point: spill rewriting already routed operands through scratch).
func (g *emitter) phys(r ir.Reg) isa.Reg {
	if r == ir.NoReg {
		return isa.NoReg
	}
	p := g.alloc.Phys[r]
	if p == isa.NoReg {
		panic(fmt.Sprintf("codegen: %s: v%d has no physical register", g.f.Name, r))
	}
	return p
}

func (g *emitter) blockLabel(b *ir.Block) string {
	return g.f.Name + ".b" + strconv.Itoa(b.ID)
}

func (g *emitter) emitEpilogue() {
	if g.raOff >= 0 {
		g.emit(isa.Instr{Op: isa.OpLw, Dst: isa.RRA, Src1: isa.RSP, Src2: isa.NoReg, Imm: g.raOff, Sym: "%ra"},
			ir.MemRef{Kind: ir.MemSpill, Slot: g.raSlot})
	}
	if g.frameSize > 0 {
		g.emit(isa.Instr{Op: isa.OpAddi, Dst: isa.RSP, Src1: isa.RSP, Src2: isa.NoReg, Imm: g.frameSize}, ir.MemRef{})
	}
	g.emit(isa.Instr{Op: isa.OpJr, Dst: isa.NoReg, Src1: isa.RRA, Src2: isa.NoReg}, ir.MemRef{})
}

func (g *emitter) emitInstr(f *ir.Func, in *ir.Instr, next *ir.Block) error {
	switch in.Kind {
	case ir.KOp:
		out := isa.Instr{Op: in.Op, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Imm: in.Imm, FImm: in.FImm}
		info := in.Op.Info()
		if info.HasDst {
			out.Dst = g.phys(in.Dst)
		}
		if info.NSrc >= 1 {
			out.Src1 = g.phys(in.Src1)
		}
		if info.NSrc >= 2 {
			out.Src2 = g.phys(in.Src2)
		}
		g.emit(out, ir.MemRef{})

	case ir.KLoadVar:
		sym := in.Sym
		op := isa.OpLw
		if sym.Type == ast.Real {
			op = isa.OpLf
		}
		if sym.Kind == ast.SymGlobal {
			g.emit(isa.Instr{Op: op, Dst: g.phys(in.Dst), Src1: isa.RZero, Src2: isa.NoReg,
				Imm: g.varAddr[sym], Sym: sym.Name}, ir.MemRef{Kind: ir.MemScalar, Sym: sym})
		} else {
			g.emit(isa.Instr{Op: op, Dst: g.phys(in.Dst), Src1: isa.RSP, Src2: isa.NoReg,
				Imm: g.localOff[sym], Sym: sym.Name}, ir.MemRef{Kind: ir.MemScalar, Sym: sym})
		}

	case ir.KStoreVar:
		sym := in.Sym
		op := isa.OpSw
		if sym.Type == ast.Real {
			op = isa.OpSf
		}
		if sym.Kind == ast.SymGlobal {
			g.emit(isa.Instr{Op: op, Dst: isa.NoReg, Src1: isa.RZero, Src2: g.phys(in.Src1),
				Imm: g.varAddr[sym], Sym: sym.Name}, ir.MemRef{Kind: ir.MemScalar, Sym: sym})
		} else {
			g.emit(isa.Instr{Op: op, Dst: isa.NoReg, Src1: isa.RSP, Src2: g.phys(in.Src1),
				Imm: g.localOff[sym], Sym: sym.Name}, ir.MemRef{Kind: ir.MemScalar, Sym: sym})
		}

	case ir.KLoadElem:
		op := isa.OpLw
		if in.Sym.Type == ast.Real {
			op = isa.OpLf
		}
		g.emit(isa.Instr{Op: op, Dst: g.phys(in.Dst), Src1: g.phys(in.Src1), Src2: isa.NoReg,
			Imm: g.varAddr[in.Sym] + in.Imm, Sym: in.Sym.Name}, ir.MemRef{Kind: ir.MemArray, Sym: in.Sym})

	case ir.KStoreElem:
		op := isa.OpSw
		if in.Sym.Type == ast.Real {
			op = isa.OpSf
		}
		g.emit(isa.Instr{Op: op, Dst: isa.NoReg, Src1: g.phys(in.Src1), Src2: g.phys(in.Src2),
			Imm: g.varAddr[in.Sym] + in.Imm, Sym: in.Sym.Name}, ir.MemRef{Kind: ir.MemArray, Sym: in.Sym})

	case ir.KLoadSlot:
		op := isa.OpLw
		if f.RegClassOf(in.Dst) == ir.RFP {
			op = isa.OpLf
		}
		g.emit(isa.Instr{Op: op, Dst: g.phys(in.Dst), Src1: isa.RSP, Src2: isa.NoReg,
			Imm: g.slotOff[int(in.Imm)], Sym: fmt.Sprintf("%%spill%d", in.Imm)},
			ir.MemRef{Kind: ir.MemSpill, Slot: int(in.Imm)})

	case ir.KStoreSlot:
		op := isa.OpSw
		if f.RegClassOf(in.Src1) == ir.RFP {
			op = isa.OpSf
		}
		g.emit(isa.Instr{Op: op, Dst: isa.NoReg, Src1: isa.RSP, Src2: g.phys(in.Src1),
			Imm: g.slotOff[int(in.Imm)], Sym: fmt.Sprintf("%%spill%d", in.Imm)},
			ir.MemRef{Kind: ir.MemSpill, Slot: int(in.Imm)})

	case ir.KPrint:
		g.emit(isa.Instr{Op: in.Op, Dst: isa.NoReg, Src1: g.phys(in.Src1), Src2: isa.NoReg},
			ir.MemRef{Kind: ir.MemOut})

	case ir.KCall:
		callee := g.prog.FuncByName(in.Sym.Name)
		if callee == nil {
			return fmt.Errorf("codegen: call to unknown function %q", in.Sym.Name)
		}
		for i, a := range in.Args {
			fp := f.RegClassOf(a) == ir.RFP
			dst := argReg(i, fp)
			if g.alloc.Spilled(a) {
				op := isa.OpLw
				if fp {
					op = isa.OpLf
				}
				slot := g.alloc.Slot[a]
				g.emit(isa.Instr{Op: op, Dst: dst, Src1: isa.RSP, Src2: isa.NoReg,
					Imm: g.slotOff[slot], Sym: fmt.Sprintf("%%spill%d", slot)},
					ir.MemRef{Kind: ir.MemSpill, Slot: slot})
				continue
			}
			op := isa.OpMov
			if fp {
				op = isa.OpFmov
			}
			g.emit(isa.Instr{Op: op, Dst: dst, Src1: g.phys(a), Src2: isa.NoReg}, ir.MemRef{})
		}
		jal := g.emit(isa.Instr{Op: isa.OpJal, Dst: isa.RRA, Src1: isa.NoReg, Src2: isa.NoReg, Sym: in.Sym.Name}, ir.MemRef{})
		g.fixups[jal] = in.Sym.Name
		if in.Dst != ir.NoReg {
			fp := f.RegClassOf(in.Dst) == ir.RFP
			ret := isa.RRet
			if fp {
				ret = isa.FRet
			}
			if g.alloc.Spilled(in.Dst) {
				op := isa.OpSw
				if fp {
					op = isa.OpSf
				}
				slot := g.alloc.Slot[in.Dst]
				g.emit(isa.Instr{Op: op, Dst: isa.NoReg, Src1: isa.RSP, Src2: ret,
					Imm: g.slotOff[slot], Sym: fmt.Sprintf("%%spill%d", slot)},
					ir.MemRef{Kind: ir.MemSpill, Slot: slot})
			} else {
				op := isa.OpMov
				if fp {
					op = isa.OpFmov
				}
				g.emit(isa.Instr{Op: op, Dst: g.phys(in.Dst), Src1: ret, Src2: isa.NoReg}, ir.MemRef{})
			}
		}

	case ir.KRet:
		if in.Src1 != ir.NoReg {
			fp := f.RegClassOf(in.Src1) == ir.RFP
			ret := isa.RRet
			if fp {
				ret = isa.FRet
			}
			if g.alloc.Spilled(in.Src1) {
				op := isa.OpLw
				if fp {
					op = isa.OpLf
				}
				slot := g.alloc.Slot[in.Src1]
				g.emit(isa.Instr{Op: op, Dst: ret, Src1: isa.RSP, Src2: isa.NoReg,
					Imm: g.slotOff[slot], Sym: fmt.Sprintf("%%spill%d", slot)},
					ir.MemRef{Kind: ir.MemSpill, Slot: slot})
			} else {
				op := isa.OpMov
				if fp {
					op = isa.OpFmov
				}
				g.emit(isa.Instr{Op: op, Dst: ret, Src1: g.phys(in.Src1), Src2: isa.NoReg}, ir.MemRef{})
			}
		}
		g.emitEpilogue()

	case ir.KBr:
		taken, fall := in.Targets[0], in.Targets[1]
		op := in.Op
		s1, s2 := g.phys(in.Src1), g.phys(in.Src2)
		if taken == next {
			// Invert so the machine branch targets the other arm.
			idx := g.emit(isa.Instr{Op: op.Inverted(), Dst: isa.NoReg, Src1: s1, Src2: s2,
				Sym: g.blockLabel(fall)}, ir.MemRef{})
			g.fixups[idx] = g.blockLabel(fall)
			return nil
		}
		idx := g.emit(isa.Instr{Op: op, Dst: isa.NoReg, Src1: s1, Src2: s2, Sym: g.blockLabel(taken)}, ir.MemRef{})
		g.fixups[idx] = g.blockLabel(taken)
		if fall != next {
			j := g.emit(isa.Instr{Op: isa.OpJ, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg,
				Sym: g.blockLabel(fall)}, ir.MemRef{})
			g.fixups[j] = g.blockLabel(fall)
		}

	case ir.KJmp:
		if in.Targets[0] != next {
			j := g.emit(isa.Instr{Op: isa.OpJ, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg,
				Sym: g.blockLabel(in.Targets[0])}, ir.MemRef{})
			g.fixups[j] = g.blockLabel(in.Targets[0])
		}

	default:
		return fmt.Errorf("codegen: unhandled instruction kind %d", in.Kind)
	}
	return nil
}
