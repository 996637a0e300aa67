// Package ir defines the compiler's intermediate representation: a
// three-address code over unlimited virtual registers, organized into basic
// blocks with explicit control-flow edges. It corresponds to the Mahler
// intermediate language of the paper's toolchain [17]: close enough to the
// target ISA that instruction counts and classes are meaningful, abstract
// enough that optimization passes stay simple.
//
// Named variables (locals, params, globals) live in memory and are accessed
// with LoadVar/StoreVar until the global register allocation pass promotes
// them to home registers — exactly the structure the paper needs to measure
// how register allocation changes available parallelism (§4.4). Array
// elements are accessed with LoadElem/StoreElem carrying a linear index
// register plus a constant offset, which is what the careful-unrolling
// memory disambiguation reasons about.
package ir

import (
	"fmt"
	"strings"

	"ilp/internal/isa"
	"ilp/internal/lang/ast"
	"ilp/internal/lang/sem"
)

// Reg is a virtual register. NoReg means "no operand".
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// RegClass says which register file a virtual register belongs to.
type RegClass uint8

// Register classes.
const (
	RInt RegClass = iota
	RFP
)

// Kind discriminates IR instructions.
type Kind uint8

// Instruction kinds.
const (
	// KOp is a register-to-register computation; Op gives the operation.
	KOp Kind = iota
	// KLoadVar loads scalar variable Sym into Dst.
	KLoadVar
	// KStoreVar stores Src1 into scalar variable Sym.
	KStoreVar
	// KLoadElem loads Sym[Src1 + Imm] into Dst (linear word index).
	KLoadElem
	// KStoreElem stores Src2 into Sym[Src1 + Imm].
	KStoreElem
	// KCall calls function Sym with Args; Dst receives the result if the
	// function returns one (NoReg otherwise).
	KCall
	// KRet returns from the function, with Src1 if it has a result.
	KRet
	// KBr is a conditional branch: Op is an isa branch opcode comparing
	// Src1 and Src2; Targets[0] is taken, Targets[1] is the fall-through.
	KBr
	// KJmp is an unconditional branch to Targets[0].
	KJmp
	// KPrint emits Src1; Op is OpPrinti or OpPrintf.
	KPrint
	// KLoadSlot loads stack spill slot Imm into Dst. Inserted by the
	// register allocator.
	KLoadSlot
	// KStoreSlot stores Src1 into stack spill slot Imm.
	KStoreSlot
)

// Instr is one IR instruction.
type Instr struct {
	Kind Kind
	// Op refines KOp (any computational isa opcode), KBr (branch
	// opcode), and KPrint.
	Op   isa.Opcode
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Imm  int64
	FImm float64
	// Sym is the variable for KLoadVar/KStoreVar, the array for
	// KLoadElem/KStoreElem, and the callee for KCall.
	Sym *ast.Symbol
	// Args are call arguments.
	Args []Reg
	// Targets are successor blocks for KBr (taken, fallthrough) and
	// KJmp (Targets[0]).
	Targets [2]*Block
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	return in.Kind == KBr || in.Kind == KJmp || in.Kind == KRet
}

// Class returns the machine instruction class used for latency estimates.
func (in *Instr) Class() isa.Class {
	switch in.Kind {
	case KLoadVar, KLoadElem, KLoadSlot:
		return isa.ClassLoad
	case KStoreVar, KStoreElem, KStoreSlot:
		return isa.ClassStore
	case KCall:
		return isa.ClassJump
	case KRet:
		return isa.ClassJump
	case KBr, KJmp:
		return isa.ClassBranch
	case KPrint:
		return isa.ClassStore
	default:
		return in.Op.Class()
	}
}

// Uses appends the registers the instruction reads to buf and returns it.
func (in *Instr) Uses(buf []Reg) []Reg {
	add := func(r Reg) {
		if r != NoReg {
			buf = append(buf, r)
		}
	}
	switch in.Kind {
	case KOp:
		info := in.Op.Info()
		if info.NSrc >= 1 {
			add(in.Src1)
		}
		if info.NSrc >= 2 {
			add(in.Src2)
		}
	case KLoadVar, KLoadSlot:
	case KStoreVar, KStoreSlot:
		add(in.Src1)
	case KLoadElem:
		add(in.Src1)
	case KStoreElem:
		add(in.Src1)
		add(in.Src2)
	case KCall:
		for _, a := range in.Args {
			add(a)
		}
	case KRet:
		add(in.Src1)
	case KBr:
		add(in.Src1)
		add(in.Src2)
	case KPrint:
		add(in.Src1)
	}
	return buf
}

// Def returns the register the instruction writes, or NoReg.
func (in *Instr) Def() Reg {
	switch in.Kind {
	case KOp:
		if in.Op.Info().HasDst {
			return in.Dst
		}
	case KLoadVar, KLoadElem, KLoadSlot:
		return in.Dst
	case KCall:
		return in.Dst // may be NoReg
	}
	return NoReg
}

// ReplaceUses substitutes register from with to in all source positions.
func (in *Instr) ReplaceUses(from, to Reg) {
	sub := func(r *Reg) {
		if *r == from {
			*r = to
		}
	}
	switch in.Kind {
	case KOp:
		info := in.Op.Info()
		if info.NSrc >= 1 {
			sub(&in.Src1)
		}
		if info.NSrc >= 2 {
			sub(&in.Src2)
		}
	case KStoreVar, KStoreSlot, KRet, KPrint:
		sub(&in.Src1)
	case KLoadElem:
		sub(&in.Src1)
	case KStoreElem:
		sub(&in.Src1)
		sub(&in.Src2)
	case KBr:
		sub(&in.Src1)
		sub(&in.Src2)
	case KCall:
		for i := range in.Args {
			if in.Args[i] == from {
				in.Args[i] = to
			}
		}
	}
}

// Reads reports whether the instruction touches memory as a load, and
// Writes as a store (calls conservatively do both).
func (in *Instr) ReadsMemory() bool {
	switch in.Kind {
	case KLoadVar, KLoadElem, KLoadSlot, KCall:
		return true
	}
	return false
}

// WritesMemory reports whether the instruction may write memory.
func (in *Instr) WritesMemory() bool {
	switch in.Kind {
	case KStoreVar, KStoreElem, KStoreSlot, KCall, KPrint:
		return true
	}
	return false
}

// String disassembles the instruction.
func (in *Instr) String() string {
	r := func(x Reg) string {
		if x == NoReg {
			return "-"
		}
		return fmt.Sprintf("v%d", x)
	}
	switch in.Kind {
	case KOp:
		info := in.Op.Info()
		s := in.Op.String()
		if info.HasDst {
			s += " " + r(in.Dst)
		}
		if info.NSrc >= 1 {
			s += ", " + r(in.Src1)
		}
		if info.NSrc >= 2 {
			s += ", " + r(in.Src2)
		}
		if info.HasImm {
			s += fmt.Sprintf(", %d", in.Imm)
		}
		if info.FImm {
			s += fmt.Sprintf(", %g", in.FImm)
		}
		return s
	case KLoadVar:
		return fmt.Sprintf("loadvar %s, %s", r(in.Dst), in.Sym.Name)
	case KStoreVar:
		return fmt.Sprintf("storevar %s, %s", in.Sym.Name, r(in.Src1))
	case KLoadElem:
		return fmt.Sprintf("loadelem %s, %s[%s+%d]", r(in.Dst), in.Sym.Name, r(in.Src1), in.Imm)
	case KStoreElem:
		return fmt.Sprintf("storeelem %s[%s+%d], %s", in.Sym.Name, r(in.Src1), in.Imm, r(in.Src2))
	case KCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = r(a)
		}
		if in.Dst != NoReg {
			return fmt.Sprintf("call %s, %s(%s)", r(in.Dst), in.Sym.Name, strings.Join(args, ", "))
		}
		return fmt.Sprintf("call %s(%s)", in.Sym.Name, strings.Join(args, ", "))
	case KRet:
		if in.Src1 != NoReg {
			return "ret " + r(in.Src1)
		}
		return "ret"
	case KBr:
		return fmt.Sprintf("%s %s, %s, b%d else b%d", in.Op, r(in.Src1), r(in.Src2),
			in.Targets[0].ID, in.Targets[1].ID)
	case KJmp:
		return fmt.Sprintf("jmp b%d", in.Targets[0].ID)
	case KPrint:
		return fmt.Sprintf("%s %s", in.Op, r(in.Src1))
	case KLoadSlot:
		return fmt.Sprintf("loadslot %s, [%d]", r(in.Dst), in.Imm)
	case KStoreSlot:
		return fmt.Sprintf("storeslot [%d], %s", in.Imm, r(in.Src1))
	}
	return "instr?"
}

// Block is a basic block: straight-line instructions ending in exactly one
// terminator.
type Block struct {
	ID     int
	Instrs []Instr
}

// Terminator returns the block's terminator, or nil if malformed.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := &b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the block's successors.
func (b *Block) Succs() []*Block {
	return b.AppendSuccs(nil)
}

// AppendSuccs appends b's successors to dst and returns it. With a caller
// scratch buffer it is the allocation-free form of Succs for analysis
// loops (a block has at most two successors).
func (b *Block) AppendSuccs(dst []*Block) []*Block {
	t := b.Terminator()
	if t == nil {
		return dst
	}
	switch t.Kind {
	case KBr:
		return append(dst, t.Targets[0], t.Targets[1])
	case KJmp:
		return append(dst, t.Targets[0])
	}
	return dst
}

// Func is one IR function.
type Func struct {
	Name   string
	Decl   *ast.FuncDecl
	Info   *sem.FuncInfo
	Blocks []*Block // Blocks[0] is the entry
	// Pinned maps virtual registers to fixed physical registers. Home
	// registers introduced by global register allocation are pinned; the
	// local allocator must honor these assignments and never spill them.
	Pinned map[Reg]isa.Reg
	// regClass is indexed by virtual register number.
	regClass []RegClass
	nextID   int
}

// NewPinnedReg allocates a virtual register bound to a physical register.
func (f *Func) NewPinnedReg(c RegClass, phys isa.Reg) Reg {
	r := f.NewReg(c)
	if f.Pinned == nil {
		f.Pinned = map[Reg]isa.Reg{}
	}
	f.Pinned[r] = phys
	return r
}

// NewReg allocates a fresh virtual register of the class.
func (f *Func) NewReg(c RegClass) Reg {
	f.regClass = append(f.regClass, c)
	return Reg(len(f.regClass) - 1)
}

// NumRegs returns the number of virtual registers allocated.
func (f *Func) NumRegs() int { return len(f.regClass) }

// RegClassOf returns the class of a virtual register.
func (f *Func) RegClassOf(r Reg) RegClass { return f.regClass[r] }

// NumBlockIDs returns the number of block IDs NewBlock has handed out.
// Every block of f has an ID below it, and IDs are never reused or
// renumbered, so it sizes any table indexed by Block.ID.
func (f *Func) NumBlockIDs() int { return f.nextID }

// NewBlock appends a fresh empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextID}
	f.nextID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Validate checks structural invariants: every block ends in exactly one
// terminator, terminators appear only at block ends, and branch targets are
// blocks of this function. Block IDs must be distinct and below
// NumBlockIDs, which the analyses index by.
func (f *Func) Validate() error {
	byID := make([]*Block, f.NumBlockIDs())
	for _, b := range f.Blocks {
		if b.ID < 0 || b.ID >= len(byID) || byID[b.ID] != nil {
			return fmt.Errorf("ir: %s: block ID b%d is duplicated or was not handed out by NewBlock", f.Name, b.ID)
		}
		byID[b.ID] = b
	}
	var buf []Reg
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("ir: %s: block b%d empty", f.Name, b.ID)
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.IsTerminator() != (i == len(b.Instrs)-1) {
				return fmt.Errorf("ir: %s: block b%d instruction %d: terminator misplaced", f.Name, b.ID, i)
			}
			for _, tgt := range in.Targets {
				if tgt != nil && (tgt.ID < 0 || tgt.ID >= len(byID) || byID[tgt.ID] != tgt) {
					return fmt.Errorf("ir: %s: block b%d: branch to foreign block", f.Name, b.ID)
				}
			}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if int(u) >= f.NumRegs() {
					return fmt.Errorf("ir: %s: block b%d: use of unallocated v%d", f.Name, b.ID, u)
				}
			}
			if d := in.Def(); d != NoReg && int(d) >= f.NumRegs() {
				return fmt.Errorf("ir: %s: block b%d: def of unallocated v%d", f.Name, b.ID, d)
			}
		}
	}
	return nil
}

// String disassembles the function.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", f.Name)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.ID)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "\t%s\n", b.Instrs[i].String())
		}
	}
	return sb.String()
}

// Program is a compiled IR module.
type Program struct {
	Info  *sem.Info
	Funcs []*Func
	// Promoted maps symbols promoted by global register allocation to
	// their home register (a physical isa.Reg). Populated by the
	// regalloc package's PromoteHomes.
	Promoted map[*ast.Symbol]isa.Reg
}

// FuncByName finds a function.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Validate checks all functions.
func (p *Program) Validate() error {
	for _, f := range p.Funcs {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// String disassembles the module.
func (p *Program) String() string {
	var sb strings.Builder
	for _, f := range p.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}
