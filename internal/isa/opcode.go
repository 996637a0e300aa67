package isa

// Opcode enumerates the operations of the target architecture. The set is
// deliberately MultiTitan-like: a small load/store RISC with reg-reg ALU
// operations, compare-and-branch, and a separate floating-point file.
type Opcode uint8

const (
	// OpNop does nothing. Class move.
	OpNop Opcode = iota

	// Integer arithmetic (class addsub unless noted).
	OpAdd  // Dst = Src1 + Src2
	OpAddi // Dst = Src1 + Imm
	OpSub  // Dst = Src1 - Src2
	OpMul  // Dst = Src1 * Src2 (class intmul)
	OpDiv  // Dst = Src1 / Src2, traps on zero (class intdiv)
	OpRem  // Dst = Src1 % Src2, traps on zero (class intdiv)

	// Integer compares, result 0 or 1 (class addsub).
	OpSlt // Dst = Src1 < Src2
	OpSle // Dst = Src1 <= Src2
	OpSeq // Dst = Src1 == Src2
	OpSne // Dst = Src1 != Src2

	// Logical (class logical).
	OpAnd  // Dst = Src1 & Src2
	OpOr   // Dst = Src1 | Src2
	OpXor  // Dst = Src1 ^ Src2
	OpAndi // Dst = Src1 & Imm
	OpOri  // Dst = Src1 | Imm
	OpXori // Dst = Src1 ^ Imm

	// Shifts (class shift). Shift counts are masked to 6 bits.
	OpSll  // Dst = Src1 << Src2
	OpSrl  // Dst = uint(Src1) >> Src2
	OpSra  // Dst = Src1 >> Src2
	OpSlli // Dst = Src1 << Imm
	OpSrli // Dst = uint(Src1) >> Imm
	OpSrai // Dst = Src1 >> Imm

	// Moves and immediates (class move).
	OpLi   // Dst = Imm
	OpMov  // Dst = Src1
	OpFli  // Dst = FImm (fp file)
	OpFmov // Dst = Src1 (fp file)

	// Memory (classes load / store). Addresses are in words.
	OpLw // Dst = mem[Src1 + Imm]            (integer load)
	OpSw // mem[Src1 + Imm] = Src2           (integer store)
	OpLf // Dst = mem[Src1 + Imm]            (fp load)
	OpSf // mem[Src1 + Imm] = Src2           (fp store)

	// Control transfer (class branch). Conditional branches compare two
	// integer registers, as on the MultiTitan.
	OpBeq // if Src1 == Src2 goto Target
	OpBne // if Src1 != Src2 goto Target
	OpBlt // if Src1 <  Src2 goto Target
	OpBge // if Src1 >= Src2 goto Target
	OpBle // if Src1 <= Src2 goto Target
	OpBgt // if Src1 >  Src2 goto Target
	OpJ   // goto Target

	// Calls and returns (class jump).
	OpJal // RA = return address; goto Target
	OpJr  // goto Src1 (used for returns)

	// Floating point.
	OpFadd  // Dst = Src1 + Src2 (class fpaddsub)
	OpFsub  // Dst = Src1 - Src2 (class fpaddsub)
	OpFneg  // Dst = -Src1       (class fpaddsub)
	OpFabs  // Dst = |Src1|      (class fpaddsub)
	OpFmul  // Dst = Src1 * Src2 (class fpmul)
	OpFdiv  // Dst = Src1 / Src2 (class fpdiv)
	OpCvtif // Dst(fp) = float(Src1(int))  (class fpaddsub)
	OpCvtfi // Dst(int) = trunc(Src1(fp))  (class fpaddsub)

	// Floating-point compares; integer destination, 0 or 1 (class fpaddsub).
	OpFslt // Dst = Src1 < Src2
	OpFsle // Dst = Src1 <= Src2
	OpFseq // Dst = Src1 == Src2
	OpFsne // Dst = Src1 != Src2

	// Long-latency math intrinsics (class fpspecial).
	OpFsqrt // Dst = sqrt(Src1)
	OpFsin  // Dst = sin(Src1)
	OpFcos  // Dst = cos(Src1)
	OpFatn  // Dst = atan(Src1)
	OpFexp  // Dst = exp(Src1)
	OpFlog  // Dst = log(Src1)

	// Output and termination. Printing is modeled as a store: it ships a
	// register to the outside world through the memory system.
	OpPrinti // print Src1 as integer   (class store)
	OpPrintf // print Src1 as real      (class store)
	OpHalt   // stop the program        (class jump)

	// NumOpcodes is the number of opcodes.
	NumOpcodes = int(OpHalt) + 1
)

// OpInfo describes the static properties of an opcode.
type OpInfo struct {
	Name   string
	Class  Class
	HasDst bool // writes Dst
	NSrc   int  // number of register sources used (Src1, Src2)
	DstFP  bool // Dst is in the fp file
	Src1FP bool
	Src2FP bool
	HasImm bool // uses Imm
	FImm   bool // uses FImm
	Branch bool // conditional branch or direct jump (has Target)
	Cond   bool // conditional (may fall through)
	Call   bool // OpJal
	Load   bool
	Store  bool
}

var opInfos = [NumOpcodes]OpInfo{
	OpNop:    {Name: "nop", Class: ClassMove},
	OpAdd:    {Name: "add", Class: ClassAddSub, HasDst: true, NSrc: 2},
	OpAddi:   {Name: "addi", Class: ClassAddSub, HasDst: true, NSrc: 1, HasImm: true},
	OpSub:    {Name: "sub", Class: ClassAddSub, HasDst: true, NSrc: 2},
	OpMul:    {Name: "mul", Class: ClassIntMul, HasDst: true, NSrc: 2},
	OpDiv:    {Name: "div", Class: ClassIntDiv, HasDst: true, NSrc: 2},
	OpRem:    {Name: "rem", Class: ClassIntDiv, HasDst: true, NSrc: 2},
	OpSlt:    {Name: "slt", Class: ClassAddSub, HasDst: true, NSrc: 2},
	OpSle:    {Name: "sle", Class: ClassAddSub, HasDst: true, NSrc: 2},
	OpSeq:    {Name: "seq", Class: ClassAddSub, HasDst: true, NSrc: 2},
	OpSne:    {Name: "sne", Class: ClassAddSub, HasDst: true, NSrc: 2},
	OpAnd:    {Name: "and", Class: ClassLogical, HasDst: true, NSrc: 2},
	OpOr:     {Name: "or", Class: ClassLogical, HasDst: true, NSrc: 2},
	OpXor:    {Name: "xor", Class: ClassLogical, HasDst: true, NSrc: 2},
	OpAndi:   {Name: "andi", Class: ClassLogical, HasDst: true, NSrc: 1, HasImm: true},
	OpOri:    {Name: "ori", Class: ClassLogical, HasDst: true, NSrc: 1, HasImm: true},
	OpXori:   {Name: "xori", Class: ClassLogical, HasDst: true, NSrc: 1, HasImm: true},
	OpSll:    {Name: "sll", Class: ClassShift, HasDst: true, NSrc: 2},
	OpSrl:    {Name: "srl", Class: ClassShift, HasDst: true, NSrc: 2},
	OpSra:    {Name: "sra", Class: ClassShift, HasDst: true, NSrc: 2},
	OpSlli:   {Name: "slli", Class: ClassShift, HasDst: true, NSrc: 1, HasImm: true},
	OpSrli:   {Name: "srli", Class: ClassShift, HasDst: true, NSrc: 1, HasImm: true},
	OpSrai:   {Name: "srai", Class: ClassShift, HasDst: true, NSrc: 1, HasImm: true},
	OpLi:     {Name: "li", Class: ClassMove, HasDst: true, HasImm: true},
	OpMov:    {Name: "mov", Class: ClassMove, HasDst: true, NSrc: 1},
	OpFli:    {Name: "fli", Class: ClassMove, HasDst: true, DstFP: true, FImm: true},
	OpFmov:   {Name: "fmov", Class: ClassMove, HasDst: true, NSrc: 1, DstFP: true, Src1FP: true},
	OpLw:     {Name: "lw", Class: ClassLoad, HasDst: true, NSrc: 1, HasImm: true, Load: true},
	OpSw:     {Name: "sw", Class: ClassStore, NSrc: 2, HasImm: true, Store: true},
	OpLf:     {Name: "lf", Class: ClassLoad, HasDst: true, NSrc: 1, HasImm: true, DstFP: true, Load: true},
	OpSf:     {Name: "sf", Class: ClassStore, NSrc: 2, HasImm: true, Src2FP: true, Store: true},
	OpBeq:    {Name: "beq", Class: ClassBranch, NSrc: 2, Branch: true, Cond: true},
	OpBne:    {Name: "bne", Class: ClassBranch, NSrc: 2, Branch: true, Cond: true},
	OpBlt:    {Name: "blt", Class: ClassBranch, NSrc: 2, Branch: true, Cond: true},
	OpBge:    {Name: "bge", Class: ClassBranch, NSrc: 2, Branch: true, Cond: true},
	OpBle:    {Name: "ble", Class: ClassBranch, NSrc: 2, Branch: true, Cond: true},
	OpBgt:    {Name: "bgt", Class: ClassBranch, NSrc: 2, Branch: true, Cond: true},
	OpJ:      {Name: "j", Class: ClassBranch, Branch: true},
	OpJal:    {Name: "jal", Class: ClassJump, Branch: true, Call: true, HasDst: true},
	OpJr:     {Name: "jr", Class: ClassJump, NSrc: 1, Branch: true},
	OpFadd:   {Name: "fadd", Class: ClassFPAddSub, HasDst: true, NSrc: 2, DstFP: true, Src1FP: true, Src2FP: true},
	OpFsub:   {Name: "fsub", Class: ClassFPAddSub, HasDst: true, NSrc: 2, DstFP: true, Src1FP: true, Src2FP: true},
	OpFneg:   {Name: "fneg", Class: ClassFPAddSub, HasDst: true, NSrc: 1, DstFP: true, Src1FP: true},
	OpFabs:   {Name: "fabs", Class: ClassFPAddSub, HasDst: true, NSrc: 1, DstFP: true, Src1FP: true},
	OpFmul:   {Name: "fmul", Class: ClassFPMul, HasDst: true, NSrc: 2, DstFP: true, Src1FP: true, Src2FP: true},
	OpFdiv:   {Name: "fdiv", Class: ClassFPDiv, HasDst: true, NSrc: 2, DstFP: true, Src1FP: true, Src2FP: true},
	OpCvtif:  {Name: "cvtif", Class: ClassFPAddSub, HasDst: true, NSrc: 1, DstFP: true},
	OpCvtfi:  {Name: "cvtfi", Class: ClassFPAddSub, HasDst: true, NSrc: 1, Src1FP: true},
	OpFslt:   {Name: "fslt", Class: ClassFPAddSub, HasDst: true, NSrc: 2, Src1FP: true, Src2FP: true},
	OpFsle:   {Name: "fsle", Class: ClassFPAddSub, HasDst: true, NSrc: 2, Src1FP: true, Src2FP: true},
	OpFseq:   {Name: "fseq", Class: ClassFPAddSub, HasDst: true, NSrc: 2, Src1FP: true, Src2FP: true},
	OpFsne:   {Name: "fsne", Class: ClassFPAddSub, HasDst: true, NSrc: 2, Src1FP: true, Src2FP: true},
	OpFsqrt:  {Name: "fsqrt", Class: ClassFPSpecial, HasDst: true, NSrc: 1, DstFP: true, Src1FP: true},
	OpFsin:   {Name: "fsin", Class: ClassFPSpecial, HasDst: true, NSrc: 1, DstFP: true, Src1FP: true},
	OpFcos:   {Name: "fcos", Class: ClassFPSpecial, HasDst: true, NSrc: 1, DstFP: true, Src1FP: true},
	OpFatn:   {Name: "fatn", Class: ClassFPSpecial, HasDst: true, NSrc: 1, DstFP: true, Src1FP: true},
	OpFexp:   {Name: "fexp", Class: ClassFPSpecial, HasDst: true, NSrc: 1, DstFP: true, Src1FP: true},
	OpFlog:   {Name: "flog", Class: ClassFPSpecial, HasDst: true, NSrc: 1, DstFP: true, Src1FP: true},
	OpPrinti: {Name: "printi", Class: ClassStore, NSrc: 1, Store: true},
	OpPrintf: {Name: "printf", Class: ClassStore, NSrc: 1, Src1FP: true, Store: true},
	OpHalt:   {Name: "halt", Class: ClassJump},
}

// Info returns the static description of the opcode.
func (op Opcode) Info() *OpInfo {
	if int(op) < NumOpcodes {
		return &opInfos[op]
	}
	return &OpInfo{Name: "op?"}
}

// String returns the mnemonic of the opcode.
func (op Opcode) String() string { return op.Info().Name }

// Class returns the instruction class of the opcode.
func (op Opcode) Class() Class { return op.Info().Class }

// Inverted returns the conditional branch that tests the negated condition
// of op (beq↔bne, blt↔bge, ble↔bgt). It panics if op is not a conditional
// branch.
func (op Opcode) Inverted() Opcode {
	switch op {
	case OpBeq:
		return OpBne
	case OpBne:
		return OpBeq
	case OpBlt:
		return OpBge
	case OpBge:
		return OpBlt
	case OpBle:
		return OpBgt
	case OpBgt:
		return OpBle
	}
	panic("isa: " + op.String() + " is not a conditional branch")
}
