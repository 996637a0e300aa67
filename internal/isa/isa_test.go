package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClassNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Classes() {
		s := c.String()
		if s == "" || s == "class?" {
			t.Errorf("class %d has no name", c)
		}
		if seen[s] {
			t.Errorf("duplicate class name %q", s)
		}
		seen[s] = true
	}
	if len(seen) != 14 {
		t.Errorf("paper requires fourteen instruction classes, have %d", len(seen))
	}
}

func TestClassSimple(t *testing.T) {
	// §2: "integer add, logical ops, loads, stores, branches, and even
	// floating-point addition and multiplication are simple operations.
	// Not included ... divide and cache misses."
	for _, c := range []Class{ClassLogical, ClassShift, ClassAddSub, ClassLoad, ClassStore, ClassBranch, ClassFPAddSub, ClassFPMul, ClassMove, ClassJump} {
		if !c.Simple() {
			t.Errorf("class %v should be simple", c)
		}
	}
	for _, c := range []Class{ClassIntDiv, ClassFPDiv, ClassFPSpecial, ClassIntMul} {
		if c.Simple() {
			t.Errorf("class %v should not be simple", c)
		}
	}
}

func TestClassGroups(t *testing.T) {
	// Every class folds into exactly one Table 2-1 row, and every row is
	// populated.
	var rows [NumTableGroups]int
	for _, c := range Classes() {
		g := c.Group()
		if int(g) >= NumTableGroups {
			t.Fatalf("class %v maps to invalid group %d", c, g)
		}
		rows[g]++
	}
	for g, n := range rows {
		if n == 0 {
			t.Errorf("Table 2-1 row %v has no classes", TableGroup(g))
		}
	}
}

func TestRegNaming(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{R(0), "r0"}, {R(7), "r7"}, {F(0), "f0"}, {F(63), "f63"},
		{RSP, "sp"}, {RRA, "ra"}, {NoReg, "-"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg %d String = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestRegFileProperties(t *testing.T) {
	// Property: R(i) and F(i) round-trip through Index and file checks.
	f := func(i uint8) bool {
		n := int(i % 64)
		r := R(n)
		fr := F(n)
		return !r.IsFP() && fr.IsFP() && r.Index() == n && fr.Index() == n && r != fr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpInfoComplete(t *testing.T) {
	for op := 0; op < NumOpcodes; op++ {
		info := Opcode(op).Info()
		if info.Name == "" {
			t.Errorf("opcode %d has no info", op)
		}
		if int(info.Class) >= NumClasses {
			t.Errorf("opcode %s has invalid class", info.Name)
		}
	}
}

func TestInstrValidate(t *testing.T) {
	good := []Instr{
		{Op: OpAdd, Dst: R(3), Src1: R(1), Src2: R(2)},
		{Op: OpAddi, Dst: R(3), Src1: R(1), Src2: NoReg, Imm: 4},
		{Op: OpFadd, Dst: F(3), Src1: F(1), Src2: F(2)},
		{Op: OpCvtif, Dst: F(3), Src1: R(1), Src2: NoReg},
		{Op: OpCvtfi, Dst: R(3), Src1: F(1), Src2: NoReg},
		{Op: OpLw, Dst: R(3), Src1: R(1), Src2: NoReg, Imm: 8},
		{Op: OpSf, Dst: NoReg, Src1: R(1), Src2: F(2), Imm: 8},
		{Op: OpHalt, Dst: NoReg, Src1: NoReg, Src2: NoReg},
	}
	for _, in := range good {
		if err := in.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", in.Op, err)
		}
	}
	bad := []Instr{
		{Op: OpAdd, Dst: F(3), Src1: R(1), Src2: R(2)},  // dst in wrong file
		{Op: OpAdd, Dst: R(3), Src1: F(1), Src2: R(2)},  // src in wrong file
		{Op: OpAdd, Dst: NoReg, Src1: R(1), Src2: R(2)}, // missing dst
		{Op: OpHalt, Dst: R(1), Src1: NoReg, Src2: NoReg},
		{Op: OpFadd, Dst: F(3), Src1: F(1), Src2: R(2)},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("%s %v/%v/%v: expected validation error", in.Op, in.Dst, in.Src1, in.Src2)
		}
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpAdd, Dst: R(3), Src1: R(1), Src2: R(2)}, "add r3, r1, r2"},
		{Instr{Op: OpAddi, Dst: R(3), Src1: R(1), Src2: NoReg, Imm: -4}, "addi r3, r1, -4"},
		{Instr{Op: OpLw, Dst: R(3), Src1: RSP, Src2: NoReg, Imm: 2}, "lw r3, 2(sp)"},
		{Instr{Op: OpSw, Dst: NoReg, Src1: RSP, Src2: R(4), Imm: 1}, "sw r4, 1(sp)"},
		{Instr{Op: OpBeq, Dst: NoReg, Src1: R(1), Src2: R(2), Sym: "loop"}, "beq r1, r2, loop"},
		{Instr{Op: OpFli, Dst: F(2), Src1: NoReg, Src2: NoReg, FImm: 1.5}, "fli f2, 1.5"},
		{Instr{Op: OpJr, Dst: NoReg, Src1: RRA, Src2: NoReg}, "jr ra"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
}

func TestBuilderResolvesLabels(t *testing.T) {
	b := NewBuilder()
	b.Label("start")
	b.Li(R(1), 10)
	b.Label("loop")
	b.Imm(OpAddi, R(1), R(1), -1)
	b.Branch(OpBgt, R(1), RZero, "loop")
	b.Halt()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[2].Target != 1 {
		t.Errorf("branch target = %d, want 1", p.Instrs[2].Target)
	}
	if !strings.Contains(p.Disassemble(), "loop:") {
		t.Error("disassembly missing label")
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Jump("nowhere")
	b.Halt()
	if _, err := b.Finish(); err == nil {
		t.Error("expected undefined-label error")
	}
}

func TestProgramValidateBadTarget(t *testing.T) {
	p := &Program{Instrs: []Instr{{Op: OpJ, Dst: NoReg, Src1: NoReg, Src2: NoReg, Target: 99}}}
	if err := p.Validate(); err == nil {
		t.Error("expected out-of-range target error")
	}
}

func TestValueFormatting(t *testing.T) {
	if got := IntValue(-42).String(); got != "-42" {
		t.Errorf("IntValue: %q", got)
	}
	if got := FloatValue(1.5).String(); got != "1.5" {
		t.Errorf("FloatValue: %q", got)
	}
	if !IntValue(3).Equal(IntValue(3)) || IntValue(3).Equal(FloatValue(3)) {
		t.Error("Equal confuses kinds")
	}
	if !FloatValue(1.0).ApproxEqual(FloatValue(1.0+1e-12), 1e-9) {
		t.Error("ApproxEqual too strict")
	}
	if FloatValue(1.0).ApproxEqual(FloatValue(1.1), 1e-9) {
		t.Error("ApproxEqual too lax")
	}
}

func TestValueEqualProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := IntValue(a), IntValue(b)
		return va.Equal(va) && (va.Equal(vb) == (a == b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassMix(t *testing.T) {
	b := NewBuilder()
	b.Li(R(1), 1)
	b.Op(OpAdd, R(2), R(1), R(1))
	b.Op(OpAdd, R(3), R(2), R(1))
	b.Halt()
	p := b.MustFinish()
	mix := p.ClassMix()
	if mix[ClassAddSub] != 2 || mix[ClassMove] != 1 {
		t.Errorf("mix = %v", mix)
	}
}

// TestInvertedBranches: each conditional branch inverts to another whose
// inversion is itself, and whose condition is the negation on every pair of
// operands.
func TestInvertedBranches(t *testing.T) {
	holds := map[Opcode]func(a, b int64) bool{
		OpBeq: func(a, b int64) bool { return a == b },
		OpBne: func(a, b int64) bool { return a != b },
		OpBlt: func(a, b int64) bool { return a < b },
		OpBge: func(a, b int64) bool { return a >= b },
		OpBle: func(a, b int64) bool { return a <= b },
		OpBgt: func(a, b int64) bool { return a > b },
	}
	for op := range Opcode(NumOpcodes) {
		if !op.Info().Cond {
			continue
		}
		inv := op.Inverted()
		if !inv.Info().Cond || inv.Inverted() != op {
			t.Errorf("%s inverts to %s, which inverts to %s", op, inv, inv.Inverted())
		}
		for _, ab := range [][2]int64{{1, 2}, {2, 2}, {3, 2}} {
			if holds[op](ab[0], ab[1]) == holds[inv](ab[0], ab[1]) {
				t.Errorf("%s and %s agree on %v", op, inv, ab)
			}
		}
	}
}
