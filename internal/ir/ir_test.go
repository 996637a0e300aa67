package ir

import (
	"strings"
	"testing"

	"ilp/internal/isa"
)

// buildDiamond makes:
//
//	b0: v0=li 1; br v0==v0 -> b1 else b2
//	b1: v1=addi v0,1; jmp b3
//	b2: v2=addi v0,2; jmp b3
//	b3: ret
func buildDiamond() *Func {
	f := &Func{Name: "diamond"}
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	v0 := f.NewReg(RInt)
	v1 := f.NewReg(RInt)
	v2 := f.NewReg(RInt)
	b0.Instrs = []Instr{
		{Kind: KOp, Op: isa.OpLi, Dst: v0, Src1: NoReg, Src2: NoReg, Imm: 1},
		{Kind: KBr, Op: isa.OpBeq, Dst: NoReg, Src1: v0, Src2: v0, Targets: [2]*Block{b1, b2}},
	}
	b1.Instrs = []Instr{
		{Kind: KOp, Op: isa.OpAddi, Dst: v1, Src1: v0, Src2: NoReg, Imm: 1},
		{Kind: KJmp, Dst: NoReg, Src1: NoReg, Src2: NoReg, Targets: [2]*Block{b3}},
	}
	b2.Instrs = []Instr{
		{Kind: KOp, Op: isa.OpAddi, Dst: v2, Src1: v0, Src2: NoReg, Imm: 2},
		{Kind: KJmp, Dst: NoReg, Src1: NoReg, Src2: NoReg, Targets: [2]*Block{b3}},
	}
	b3.Instrs = []Instr{
		{Kind: KRet, Dst: NoReg, Src1: NoReg, Src2: NoReg},
	}
	return f
}

// buildLoop makes:
//
//	b0: v0=li 0; jmp b1
//	b1: v1=addi v0,1; br v1 < v1 ? -> b1 else b2   (self back edge)
//	b2: ret v1
func buildLoop() *Func {
	f := &Func{Name: "loop"}
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	v0 := f.NewReg(RInt)
	v1 := f.NewReg(RInt)
	b0.Instrs = []Instr{
		{Kind: KOp, Op: isa.OpLi, Dst: v0, Src1: NoReg, Src2: NoReg},
		{Kind: KJmp, Dst: NoReg, Src1: NoReg, Src2: NoReg, Targets: [2]*Block{b1}},
	}
	b1.Instrs = []Instr{
		{Kind: KOp, Op: isa.OpAddi, Dst: v1, Src1: v0, Src2: NoReg, Imm: 1},
		{Kind: KBr, Op: isa.OpBlt, Dst: NoReg, Src1: v1, Src2: v0, Targets: [2]*Block{b1, b2}},
	}
	b2.Instrs = []Instr{
		{Kind: KRet, Dst: NoReg, Src1: v1, Src2: NoReg},
	}
	return f
}

func TestValidateOK(t *testing.T) {
	for _, f := range []*Func{buildDiamond(), buildLoop()} {
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

func TestValidateRejectsMisplacedTerminator(t *testing.T) {
	f := buildDiamond()
	// Insert a jump in the middle of b0.
	b0 := f.Blocks[0]
	b0.Instrs = append([]Instr{{Kind: KJmp, Dst: NoReg, Src1: NoReg, Src2: NoReg, Targets: [2]*Block{f.Blocks[3]}}}, b0.Instrs...)
	if err := f.Validate(); err == nil {
		t.Error("expected misplaced-terminator error")
	}
}

// TestValidateRejectsBadBlockIDs: the analyses index tables by Block.ID,
// so a duplicated ID, an ID NewBlock never handed out, or a branch to a
// foreign block with an ID in range is invalid IR.
func TestValidateRejectsBadBlockIDs(t *testing.T) {
	f := buildDiamond()
	f.Blocks[2].ID = f.Blocks[1].ID
	if err := f.Validate(); err == nil {
		t.Error("expected a duplicate-ID error")
	}
	f = buildDiamond()
	f.Blocks[3].ID = f.NumBlockIDs()
	if err := f.Validate(); err == nil {
		t.Error("expected an out-of-range-ID error")
	}
	f, g := buildDiamond(), buildDiamond()
	f.Blocks[1].Instrs[len(f.Blocks[1].Instrs)-1].Targets[0] = g.Blocks[3]
	if err := f.Validate(); err == nil {
		t.Error("expected a foreign-block error")
	}
}

func TestValidateRejectsEmptyBlock(t *testing.T) {
	f := buildDiamond()
	f.Blocks[1].Instrs = nil
	if err := f.Validate(); err == nil {
		t.Error("expected empty-block error")
	}
}

func TestSuccsAndPreds(t *testing.T) {
	f := buildDiamond()
	b0, b1, b2, b3 := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	s := b0.Succs()
	if len(s) != 2 || s[0] != b1 || s[1] != b2 {
		t.Errorf("b0 succs wrong: %v", s)
	}
	if len(b3.Succs()) != 0 {
		t.Error("ret block should have no successors")
	}
	preds := f.Preds()
	if p := preds.Of(b3); len(p) != 2 || p[0] != b1 || p[1] != b2 {
		t.Errorf("b3 preds = %v, want [b1 b2]", p)
	}
	if p := preds.Of(b0); len(p) != 0 {
		t.Errorf("entry preds = %v, want none", p)
	}
	if p := preds.Of(f.NewBlock()); len(p) != 0 {
		t.Errorf("preds of a block created after the analysis = %v, want none", p)
	}
}

func TestReversePostorder(t *testing.T) {
	f := buildDiamond()
	rpo := f.ReversePostorder()
	if len(rpo) != 4 || rpo[0] != f.Blocks[0] {
		t.Fatalf("rpo wrong: %v", rpo)
	}
	pos := map[*Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	// Entry before both branches, join last.
	if !(pos[f.Blocks[0]] < pos[f.Blocks[1]] && pos[f.Blocks[0]] < pos[f.Blocks[2]]) {
		t.Error("entry not before branches")
	}
	if pos[f.Blocks[3]] != 3 {
		t.Error("join not last")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f := buildDiamond()
	dead := f.NewBlock()
	dead.Instrs = []Instr{{Kind: KRet, Dst: NoReg, Src1: NoReg, Src2: NoReg}}
	f.RemoveUnreachable()
	for _, b := range f.Blocks {
		if b == dead {
			t.Error("unreachable block kept")
		}
	}
	if len(f.Blocks) != 4 {
		t.Errorf("blocks = %d, want 4", len(f.Blocks))
	}
}

func TestLiveness(t *testing.T) {
	f := buildDiamond()
	lv := f.ComputeLiveness()
	v0 := Reg(0)
	// v0 defined in b0, used in b1 and b2: live-out of b0, live-in to
	// b1 and b2, dead at b3.
	if !lv.Out(f.Blocks[0]).Has(v0) {
		t.Error("v0 should be live-out of b0")
	}
	if !lv.In(f.Blocks[1]).Has(v0) || !lv.In(f.Blocks[2]).Has(v0) {
		t.Error("v0 should be live-in to both branches")
	}
	if lv.In(f.Blocks[3]).Has(v0) {
		t.Error("v0 should be dead at the join")
	}
	// A block created after the analysis has empty sets.
	late := f.NewBlock()
	if len(lv.In(late)) != 0 || len(lv.Out(late)) != 0 || lv.In(late).Has(v0) {
		t.Error("a block created after the analysis should have empty live sets")
	}
}

func TestLivenessLoop(t *testing.T) {
	f := buildLoop()
	lv := f.ComputeLiveness()
	v0 := Reg(0)
	// v0 is used by b1 every iteration: live around the loop.
	if !lv.In(f.Blocks[1]).Has(v0) || !lv.Out(f.Blocks[1]).Has(v0) {
		t.Error("loop-carried register not live through loop")
	}
}

func TestDominators(t *testing.T) {
	f := buildDiamond()
	dom := f.Dominators()
	b0, b1, b2, b3 := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if dom.Idom(b0) != nil {
		t.Error("entry has an idom")
	}
	if dom.Idom(b1) != b0 || dom.Idom(b2) != b0 || dom.Idom(b3) != b0 {
		t.Errorf("idoms wrong: b1->%v b2->%v b3->%v", dom.Idom(b1), dom.Idom(b2), dom.Idom(b3))
	}
	if !dom.Dominates(b0, b3) {
		t.Error("entry should dominate join")
	}
	if dom.Dominates(b1, b3) {
		t.Error("b1 must not dominate join")
	}
}

func TestNaturalLoops(t *testing.T) {
	f := buildLoop()
	loops := f.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != f.Blocks[1] {
		t.Error("wrong header")
	}
	if !l.Blocks.Has(f.Blocks[1]) || l.Blocks.Has(f.Blocks[0]) || l.Blocks.Has(f.Blocks[2]) {
		t.Errorf("loop body wrong: %v", l.Blocks)
	}
	if l.Blocks.Has(f.NewBlock()) {
		t.Error("a block created after the analysis is in the loop body")
	}
	depths := f.LoopDepths()
	if depths[f.Blocks[1].ID] != 1 || depths[f.Blocks[0].ID] != 0 {
		t.Errorf("depths wrong: %v", depths)
	}
}

func TestUsesDefsReplace(t *testing.T) {
	v1, v2, v3 := Reg(1), Reg(2), Reg(3)
	in := Instr{Kind: KOp, Op: isa.OpAdd, Dst: v3, Src1: v1, Src2: v2}
	var buf []Reg
	uses := in.Uses(buf)
	if len(uses) != 2 || uses[0] != v1 || uses[1] != v2 {
		t.Errorf("uses = %v", uses)
	}
	if in.Def() != v3 {
		t.Errorf("def = %v", in.Def())
	}
	in.ReplaceUses(v1, v3)
	if in.Src1 != v3 {
		t.Error("ReplaceUses failed")
	}

	call := Instr{Kind: KCall, Dst: v3, Src1: NoReg, Src2: NoReg, Args: []Reg{v1, v2, v1}}
	call.ReplaceUses(v1, v2)
	if call.Args[0] != v2 || call.Args[2] != v2 {
		t.Error("ReplaceUses missed call args")
	}
	if !call.ReadsMemory() || !call.WritesMemory() {
		t.Error("calls touch memory conservatively")
	}
}

func TestInstrClassMapping(t *testing.T) {
	cases := []struct {
		in   Instr
		want isa.Class
	}{
		{Instr{Kind: KLoadVar}, isa.ClassLoad},
		{Instr{Kind: KStoreElem}, isa.ClassStore},
		{Instr{Kind: KLoadSlot}, isa.ClassLoad},
		{Instr{Kind: KStoreSlot}, isa.ClassStore},
		{Instr{Kind: KBr, Op: isa.OpBeq}, isa.ClassBranch},
		{Instr{Kind: KCall}, isa.ClassJump},
		{Instr{Kind: KPrint, Op: isa.OpPrinti}, isa.ClassStore},
		{Instr{Kind: KOp, Op: isa.OpFmul}, isa.ClassFPMul},
	}
	for _, c := range cases {
		if got := c.in.Class(); got != c.want {
			t.Errorf("kind %d class = %v, want %v", c.in.Kind, got, c.want)
		}
	}
}

func TestPinnedRegs(t *testing.T) {
	f := &Func{Name: "p"}
	r := f.NewPinnedReg(RInt, isa.R(30))
	if got := f.Pinned[r]; got != isa.R(30) {
		t.Errorf("pinned = %v", got)
	}
	if f.RegClassOf(r) != RInt {
		t.Error("class lost")
	}
}

func TestStringRendering(t *testing.T) {
	f := buildDiamond()
	s := f.String()
	for _, want := range []string{"func diamond", "li v0", "addi v1, v0, 1", "beq", "jmp b3", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("disassembly missing %q in:\n%s", want, s)
		}
	}
}
