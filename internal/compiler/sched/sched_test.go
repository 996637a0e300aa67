package sched

import (
	"testing"

	"ilp/internal/ir"
	"ilp/internal/isa"
	"ilp/internal/lang/ast"
	"ilp/internal/machine"
)

// mk builds a program from instructions with a uniform mem annotation.
func mk(instrs []isa.Instr, mem []ir.MemRef) (*isa.Program, []ir.MemRef, []int) {
	if mem == nil {
		mem = make([]ir.MemRef, len(instrs))
	}
	p := &isa.Program{Instrs: instrs, Symbols: map[int]string{}}
	return p, mem, []int{0}
}

func indexOf(p *isa.Program, pred func(*isa.Instr) bool) int {
	for i := range p.Instrs {
		if pred(&p.Instrs[i]) {
			return i
		}
	}
	return -1
}

func TestSchedulerInterleavesChains(t *testing.T) {
	// Two independent multiply chains on MultiTitan (FP latency 3):
	// unscheduled order groups each chain; the scheduler should
	// interleave them so results are not back-to-back.
	r := func(i int) isa.Reg { return isa.F(10 + i) }
	instrs := []isa.Instr{
		{Op: isa.OpFmul, Dst: r(2), Src1: r(0), Src2: r(0)},
		{Op: isa.OpFmul, Dst: r(3), Src1: r(2), Src2: r(2)}, // chain 1 dependent
		{Op: isa.OpFmul, Dst: r(5), Src1: r(4), Src2: r(4)},
		{Op: isa.OpFmul, Dst: r(6), Src1: r(5), Src2: r(5)}, // chain 2 dependent
		{Op: isa.OpHalt, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
	}
	p, mem, starts := mk(instrs, nil)
	Schedule(p, mem, starts, machine.MultiTitan(), Options{})
	// The two chain heads should both come before either chain tail.
	h1 := indexOf(p, func(in *isa.Instr) bool { return in.Dst == r(2) })
	h2 := indexOf(p, func(in *isa.Instr) bool { return in.Dst == r(5) })
	t1 := indexOf(p, func(in *isa.Instr) bool { return in.Dst == r(3) })
	t2 := indexOf(p, func(in *isa.Instr) bool { return in.Dst == r(6) })
	if !(h1 < t1 && h2 < t2) {
		t.Fatal("dependences violated")
	}
	if !(h2 < t1 || h1 < t2) {
		t.Errorf("chains not interleaved: order h1=%d t1=%d h2=%d t2=%d", h1, t1, h2, t2)
	}
}

func TestSchedulerKeepsBranchLast(t *testing.T) {
	instrs := []isa.Instr{
		{Op: isa.OpLi, Dst: isa.R(10), Src1: isa.NoReg, Src2: isa.NoReg, Imm: 1},
		{Op: isa.OpLi, Dst: isa.R(11), Src1: isa.NoReg, Src2: isa.NoReg, Imm: 2},
		{Op: isa.OpBeq, Dst: isa.NoReg, Src1: isa.R(10), Src2: isa.R(11), Target: 0},
		{Op: isa.OpHalt, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
	}
	p, mem, starts := mk(instrs, nil)
	Schedule(p, mem, starts, machine.MultiTitan(), Options{})
	if p.Instrs[2].Op != isa.OpBeq {
		t.Errorf("branch moved from region end: %v", p.Instrs)
	}
	if p.Instrs[2].Target != 0 {
		t.Error("branch target corrupted")
	}
}

func TestSchedulerRespectsRegisterDeps(t *testing.T) {
	// WAR: the write to r10 must stay after the read.
	instrs := []isa.Instr{
		{Op: isa.OpMov, Dst: isa.R(11), Src1: isa.R(10), Src2: isa.NoReg},
		{Op: isa.OpLi, Dst: isa.R(10), Src1: isa.NoReg, Src2: isa.NoReg, Imm: 5},
		{Op: isa.OpHalt, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
	}
	p, mem, starts := mk(instrs, nil)
	Schedule(p, mem, starts, machine.CRAY1(), Options{})
	mov := indexOf(p, func(in *isa.Instr) bool { return in.Op == isa.OpMov })
	liI := indexOf(p, func(in *isa.Instr) bool { return in.Op == isa.OpLi })
	if !(mov < liI) {
		t.Error("WAR dependence violated")
	}
}

func memProgram(careful bool) (*isa.Program, []ir.MemRef, []int) {
	arrA := &ast.Symbol{Name: "A", Kind: ast.SymArray, Type: ast.Real, Dims: []int{64}}
	arrB := &ast.Symbol{Name: "B", Kind: ast.SymArray, Type: ast.Real, Dims: []int{64}}
	// sw A[r10+0]; lf from B; lf from A[r10+1]; lf from A[r10+0]
	instrs := []isa.Instr{
		{Op: isa.OpSf, Dst: isa.NoReg, Src1: isa.R(10), Src2: isa.F(12), Imm: 100, Sym: "A"},
		{Op: isa.OpLf, Dst: isa.F(13), Src1: isa.R(11), Src2: isa.NoReg, Imm: 200, Sym: "B"},
		{Op: isa.OpLf, Dst: isa.F(14), Src1: isa.R(10), Src2: isa.NoReg, Imm: 101, Sym: "A"},
		{Op: isa.OpLf, Dst: isa.F(15), Src1: isa.R(10), Src2: isa.NoReg, Imm: 100, Sym: "A"},
		{Op: isa.OpHalt, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
	}
	mem := []ir.MemRef{
		{Kind: ir.MemArray, Sym: arrA},
		{Kind: ir.MemArray, Sym: arrB},
		{Kind: ir.MemArray, Sym: arrA},
		{Kind: ir.MemArray, Sym: arrA},
		{},
	}
	p := &isa.Program{Instrs: instrs, Symbols: map[int]string{}}
	return p, mem, []int{0}
}

func TestMemdepDistinctArraysAlwaysFree(t *testing.T) {
	// The load from B may move above the store to A in either mode.
	p, mem, starts := memProgram(false)
	// Give the store a long-latency producer so the scheduler wants to
	// hoist loads: actually just check dependence analysis directly.
	Schedule(p, mem, starts, machine.MultiTitan(), Options{})
	// Same-array same-address load must stay after the store.
	st := indexOf(p, func(in *isa.Instr) bool { return in.Op == isa.OpSf })
	same := indexOf(p, func(in *isa.Instr) bool { return in.Dst == isa.F(15) })
	if !(st < same) {
		t.Error("conservative mode: load of stored address moved above store")
	}
	// And in conservative mode the A[+1] load must also stay put.
	off := indexOf(p, func(in *isa.Instr) bool { return in.Dst == isa.F(14) })
	if !(st < off) {
		t.Error("conservative mode: same-array load moved above store")
	}
}

func TestMemdepCarefulDisambiguates(t *testing.T) {
	p, mem, starts := memProgram(true)
	Schedule(p, mem, starts, machine.MultiTitan(), Options{Careful: true})
	st := indexOf(p, func(in *isa.Instr) bool { return in.Op == isa.OpSf })
	same := indexOf(p, func(in *isa.Instr) bool { return in.Dst == isa.F(15) })
	if !(st < same) {
		t.Error("careful mode: load of the SAME address moved above the store")
	}
	// A[+1] differs by a constant offset from the same base: free to move.
	// (The list scheduler moves it if profitable; at minimum the
	// dependence must not exist — check via the analysis directly.)
	var aa addrAnalysis
	var accs []memAccess
	for i := range p.Instrs {
		in := &p.Instrs[i]
		addr, isMem := aa.step(in)
		accs = append(accs, memAccess{ref: mem[i], isStore: in.Op.Info().Store, addr: addr, hasAddr: isMem})
	}
	// Recompute indices post-schedule: find accesses by offset constant.
	var stAcc, offAcc, sameAcc memAccess
	for i := range p.Instrs {
		switch {
		case p.Instrs[i].Op == isa.OpSf:
			stAcc = accs[i]
		case p.Instrs[i].Dst == isa.F(14):
			offAcc = accs[i]
		case p.Instrs[i].Dst == isa.F(15):
			sameAcc = accs[i]
		}
	}
	if depends(&stAcc, &offAcc, true) {
		t.Error("careful: store A[+100] vs load A[+101] should be independent")
	}
	if !depends(&stAcc, &sameAcc, true) {
		t.Error("careful: store A[+100] vs load A[+100] must stay dependent")
	}
}

func TestMemdepSpillSlots(t *testing.T) {
	s0 := memAccess{ref: ir.MemRef{Kind: ir.MemSpill, Slot: 0}, isStore: true}
	l0 := memAccess{ref: ir.MemRef{Kind: ir.MemSpill, Slot: 0}}
	l1 := memAccess{ref: ir.MemRef{Kind: ir.MemSpill, Slot: 1}}
	scalar := memAccess{ref: ir.MemRef{Kind: ir.MemScalar, Sym: &ast.Symbol{Name: "x"}}, isStore: true}
	if !depends(&s0, &l0, false) {
		t.Error("same spill slot store->load must be ordered")
	}
	if depends(&s0, &l1, false) {
		t.Error("distinct spill slots must be independent")
	}
	if depends(&scalar, &l1, false) || depends(&s0, &scalar, false) {
		t.Error("spill slots never alias program memory")
	}
}

func TestMemdepOutputOrder(t *testing.T) {
	p1 := memAccess{ref: ir.MemRef{Kind: ir.MemOut}, isStore: true}
	p2 := memAccess{ref: ir.MemRef{Kind: ir.MemOut}, isStore: true}
	load := memAccess{ref: ir.MemRef{Kind: ir.MemArray, Sym: &ast.Symbol{Name: "A"}}}
	if !depends(&p1, &p2, true) {
		t.Error("prints must stay ordered")
	}
	if depends(&p1, &load, true) || depends(&load, &p1, false) {
		t.Error("prints are independent of data memory")
	}
}

func TestAddrAnalysisLinearForms(t *testing.T) {
	var aa addrAnalysis
	// r11 = r10 + 1; loads a[r10] and a[r11] share a base.
	step := func(in isa.Instr) (linear, bool) { return aa.step(&in) }
	step(isa.Instr{Op: isa.OpAddi, Dst: isa.R(11), Src1: isa.R(10), Src2: isa.NoReg, Imm: 1})
	a1, ok1 := step(isa.Instr{Op: isa.OpLw, Dst: isa.R(12), Src1: isa.R(10), Src2: isa.NoReg, Imm: 100})
	a2, ok2 := step(isa.Instr{Op: isa.OpLw, Dst: isa.R(13), Src1: isa.R(11), Src2: isa.NoReg, Imm: 100})
	if !ok1 || !ok2 {
		t.Fatal("loads not recognized as memory")
	}
	if !sameBase(a1, a2) {
		t.Fatalf("a[i] and a[i+1] should share a base: %v vs %v", a1, a2)
	}
	if a2.c-a1.c != 1 {
		t.Errorf("offset difference = %d, want 1", a2.c-a1.c)
	}
	// Memoized scaling: two identical slli chains compare equal.
	step(isa.Instr{Op: isa.OpSlli, Dst: isa.R(20), Src1: isa.R(10), Src2: isa.NoReg, Imm: 3})
	step(isa.Instr{Op: isa.OpSlli, Dst: isa.R(21), Src1: isa.R(10), Src2: isa.NoReg, Imm: 3})
	b1, _ := step(isa.Instr{Op: isa.OpLw, Dst: isa.R(22), Src1: isa.R(20), Src2: isa.NoReg, Imm: 0})
	b2, _ := step(isa.Instr{Op: isa.OpLw, Dst: isa.R(23), Src1: isa.R(21), Src2: isa.NoReg, Imm: 4})
	if !sameBase(b1, b2) {
		t.Error("memoized slli values should compare equal")
	}
	// A clobbered register gets a fresh value.
	step(isa.Instr{Op: isa.OpLw, Dst: isa.R(10), Src1: isa.R(9), Src2: isa.NoReg, Imm: 0})
	c1, _ := step(isa.Instr{Op: isa.OpLw, Dst: isa.R(24), Src1: isa.R(10), Src2: isa.NoReg, Imm: 100})
	if sameBase(a1, c1) {
		t.Error("redefined base register must not compare equal to its old value")
	}
}

// TestAddrAnalysisSumAtMaxTerms: a sum of exactly maxTerms terms stays a
// linear form, whichever order its parts were added in, and one more term
// collapses it to a single opaque term.
func TestAddrAnalysisSumAtMaxTerms(t *testing.T) {
	var aa addrAnalysis
	step := func(in isa.Instr) (linear, bool) { return aa.step(&in) }
	add := func(d, s1, s2 int) {
		step(isa.Instr{Op: isa.OpAdd, Dst: isa.R(d), Src1: isa.R(s1), Src2: isa.R(s2)})
	}
	add(11, 1, 2)
	add(12, 11, 3) // three terms
	add(13, 4, 5)
	add(14, 13, 6) // three more
	add(15, 12, 14)
	add(16, 14, 12)
	add(17, 15, 1) // seven terms
	load := func(base int, off int64) linear {
		a, _ := step(isa.Instr{Op: isa.OpLw, Dst: isa.R(20), Src1: isa.R(base), Src2: isa.NoReg, Imm: off})
		return a
	}
	a, b, c := load(15, 0), load(16, 1), load(17, 0)
	if a.n != maxTerms || !sameBase(a, b) {
		t.Errorf("six-term sums added in either order: %v and %v, want one base of %d terms", a, b, maxTerms)
	}
	if c.n != 1 {
		t.Errorf("seven-term sum %v, want one opaque term", c)
	}
}

func TestScheduleSemanticsPreservedAcrossMachines(t *testing.T) {
	// The scheduler permutes within regions; the region boundaries at
	// branches/leaders guarantee targets stay valid. Validate on a
	// multi-block program.
	b := isa.NewBuilder()
	b.Li(isa.R(10), 10)
	b.Li(isa.R(11), 0)
	b.Label("loop")
	b.Op(isa.OpAdd, isa.R(11), isa.R(11), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Print(isa.R(11))
	b.Halt()
	p := b.MustFinish()
	mem := make([]ir.MemRef, len(p.Instrs))
	mem[len(mem)-2] = ir.MemRef{Kind: ir.MemOut}
	Schedule(p, mem, []int{0, 2}, machine.CRAY1(), Options{})
	if err := p.Validate(); err != nil {
		t.Fatalf("scheduled program invalid: %v", err)
	}
}

// TestSchedulePreservesDependencesProperty generates random straight-line
// regions and checks that list scheduling preserves every register and
// memory dependence, on several machine descriptions, and that each
// region's dependence graph matches the reference analysis.
func TestSchedulePreservesDependencesProperty(t *testing.T) {
	arrX := &ast.Symbol{Name: "X", Kind: ast.SymArray, Type: ast.Int, Dims: []int{64}}
	arrY := &ast.Symbol{Name: "Y", Kind: ast.SymArray, Type: ast.Int, Dims: []int{64}}
	machines := []*machine.Config{machine.Base(), machine.MultiTitan(), machine.CRAY1(), machine.IdealSuperscalar(4)}

	seedState := uint64(12345)
	rnd := func(m int) int {
		seedState = seedState*6364136223846793005 + 1442695040888963407
		return int(seedState>>33) % m
	}

	var g Graph
	for trial := 0; trial < 50; trial++ {
		n := 5 + rnd(20)
		instrs := make([]isa.Instr, 0, n+1)
		mem := make([]ir.MemRef, 0, n+1)
		for i := 0; i < n; i++ {
			r := func() isa.Reg { return isa.R(10 + rnd(6)) }
			switch rnd(5) {
			case 0:
				instrs = append(instrs, isa.Instr{Op: isa.OpAdd, Dst: r(), Src1: r(), Src2: r()})
				mem = append(mem, ir.MemRef{})
			case 1:
				instrs = append(instrs, isa.Instr{Op: isa.OpLi, Dst: r(), Src1: isa.NoReg, Src2: isa.NoReg, Imm: int64(rnd(100))})
				mem = append(mem, ir.MemRef{})
			case 2:
				sym := arrX
				if rnd(2) == 0 {
					sym = arrY
				}
				instrs = append(instrs, isa.Instr{Op: isa.OpLw, Dst: r(), Src1: r(), Src2: isa.NoReg, Imm: int64(rnd(4)), Sym: sym.Name})
				mem = append(mem, ir.MemRef{Kind: ir.MemArray, Sym: sym})
			case 3:
				sym := arrX
				if rnd(2) == 0 {
					sym = arrY
				}
				instrs = append(instrs, isa.Instr{Op: isa.OpSw, Dst: isa.NoReg, Src1: r(), Src2: r(), Imm: int64(rnd(4)), Sym: sym.Name})
				mem = append(mem, ir.MemRef{Kind: ir.MemSpill, Slot: rnd(3)})
				mem[len(mem)-1] = ir.MemRef{Kind: ir.MemArray, Sym: sym}
			default:
				instrs = append(instrs, isa.Instr{Op: isa.OpMul, Dst: r(), Src1: r(), Src2: r()})
				mem = append(mem, ir.MemRef{})
			}
		}
		instrs = append(instrs, isa.Instr{Op: isa.OpHalt, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg})
		mem = append(mem, ir.MemRef{})

		for _, careful := range []bool{false, true} {
			// The region before the halt builds the same graph as the
			// reference analysis, under every machine's latencies.
			for _, m := range machines {
				if err := diffReference(&g, instrs[:n], mem[:n], careful, &m.Latency); err != nil {
					t.Fatalf("trial %d (careful=%v) on %s: %v", trial, careful, m.Name, err)
				}
			}
			m := machines[trial%len(machines)]
			// Record original order via value identity: tag with Imm in
			// a shadow copy index.
			orig := make([]isa.Instr, len(instrs))
			copy(orig, instrs)
			origMem := make([]ir.MemRef, len(mem))
			copy(origMem, mem)

			p := &isa.Program{Instrs: orig, Symbols: map[int]string{}}
			Schedule(p, origMem, []int{0}, m, Options{Careful: careful})

			// Map scheduled position back to original index: instructions
			// may be identical, so match by multiset and verify
			// dependences directly over the scheduled sequence instead.
			checkSequence(t, trial, p.Instrs, origMem, instrs, mem, careful)
		}
	}
}

// checkSequence verifies the scheduled sequence is a permutation of the
// original and that for every pair that conflicts in the original order,
// their relative order is preserved. Conflicts are recomputed over the
// original sequence; matching instructions across the permutation uses
// stable identity of equal values (sufficient: equal instructions are
// interchangeable for dependence purposes).
func checkSequence(t *testing.T, trial int, sched []isa.Instr, schedMem []ir.MemRef,
	orig []isa.Instr, origMem []ir.MemRef, careful bool) {
	t.Helper()
	if len(sched) != len(orig) {
		t.Fatalf("trial %d: length changed", trial)
	}
	// Permutation check (multiset of disassembly strings).
	count := map[string]int{}
	for i := range orig {
		count[orig[i].String()]++
	}
	for i := range sched {
		count[sched[i].String()]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("trial %d: not a permutation (%q off by %d)", trial, k, v)
		}
	}
	// Register dependence check over the scheduled order: simulate
	// sequential register semantics on both orders with symbolic values
	// and compare final register states. Equal final states for all
	// registers implies RAW/WAR/WAW were respected for the register
	// file... but that is weaker than per-pair ordering; do both: a
	// cheap symbolic execution catches reg violations.
	exec := func(seq []isa.Instr) map[isa.Reg]string {
		val := map[isa.Reg]string{}
		get := func(r isa.Reg) string {
			if v, ok := val[r]; ok {
				return v
			}
			return "init:" + r.String()
		}
		for i := range seq {
			in := &seq[i]
			if d := in.Def(); d != isa.NoReg {
				u1, u2 := in.Uses()
				s1, s2 := "", ""
				if u1 != isa.NoReg {
					s1 = get(u1)
				}
				if u2 != isa.NoReg {
					s2 = get(u2)
				}
				val[d] = in.Op.String() + "(" + s1 + "," + s2 + "," + in.String() + ")"
			}
		}
		return val
	}
	a, b := exec(orig), exec(sched)
	for r, v := range a {
		if b[r] != v {
			t.Fatalf("trial %d (careful=%v): register %v diverged:\n  orig  %s\n  sched %s",
				trial, careful, r, v, b[r])
		}
	}
	// Memory dependence: for conflicting pairs in the original, check
	// relative order in the schedule (match by string identity with
	// occurrence counting).
	pos := map[string][]int{}
	for i := range sched {
		k := sched[i].String()
		pos[k] = append(pos[k], i)
	}
	occ := map[string]int{}
	schedIndex := make([]int, len(orig))
	for i := range orig {
		k := orig[i].String()
		schedIndex[i] = pos[k][occ[k]]
		occ[k]++
	}
	var aaO addrAnalysis
	accO := make([]memAccess, len(orig))
	for i := range orig {
		addr, isMem := aaO.step(&orig[i])
		accO[i] = memAccess{ref: origMem[i], isStore: orig[i].Op.Info().Store, addr: addr, hasAddr: isMem}
	}
	for i := 0; i < len(orig); i++ {
		for j := i + 1; j < len(orig); j++ {
			if accO[i].ref.Kind == ir.MemNone || accO[j].ref.Kind == ir.MemNone {
				continue
			}
			if depends(&accO[i], &accO[j], careful) {
				// Occurrence matching can swap identical instructions,
				// which is harmless; only enforce order for distinct ones.
				if orig[i].String() == orig[j].String() {
					continue
				}
				if schedIndex[i] > schedIndex[j] {
					t.Fatalf("trial %d (careful=%v): memory dependence %d->%d violated (%s then %s)",
						trial, careful, i, j, orig[i].String(), orig[j].String())
				}
			}
		}
	}
}
