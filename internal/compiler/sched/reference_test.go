package sched

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"

	"ilp/internal/ir"
	"ilp/internal/isa"
	"ilp/internal/lang/ast"
	"ilp/internal/machine"
)

// This file keeps the dependence analysis as it stood before the Graph
// replaced it: map-based register tables, a successor slice per
// instruction, and an address analysis keyed by strings. It serves only as
// the reference the Graph's edges are checked against (see
// diffReference), in the way the simulator's tests keep the seed engine.

// refLinear is a symbolic address: a sum of opaque terms plus a constant.
type refLinear struct {
	terms []int32 // sorted opaque term ids; nil means pure constant
	c     int64
}

// appendKey appends l's canonical key to buf and returns it; keys are map
// lookups on the hot path, so they are built append-style into a reused
// buffer instead of allocating a string per call.
func (l refLinear) appendKey(buf []byte) []byte {
	for _, t := range l.terms {
		buf = strconv.AppendInt(buf, int64(t), 10)
		buf = append(buf, ',')
	}
	buf = append(buf, ':')
	return strconv.AppendInt(buf, l.c, 10)
}

// refSameBase reports whether two linear forms share exactly the same term
// multiset (so their difference is a compile-time constant).
func refSameBase(a, b refLinear) bool {
	if len(a.terms) != len(b.terms) {
		return false
	}
	for i := range a.terms {
		if a.terms[i] != b.terms[i] {
			return false
		}
	}
	return true
}

// refMaxTerms bounds the linear form before collapsing to an opaque value.
const refMaxTerms = 6

// refAddrAnalysis tracks symbolic register values through a region so memory
// addresses can be compared.
type refAddrAnalysis struct {
	vals     map[isa.Reg]refLinear
	memo     map[string]int32  // expression key -> opaque term
	terms1   map[int32][]int32 // single-term slice cache (terms are immutable)
	kbuf     []byte            // scratch for building expression keys
	nextTerm int32
}

func newRefAddrAnalysis() *refAddrAnalysis {
	return &refAddrAnalysis{
		vals:   map[isa.Reg]refLinear{},
		memo:   map[string]int32{},
		terms1: map[int32][]int32{},
	}
}

// termLinear returns the canonical single-term linear for t. Term slices are
// never mutated downstream (refMergeTerms copies), so one shared slice per term
// is safe and saves an allocation per opaque value.
func (a *refAddrAnalysis) termLinear(t int32) refLinear {
	s, ok := a.terms1[t]
	if !ok {
		s = []int32{t}
		a.terms1[t] = s
	}
	return refLinear{terms: s}
}

// valueOf returns the symbolic value of a register (registers not yet
// written in the region get a per-register opaque term).
func (a *refAddrAnalysis) valueOf(r isa.Reg) refLinear {
	if r == isa.RZero {
		return refLinear{}
	}
	if v, ok := a.vals[r]; ok {
		return v
	}
	v := a.termLinear(-int32(r) - 1)
	a.vals[r] = v
	return v
}

// opaque returns a canonical fresh term for the expression key (a scratch
// byte slice; the string copy happens only when a new term is interned).
func (a *refAddrAnalysis) opaque(key []byte) refLinear {
	t, ok := a.memo[string(key)]
	if !ok {
		a.nextTerm++
		t = a.nextTerm
		a.memo[string(key)] = t
	}
	return a.termLinear(t)
}

func refMergeTerms(x, y []int32) []int32 {
	out := make([]int32, 0, len(x)+len(y))
	out = append(out, x...)
	out = append(out, y...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// step updates the analysis for one instruction and returns the symbolic
// address if it is a data-memory access (ok=false otherwise).
func (a *refAddrAnalysis) step(in *isa.Instr) (addr refLinear, isMem bool) {
	info := in.Op.Info()
	if info.Load || (info.Store && in.Op != isa.OpPrinti && in.Op != isa.OpPrintf) {
		base := a.valueOf(in.Src1)
		addr = refLinear{terms: base.terms, c: base.c + in.Imm}
		isMem = true
	}

	// Transfer function for the destination.
	if !info.HasDst || in.Dst == isa.NoReg || in.Dst == isa.RZero {
		return addr, isMem
	}
	var v refLinear
	switch in.Op {
	case isa.OpLi:
		v = refLinear{c: in.Imm}
	case isa.OpMov:
		v = a.valueOf(in.Src1)
	case isa.OpAddi:
		s := a.valueOf(in.Src1)
		v = refLinear{terms: s.terms, c: s.c + in.Imm}
	case isa.OpAdd:
		s1, s2 := a.valueOf(in.Src1), a.valueOf(in.Src2)
		if len(s1.terms)+len(s2.terms) <= refMaxTerms {
			v = refLinear{terms: refMergeTerms(s1.terms, s2.terms), c: s1.c + s2.c}
		} else {
			buf := append(a.kbuf[:0], "add:"...)
			buf = s1.appendKey(buf)
			buf = append(buf, '+')
			buf = s2.appendKey(buf)
			a.kbuf = buf
			v = a.opaque(buf)
		}
	case isa.OpSub:
		s1, s2 := a.valueOf(in.Src1), a.valueOf(in.Src2)
		if len(s2.terms) == 0 {
			v = refLinear{terms: s1.terms, c: s1.c - s2.c}
		} else {
			buf := append(a.kbuf[:0], "sub:"...)
			buf = s1.appendKey(buf)
			buf = append(buf, '-')
			buf = s2.appendKey(buf)
			a.kbuf = buf
			v = a.opaque(buf)
		}
	case isa.OpSlli, isa.OpMul, isa.OpSll:
		// Memoized opaque: identical shift/multiply expressions get the
		// same term, so scaled indices still compare equal.
		s1 := a.valueOf(in.Src1)
		buf := append(a.kbuf[:0], in.Op.String()...)
		buf = append(buf, ':')
		buf = s1.appendKey(buf)
		buf = append(buf, ':')
		if in.Op == isa.OpSlli {
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, in.Imm, 10)
		} else {
			buf = a.valueOf(in.Src2).appendKey(buf)
		}
		a.kbuf = buf
		v = a.opaque(buf)
	default:
		// Any other producer: a fresh opaque value per destination
		// definition site is unnecessary — memoizing on operands keeps
		// equal expressions equal, which is strictly more precise and
		// still sound within a straight-line region. The float immediate
		// keys on its bit pattern (injective, unlike decimal formatting).
		buf := append(a.kbuf[:0], in.Op.String()...)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, in.Imm, 10)
		buf = append(buf, ':')
		buf = strconv.AppendUint(buf, math.Float64bits(in.FImm), 16)
		if info.NSrc >= 1 {
			buf = append(buf, ':')
			buf = a.valueOf(in.Src1).appendKey(buf)
		}
		if info.NSrc >= 2 {
			buf = append(buf, ':')
			buf = a.valueOf(in.Src2).appendKey(buf)
		}
		a.kbuf = buf
		v = a.opaque(buf)
	}
	a.vals[in.Dst] = v
	return addr, isMem
}

// refMemAccess is the dependence-relevant footprint of one instruction.
type refMemAccess struct {
	ref     ir.MemRef
	isStore bool
	addr    refLinear
	hasAddr bool
}

// refDepends reports whether access j (later) must stay ordered after access i
// (earlier).
func refDepends(i, j refMemAccess, careful bool) bool {
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
	if i.hasAddr && j.hasAddr && refSameBase(i.addr, j.addr) {
		return i.addr.c == j.addr.c
	}
	return true
}

// refEdge is one dependence arc within a region: instruction `to` must
// issue at least `w` minor cycles after its predecessor.
type refEdge struct {
	to int
	w  int
}

// refBuildDeps constructs the dependence graph of one straight-line region in
// its current order: RAW, WAR and WAW register edges plus memory-ordering
// edges from the conservative or careful disambiguator. lat supplies RAW
// edge weights (operation latencies); nil gives every edge unit weight,
// which preserves the graph's structure and is all a legality check needs.
// succ[i] holds (j, w) pairs with j > i; npred[j] counts predecessors.
func refBuildDeps(instrs []isa.Instr, mem []ir.MemRef, careful bool, lat func(isa.Class) int) (succ [][]refEdge, npred []int) {
	n := len(instrs)

	// Memory footprints.
	aa := newRefAddrAnalysis()
	acc := make([]refMemAccess, n)
	for i := range instrs {
		in := &instrs[i]
		addr, hasAddr := aa.step(in)
		info := in.Op.Info()
		acc[i] = refMemAccess{
			ref:     mem[i],
			isStore: info.Store,
			addr:    addr,
			hasAddr: hasAddr,
		}
	}

	succ = make([][]refEdge, n)
	npred = make([]int, n)
	addEdge := func(i, j, w int) {
		succ[i] = append(succ[i], refEdge{j, w})
		npred[j]++
	}

	lastDef := map[isa.Reg]int{}
	lastUses := map[isa.Reg][]int{}
	var buf [2]isa.Reg
	uses := func(in *isa.Instr) []isa.Reg {
		u1, u2 := in.Uses()
		out := buf[:0]
		if u1 != isa.NoReg {
			out = append(out, u1)
		}
		if u2 != isa.NoReg {
			out = append(out, u2)
		}
		return out
	}
	for j := 0; j < n; j++ {
		in := &instrs[j]
		for _, u := range uses(in) {
			if i, ok := lastDef[u]; ok {
				w := 1
				if lat != nil {
					w = lat(instrs[i].Op.Class())
				}
				addEdge(i, j, w) // RAW
			}
		}
		if d := in.Def(); d != isa.NoReg && d != isa.RZero {
			if i, ok := lastDef[d]; ok {
				addEdge(i, j, 1) // WAW
			}
			for _, r := range lastUses[d] {
				if r != j {
					addEdge(r, j, 0) // WAR
				}
			}
			lastDef[d] = j
			delete(lastUses, d)
		}
		for _, u := range uses(in) {
			lastUses[u] = append(lastUses[u], j)
		}
		// Memory ordering.
		if acc[j].ref.Kind != ir.MemNone {
			for i := 0; i < j; i++ {
				if acc[i].ref.Kind == ir.MemNone {
					continue
				}
				if refDepends(acc[i], acc[j], careful) {
					addEdge(i, j, 1)
				}
			}
		}
	}
	return succ, npred
}

// diffReference builds the graph of one region in g and checks it against
// refBuildDeps: both must find the same multiset of (from, to, weight)
// edges and the same predecessor counts. lat nil gives unit weights.
func diffReference(g *Graph, instrs []isa.Instr, mem []ir.MemRef, careful bool, lat *[isa.NumClasses]int) error {
	var refLat func(isa.Class) int
	if lat != nil {
		refLat = func(cl isa.Class) int { return lat[cl] }
	}
	succ, npred := refBuildDeps(instrs, mem, careful, refLat)
	g.build(instrs, mem, careful, lat)
	count := map[[3]int]int{}
	for i, es := range succ {
		for _, e := range es {
			count[[3]int{i, e.to, e.w}]++
		}
	}
	for i := range instrs {
		for _, e := range g.succs(i) {
			count[[3]int{i, e.to, e.w}]--
		}
	}
	for e, d := range count {
		if d != 0 {
			return fmt.Errorf("edge %d -> %d of weight %d: the reference finds it %d times more than the graph", e[0], e[1], e[2], d)
		}
	}
	for j := range instrs {
		if npred[j] != g.npred[j] {
			return fmt.Errorf("instruction %d: %d predecessors, the reference counts %d", j, g.npred[j], npred[j])
		}
	}
	return nil
}

// TestGraphMatchesReferenceAddressing checks the graph against the
// reference on random regions of address arithmetic: chains of li, mov,
// addi, add, sub, slli, srai, mul, sll and and, whose values index loads
// and stores of two arrays and one scalar. Sums grow to and past maxTerms
// terms, operands recur in either order, and equal expressions must get
// equal terms, so the careful disambiguator sees every kind of symbolic
// address.
func TestGraphMatchesReferenceAddressing(t *testing.T) {
	arrX := &ast.Symbol{Name: "X", Kind: ast.SymArray, Type: ast.Int, Dims: []int{64}}
	arrY := &ast.Symbol{Name: "Y", Kind: ast.SymArray, Type: ast.Int, Dims: []int{64}}
	scalar := &ast.Symbol{Name: "s", Kind: ast.SymGlobal, Type: ast.Int}
	lats := []*[isa.NumClasses]int{&machine.Base().Latency, &machine.CRAY1().Latency, nil}

	state := uint64(2718281828)
	rnd := func(m int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % m
	}
	// Odd trials read and write r1..r4, so values are soon overwritten and
	// recomputed. Even trials read r1..r3, which they never write, as often
	// as one of the values r4..r9 they compute, so the same sums and
	// products recur, in either operand order, while earlier results are
	// still live.
	var reg, dst func() isa.Reg
	small := func() isa.Reg { return isa.R(1 + rnd(4)) }
	inputsOrValues := func() isa.Reg {
		if rnd(2) == 0 {
			return isa.R(1 + rnd(3))
		}
		return isa.R(4 + rnd(6))
	}
	values := func() isa.Reg { return isa.R(4 + rnd(6)) }
	var g Graph
	for trial := 0; trial < 2000; trial++ {
		reg, dst = small, small
		if trial%2 == 0 {
			reg, dst = inputsOrValues, values
		}
		n := 4 + rnd(40)
		instrs := make([]isa.Instr, 0, n)
		mem := make([]ir.MemRef, 0, n)
		for i := 0; i < n; i++ {
			in := isa.Instr{Dst: dst(), Src1: isa.NoReg, Src2: isa.NoReg, Imm: int64(rnd(4))}
			var ref ir.MemRef
			switch k := rnd(22); {
			case k < 1:
				in.Op = isa.OpLi
			case k < 2:
				in.Op, in.Src1 = isa.OpMov, reg()
			case k < 4:
				in.Op, in.Src1 = isa.OpAddi, reg()
			case k < 9:
				in.Op, in.Src1, in.Src2 = isa.OpAdd, reg(), reg()
			case k < 10:
				in.Op, in.Src1, in.Src2 = isa.OpSub, reg(), reg()
			case k < 11:
				in.Op, in.Src1 = isa.OpSlli, reg()
			case k < 12:
				in.Op, in.Src1 = isa.OpSrai, reg()
			case k < 15:
				ops := []isa.Opcode{isa.OpMul, isa.OpSll, isa.OpAnd}
				in.Op, in.Src1, in.Src2 = ops[rnd(len(ops))], reg(), reg()
			case k < 18:
				in.Op, in.Src1 = isa.OpLw, reg()
			default:
				in.Op, in.Dst, in.Src1, in.Src2 = isa.OpSw, isa.NoReg, reg(), reg()
			}
			if in.Op == isa.OpLw || in.Op == isa.OpSw {
				switch rnd(5) {
				case 0:
					ref = ir.MemRef{Kind: ir.MemScalar, Sym: scalar}
				case 1:
					ref = ir.MemRef{Kind: ir.MemArray, Sym: arrY}
				default:
					ref = ir.MemRef{Kind: ir.MemArray, Sym: arrX}
				}
			}
			instrs = append(instrs, in)
			mem = append(mem, ref)
		}
		for _, careful := range []bool{false, true} {
			for li, lat := range lats {
				if err := diffReference(&g, instrs, mem, careful, lat); err != nil {
					t.Fatalf("trial %d (careful=%v, latencies %d): %v", trial, careful, li, err)
				}
			}
		}
	}
}
