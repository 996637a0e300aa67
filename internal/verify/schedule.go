package verify

import (
	"math"

	"ilp/internal/compiler/sched"
	"ilp/internal/ir"
	"ilp/internal/isa"
)

// CheckSchedule is the translation-validation half of the verifier: given
// the instruction stream before and after the pipeline scheduler ran (with
// their parallel memory annotations), it re-derives the scheduler's
// straight-line regions, recomputes every RAW/WAR/WAW and memory-ordering
// dependence edge on the pre-schedule order using the scheduler's own
// dependence analysis (sched.Graph), and verifies that the
// post-schedule code is a per-region permutation that preserves every edge.
// careful must match the disambiguation mode the scheduler ran with: a
// schedule that is legal under careful unrolling's memory analysis can
// reorder accesses the conservative analysis would keep in order.
func CheckSchedule(pre, post []isa.Instr, preMem, postMem []ir.MemRef, blockStarts []int, careful bool, pass string) []Diagnostic {
	var diags []Diagnostic
	add := func(code Code, idx int, instr, msg string) {
		diags = append(diags, Diagnostic{
			Code: code, Severity: SevError, Pass: pass, Index: idx, Instr: instr, Msg: msg,
		})
	}
	if len(pre) != len(post) {
		add(CodeSchedShape, -1, "", "scheduler changed the instruction count")
		return diags
	}
	if preMem == nil {
		preMem = make([]ir.MemRef, len(pre))
	}
	if postMem == nil {
		postMem = make([]ir.MemRef, len(post))
	}
	if len(preMem) != len(pre) || len(postMem) != len(post) {
		add(CodeSchedShape, -1, "", "memory annotation length does not match the instruction count")
		return diags
	}

	regions := sched.Regions(pre, blockStarts)
	inRegion := make([]bool, len(pre))
	for _, r := range regions {
		for i := r[0]; i < r[1]; i++ {
			inRegion[i] = true
		}
	}
	// Barriers (branches, calls, returns, halt) and region boundaries must
	// not move at all.
	for i := range pre {
		if inRegion[i] {
			continue
		}
		if !eqInstr(pre[i], post[i]) || preMem[i] != postMem[i] {
			add(CodeSchedShape, i, post[i].String(), "barrier instruction was moved or rewritten by the scheduler")
		}
	}
	if len(diags) > 0 {
		return diags
	}

	var g sched.Graph // one dependence graph, rebuilt for each region
	for _, r := range regions {
		diags = append(diags, checkRegion(&g, pre, post, preMem, postMem, r[0], r[1], careful, pass)...)
	}
	return diags
}

// checkRegion validates one straight-line region [start, end), building its
// dependence edges in g.
func checkRegion(g *sched.Graph, pre, post []isa.Instr, preMem, postMem []ir.MemRef, start, end int, careful bool, pass string) []Diagnostic {
	var diags []Diagnostic
	add := func(code Code, idx int, instr, msg string) {
		diags = append(diags, Diagnostic{
			Code: code, Severity: SevError, Pass: pass, Index: idx, Instr: instr, Msg: msg,
		})
	}
	n := end - start

	// Match each post-schedule instruction to the earliest unmatched
	// identical pre-schedule instruction. Matching in order keeps copies of
	// identical instructions in their original relative order, which is the
	// only interpretation under which a schedule of duplicates can be
	// legal (any dependence among identical copies is order-preserving).
	posOf := make([]int, n) // pre offset -> post offset
	matched := make([]bool, n)
	for p := 0; p < n; p++ {
		found := -1
		for q := 0; q < n; q++ {
			if !matched[q] && eqInstr(pre[start+q], post[start+p]) && preMem[start+q] == postMem[start+p] {
				found = q
				break
			}
		}
		if found < 0 {
			add(CodeSchedContent, start+p, post[start+p].String(),
				"instruction is not a reordering of the pre-schedule region")
			return diags
		}
		matched[found] = true
		posOf[found] = p
	}

	for _, e := range g.Dependences(pre[start:end], preMem[start:end], careful) {
		i, j := e[0], e[1]
		if posOf[i] > posOf[j] {
			add(CodeSchedDep, start+posOf[j], post[start+posOf[j]].String(),
				"scheduled before its dependence predecessor `"+pre[start+i].String()+"`")
		}
	}
	return diags
}

// eqInstr compares instructions field by field, treating floating-point
// immediates by bit pattern so NaN payloads still compare equal.
func eqInstr(a, b isa.Instr) bool {
	return a.Op == b.Op && a.Dst == b.Dst && a.Src1 == b.Src1 && a.Src2 == b.Src2 &&
		a.Imm == b.Imm && math.Float64bits(a.FImm) == math.Float64bits(b.FImm) &&
		a.Target == b.Target && a.Sym == b.Sym
}
