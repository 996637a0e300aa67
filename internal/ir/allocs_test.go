package ir

import (
	"testing"

	"ilp/internal/isa"
)

// buildLadder makes an n-block function: block i adds to a running value
// and branches on to block i+1 or back to block max(i-3, 1), so it has n-1
// loops' worth of back edges; the last block returns.
func buildLadder(n int) *Func {
	f := &Func{Name: "ladder"}
	blocks := make([]*Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	v := f.NewReg(RInt)
	blocks[0].Instrs = []Instr{
		{Kind: KOp, Op: isa.OpLi, Dst: v, Src1: NoReg, Src2: NoReg},
		{Kind: KJmp, Dst: NoReg, Src1: NoReg, Src2: NoReg, Targets: [2]*Block{blocks[1]}},
	}
	for i := 1; i < n-1; i++ {
		w := f.NewReg(RInt)
		blocks[i].Instrs = []Instr{
			{Kind: KOp, Op: isa.OpAddi, Dst: w, Src1: v, Src2: NoReg, Imm: 1},
			{Kind: KBr, Op: isa.OpBlt, Dst: NoReg, Src1: w, Src2: v,
				Targets: [2]*Block{blocks[max(i-3, 1)], blocks[i+1]}},
		}
		v = w
	}
	blocks[n-1].Instrs = []Instr{{Kind: KRet, Dst: NoReg, Src1: v, Src2: NoReg}}
	return f
}

// TestAnalysisAllocs pins the CFG analyses at a constant number of
// allocations per call, whatever the number of blocks: their tables are
// indexed by block ID, and a Liveness recomputed in place allocates
// nothing once it has grown.
func TestAnalysisAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		max  float64
		run  func(f *Func)
	}{
		{"Preds", 2, func(f *Func) { f.Preds() }},
		{"ReversePostorder", 2, func(f *Func) { f.ReversePostorder() }},
		{"Dominators", 6, func(f *Func) { f.Dominators() }},
		{"ComputeLiveness", 4, func(f *Func) { f.ComputeLiveness() }},
		{"NaturalLoops", 11, func(f *Func) { f.NaturalLoops() }},
	} {
		for _, n := range []int{8, 1000} {
			f := buildLadder(n)
			if got := testing.AllocsPerRun(10, func() { tc.run(f) }); got > tc.max {
				t.Errorf("%s on %d blocks: %.0f allocations, want at most %.0f", tc.name, n, got, tc.max)
			}
		}
	}
	f := buildLadder(1000)
	var lv Liveness
	lv.Compute(f)
	if got := testing.AllocsPerRun(10, func() { lv.Compute(f) }); got != 0 {
		t.Errorf("Liveness.Compute into grown storage: %.0f allocations, want 0", got)
	}
}
