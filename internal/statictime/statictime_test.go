// Tests for the static timing analyzer: hand-computed bounds on small
// blocks, structural checks of block partitioning and exact spans, and the
// central soundness property — every simulated cycle count falls inside
// [LowerBound, UpperBound] — cross-checked against the dynamic engine.
package statictime_test

import (
	"testing"

	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/sim"
	"ilp/internal/statictime"
)

// chainProg is a pure dependence chain: li feeding three dependent addis.
func chainProg() *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 1)
	b.Imm(isa.OpAddi, isa.R(11), isa.R(10), 1)
	b.Imm(isa.OpAddi, isa.R(12), isa.R(11), 1)
	b.Imm(isa.OpAddi, isa.R(13), isa.R(12), 1)
	b.Halt()
	return b.MustFinish()
}

// wideProg is eight independent lis: no dependences, pure width pressure.
func wideProg() *isa.Program {
	b := isa.NewBuilder()
	for r := 10; r < 18; r++ {
		b.Li(isa.R(r), int64(r))
	}
	b.Halt()
	return b.MustFinish()
}

// loopProg is the benchmark-style counted loop: a conflict-free
// straight-line body closed by a backward conditional branch.
func loopProg(n int64) *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R(10), n)
	b.Li(isa.R(11), 0)
	b.Label("loop")
	b.Op(isa.OpAdd, isa.R(11), isa.R(11), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(12), isa.R(11), 3)
	b.Op(isa.OpXor, isa.R(13), isa.R(12), isa.R(11))
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Print(isa.R(13))
	b.Halt()
	return b.MustFinish()
}

// mixedProg exercises memory, floating point, a forward branch and a join.
func mixedProg() *isa.Program {
	b := isa.NewBuilder()
	addr := b.Data(7, 9)
	b.Li(isa.R(10), addr)
	b.Load(isa.OpLw, isa.R(11), isa.R(10), 0)
	b.Load(isa.OpLw, isa.R(12), isa.R(10), 1)
	b.Op(isa.OpMul, isa.R(13), isa.R(11), isa.R(12))
	b.Branch(isa.OpBgt, isa.R(13), isa.RZero, "pos")
	b.Op(isa.OpSub, isa.R(13), isa.RZero, isa.R(13))
	b.Label("pos")
	b.Op1(isa.OpCvtif, isa.F(0), isa.R(13))
	b.Op(isa.OpFmul, isa.F(1), isa.F(0), isa.F(0))
	b.Op1(isa.OpFsqrt, isa.F(2), isa.F(1))
	b.PrintF(isa.F(2))
	b.Store(isa.OpSw, isa.R(13), isa.R(10), 0)
	b.Halt()
	return b.MustFinish()
}

func analyze(t *testing.T, p *isa.Program, cfg *machine.Config) *statictime.Analysis {
	t.Helper()
	a, err := statictime.Analyze(p, cfg)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", cfg.Name, err)
	}
	return a
}

func TestDepHeightChain(t *testing.T) {
	// On a wide ideal machine the width bound vanishes and the chain's
	// RAW critical path is the whole story: 3 unit-latency edges.
	a := analyze(t, chainProg(), machine.IdealSuperscalar(8))
	if len(a.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(a.Blocks))
	}
	b := a.Blocks[0]
	if b.DepHeight != 3 || b.WidthBound != 0 || b.Span != 3 {
		t.Errorf("dep/width/span = %d/%d/%d, want 3/0/3", b.DepHeight, b.WidthBound, b.Span)
	}
	if !b.ConflictFree || b.ExactSpan != 3 {
		t.Errorf("conflictFree/exactSpan = %v/%d, want true/3", b.ConflictFree, b.ExactSpan)
	}
}

func TestWidthBound(t *testing.T) {
	// Eight independent lis plus halt on width 4: ⌈9/4⌉−1 = 2 cycles of
	// span from the issue-width pigeonhole alone.
	a := analyze(t, wideProg(), machine.IdealSuperscalar(4))
	b := a.Blocks[0]
	if b.DepHeight != 0 || b.WidthBound != 2 || b.Span != 2 {
		t.Errorf("dep/width/span = %d/%d/%d, want 0/2/2", b.DepHeight, b.WidthBound, b.Span)
	}
}

func TestUnitBound(t *testing.T) {
	// The conflicted machine has one copy per class unit: eight lis
	// serialize on it regardless of the width-4 front end.
	a := analyze(t, wideProg(), machine.SuperscalarWithConflicts(4))
	b := a.Blocks[0]
	if b.UnitBound != 7 {
		t.Errorf("unitBound = %d, want 7", b.UnitBound)
	}
	if b.ConflictFree || b.ExactSpan != -1 {
		t.Errorf("conflictFree/exactSpan = %v/%d on a multiplicity-1 machine, want false/-1", b.ConflictFree, b.ExactSpan)
	}
}

func TestBlockPartition(t *testing.T) {
	p := loopProg(5)
	a := analyze(t, p, machine.Base())
	// Leaders: entry (0), the loop target, after the branch, after the
	// halt-less print... concretely: [0,2) preheader, [2,7) body+branch,
	// [7,9) print+halt.
	wantLeaders := []int{0, 2, 7}
	if len(a.Blocks) != len(wantLeaders) {
		t.Fatalf("blocks = %d, want %d", len(a.Blocks), len(wantLeaders))
	}
	for i, w := range wantLeaders {
		if a.Blocks[i].Leader != w {
			t.Errorf("block %d leader = %d, want %d", i, a.Blocks[i].Leader, w)
		}
	}
	if a.Blocks[1].Label != "loop" {
		t.Errorf("block 1 label = %q, want %q", a.Blocks[1].Label, "loop")
	}
	// Blocks must partition the program and blockOf must agree.
	next := 0
	for bi := range a.Blocks {
		b := &a.Blocks[bi]
		if b.Leader != next {
			t.Errorf("block %d starts at %d, want %d (partition gap)", bi, b.Leader, next)
		}
		next = b.End
		for i := b.Leader; i < b.End; i++ {
			if a.BlockOf(i) != bi {
				t.Errorf("BlockOf(%d) = %d, want %d", i, a.BlockOf(i), bi)
			}
		}
	}
	if next != len(p.Instrs) {
		t.Errorf("blocks end at %d, want %d", next, len(p.Instrs))
	}
}

func TestScheduleConsistency(t *testing.T) {
	progs := []*isa.Program{chainProg(), wideProg(), loopProg(10), mixedProg()}
	cfgs := []*machine.Config{
		machine.Base(), machine.IdealSuperscalar(4), machine.Superpipelined(4), machine.MultiTitan(),
	}
	for _, p := range progs {
		for _, cfg := range cfgs {
			a := analyze(t, p, cfg)
			for bi := range a.Blocks {
				b := &a.Blocks[bi]
				if b.ConflictFree && b.ExactSpan < b.Span {
					t.Errorf("%s block %d: exact span %d below lower bound %d", cfg.Name, bi, b.ExactSpan, b.Span)
				}
			}
		}
	}
}

// TestBoundsVsSim is the soundness property the verify pass turns into an
// oracle: for every program × machine pair, the simulated minor cycles fall
// within the static [lower, upper] bounds computed from the dynamic counts.
func TestBoundsVsSim(t *testing.T) {
	progs := map[string]*isa.Program{
		"chain": chainProg(),
		"wide":  wideProg(),
		"loop":  loopProg(500),
		"mixed": mixedProg(),
	}
	cfgs := []*machine.Config{
		machine.Base(),
		machine.IdealSuperscalar(2),
		machine.IdealSuperscalar(8),
		machine.Superpipelined(4),
		machine.SuperpipelinedSuperscalar(2, 2),
		machine.SuperscalarWithConflicts(4),
		machine.Underpipelined(),
		machine.MultiTitan(),
		machine.CRAY1(),
	}
	for name, p := range progs {
		for _, cfg := range cfgs {
			r, err := sim.Run(p, sim.Options{Machine: cfg, CountInstrs: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.Name, err)
			}
			if r.InstrCounts == nil || r.TakenExits == nil {
				t.Fatalf("%s/%s: CountInstrs reported no counts", name, cfg.Name)
			}
			var total int64
			for _, c := range r.InstrCounts {
				total += c
			}
			if total != r.Instructions {
				t.Errorf("%s/%s: InstrCounts sum %d != %d instructions", name, cfg.Name, total, r.Instructions)
			}
			a := analyze(t, p, cfg)
			lo := a.LowerBound(r.InstrCounts, r.TakenExits)
			hi := a.UpperBound(r.InstrCounts)
			if lo > r.MinorCycles || r.MinorCycles > hi {
				t.Errorf("%s/%s: %d minor cycles outside static bounds [%d, %d]",
					name, cfg.Name, r.MinorCycles, lo, hi)
			}
		}
	}
}

func TestBoundsZeroCounts(t *testing.T) {
	p := chainProg()
	a := analyze(t, p, machine.Base())
	zero := make([]int64, len(p.Instrs))
	if lb := a.LowerBound(zero, zero); lb != 0 {
		t.Errorf("LowerBound(0) = %d, want 0", lb)
	}
	if ub := a.UpperBound(zero); ub != 0 {
		t.Errorf("UpperBound(0) = %d, want 0", ub)
	}
}

func TestFormat(t *testing.T) {
	a := analyze(t, loopProg(5), machine.Base())
	out := a.Format()
	if out == "" {
		t.Fatal("empty format output")
	}
	for _, want := range []string{"block", "loop", "conflict-free"} {
		if !contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
