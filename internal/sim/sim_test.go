package sim

import (
	"math/rand"
	"strings"
	"testing"

	"ilp/internal/cache"
	"ilp/internal/isa"
	"ilp/internal/machine"
)

func mustRun(t *testing.T, p *isa.Program, cfg *machine.Config) *Result {
	t.Helper()
	r, err := Run(p, Options{Machine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// threeIndependent is Figure 1-1(a): three instructions with no data
// dependencies, parallelism = 3.
func threeIndependent() *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 1)
	b.Li(isa.R(11), 2)
	b.Li(isa.R(12), 3)
	b.Halt()
	return b.MustFinish()
}

// threeDependent is Figure 1-1(b): a chain, parallelism = 1.
func threeDependent() *isa.Program {
	b := isa.NewBuilder()
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), 1)
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), 1)
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), 1)
	b.Halt()
	return b.MustFinish()
}

func TestBaseMachineOnePerCycle(t *testing.T) {
	r := mustRun(t, threeIndependent(), machine.Base())
	// li@0, li@1, li@2, halt@3 completing at 4.
	if r.MinorCycles != 4 {
		t.Errorf("minor cycles = %d, want 4", r.MinorCycles)
	}
	if r.Instructions != 4 {
		t.Errorf("instructions = %d, want 4", r.Instructions)
	}
}

func TestSuperscalarIssuesParallelInstrs(t *testing.T) {
	// Figure 1-1(a): "A superscalar machine could issue all three parallel
	// instructions in the same cycle."
	r := mustRun(t, threeIndependent(), machine.IdealSuperscalar(3))
	// lis all @0; halt @1 (width 3 exhausted); completion 2.
	if r.MinorCycles != 2 {
		t.Errorf("minor cycles = %d, want 2", r.MinorCycles)
	}
}

// chainIssueBaseCycles runs the dependent chain and returns the issue time
// of its last addi in base cycles.
func chainIssueBaseCycles(t *testing.T, cfg *machine.Config) float64 {
	t.Helper()
	var last int64
	_, err := Run(threeDependent(), Options{Machine: cfg,
		OnIssue: func(idx int, in *isa.Instr, issue, complete int64) {
			if in.Op == isa.OpAddi {
				last = issue
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	return float64(last) / float64(cfg.Degree)
}

func TestDependentChainGainsNothing(t *testing.T) {
	// Figure 1-1(b) on a wide machine is no faster than on the base.
	if b, w := chainIssueBaseCycles(t, machine.Base()), chainIssueBaseCycles(t, machine.IdealSuperscalar(8)); w != b {
		t.Errorf("chain last issue: superscalar %v base cycles, base %v", w, b)
	}
	wide := mustRun(t, threeDependent(), machine.IdealSuperscalar(8))
	if wide.Stalls.Data == 0 {
		t.Error("expected data stalls on the dependent chain")
	}
}

func TestSuperpipelineDualityOnChain(t *testing.T) {
	// §2.7: on purely sequential code, superscalar and superpipelined
	// machines of equal degree sustain the same rate in base cycles.
	ss := chainIssueBaseCycles(t, machine.IdealSuperscalar(3))
	sp := chainIssueBaseCycles(t, machine.Superpipelined(3))
	if ss != sp {
		t.Errorf("chain last issue: superscalar %v base cycles, superpipelined %v", ss, sp)
	}
}

func TestStartupTransient(t *testing.T) {
	// Figure 4-2: six independent instructions on degree-3 machines. The
	// superscalar issues the last at t1; the superpipelined at t5/3, so a
	// consumer of the last result starts later on the superpipelined
	// machine: "the superpipelined machine has a larger startup transient".
	prog := func() *isa.Program {
		b := isa.NewBuilder()
		for i := 0; i < 6; i++ {
			b.Li(isa.R(10+i), int64(i))
		}
		b.Op(isa.OpAdd, isa.R(20), isa.R(15), isa.R(14)) // consumer of last
		b.Halt()
		return b.MustFinish()
	}
	ss := mustRun(t, prog(), machine.IdealSuperscalar(3))
	sp := mustRun(t, prog(), machine.Superpipelined(3))
	if !(sp.BaseCycles > ss.BaseCycles) {
		t.Errorf("startup transient missing: superscalar %.3f, superpipelined %.3f base cycles",
			ss.BaseCycles, sp.BaseCycles)
	}
}

func TestClassConflictSerializes(t *testing.T) {
	// §2.3.2: with unduplicated functional units, two instructions of the
	// same class cannot issue together.
	cfg := machine.IdealSuperscalar(2)
	for i := range cfg.Units {
		cfg.Units[i].Multiplicity = 1 // duplicate only decode, not units
	}
	cfg.Name = "superscalar-2-conflicts"
	b := isa.NewBuilder()
	b.Op(isa.OpAdd, isa.R(10), isa.RZero, isa.RZero)
	b.Op(isa.OpAdd, isa.R(11), isa.RZero, isa.RZero)
	b.Halt()
	p := b.MustFinish()
	issuesOn := func(m *machine.Config) []int64 {
		var issues []int64
		_, err := Run(p, Options{Machine: m, OnIssue: func(idx int, in *isa.Instr, issue, complete int64) {
			if in.Op == isa.OpAdd {
				issues = append(issues, issue)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		return issues
	}
	conflict := issuesOn(cfg)
	ideal := issuesOn(machine.IdealSuperscalar(2))
	if !(ideal[0] == 0 && ideal[1] == 0) {
		t.Errorf("ideal machine should dual-issue the adds, got %v", ideal)
	}
	if !(conflict[0] == 0 && conflict[1] == 1) {
		t.Errorf("conflicting machine should serialize the adds, got %v", conflict)
	}
	r := mustRun(t, p, cfg)
	if r.Stalls.Unit == 0 {
		t.Error("expected unit stalls from class conflict")
	}
}

func TestIssueLatencyBlocksUnit(t *testing.T) {
	// §3's example: issue latency 3, multiplicity 2 — a third instruction
	// of the class waits until a unit copy is free.
	cfg := machine.Base()
	cfg.IssueWidth = 4
	for i := range cfg.Units {
		cfg.Units[i].Multiplicity = 2
		cfg.Units[i].IssueLatency = 3
	}
	b := isa.NewBuilder()
	b.Op(isa.OpAdd, isa.R(10), isa.RZero, isa.RZero)
	b.Op(isa.OpAdd, isa.R(11), isa.RZero, isa.RZero)
	b.Op(isa.OpAdd, isa.R(12), isa.RZero, isa.RZero)
	b.Halt()
	var issues []int64
	_, err := Run(b.MustFinish(), Options{
		Machine: cfg,
		OnIssue: func(idx int, in *isa.Instr, issue, complete int64) {
			if in.Op == isa.OpAdd {
				issues = append(issues, issue)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 0, 3}
	for i, w := range want {
		if issues[i] != w {
			t.Errorf("add %d issued at %d, want %d (issues %v)", i, issues[i], w, issues)
		}
	}
}

func TestIssueWidthLimit(t *testing.T) {
	// §3: an upper limit on instructions issued per cycle independent of
	// functional-unit availability.
	cfg := machine.IdealSuperscalar(8)
	cfg.IssueWidth = 2
	b := isa.NewBuilder()
	for i := 0; i < 4; i++ {
		b.Li(isa.R(10+i), int64(i))
	}
	b.Halt()
	var issues []int64
	_, err := Run(b.MustFinish(), Options{
		Machine: cfg,
		OnIssue: func(idx int, in *isa.Instr, issue, complete int64) {
			if in.Op == isa.OpLi {
				issues = append(issues, issue)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 0, 1, 1}
	for i, w := range want {
		if issues[i] != w {
			t.Errorf("li %d issued at %d, want %d", i, issues[i], w)
		}
	}
}

func TestTakenBranchEndsGroup(t *testing.T) {
	b := isa.NewBuilder()
	b.Jump("target")
	b.Li(isa.R(10), 1) // skipped
	b.Label("target")
	b.Li(isa.R(11), 2)
	b.Halt()
	p := b.MustFinish()
	var liIssue int64 = -1
	_, err := Run(p, Options{
		Machine: machine.IdealSuperscalar(8),
		OnIssue: func(idx int, in *isa.Instr, issue, complete int64) {
			if idx == 2 {
				liIssue = issue
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if liIssue != 1 {
		t.Errorf("instruction after taken branch issued at %d, want 1", liIssue)
	}
}

func TestUntakenBranchDoesNotEndGroup(t *testing.T) {
	b := isa.NewBuilder()
	b.Branch(isa.OpBne, isa.RZero, isa.RZero, "away") // never taken
	b.Li(isa.R(10), 1)
	b.Label("away")
	b.Halt()
	p := b.MustFinish()
	var liIssue int64 = -1
	_, err := Run(p, Options{
		Machine: machine.IdealSuperscalar(8),
		OnIssue: func(idx int, in *isa.Instr, issue, complete int64) {
			if idx == 1 {
				liIssue = issue
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if liIssue != 0 {
		t.Errorf("fall-through after untaken branch issued at %d, want 0 (same group)", liIssue)
	}
}

func TestBranchRedirectPenalty(t *testing.T) {
	cfg := machine.Base()
	cfg.BranchRedirect = 2
	b := isa.NewBuilder()
	b.Jump("t")
	b.Label("t")
	b.Halt()
	p := b.MustFinish()
	var haltIssue int64
	_, err := Run(p, Options{Machine: cfg, OnIssue: func(idx int, in *isa.Instr, issue, complete int64) {
		if in.Op == isa.OpHalt {
			haltIssue = issue
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if haltIssue != 3 {
		t.Errorf("halt issued at %d, want 3 (branch@0 + 1 + redirect 2)", haltIssue)
	}
}

func TestWAWOrdering(t *testing.T) {
	// A short-latency write after a long-latency write to the same
	// register may not complete early.
	cfg := machine.Base()
	cfg.IssueWidth = 4
	cfg.Latency[isa.OpMul.Class()] = 6
	b := isa.NewBuilder()
	b.Op(isa.OpMul, isa.R(10), isa.RZero, isa.RZero) // completes @6
	b.Li(isa.R(10), 7)                               // must not complete before 6
	b.Op1(isa.OpMov, isa.R(11), isa.R(10))           // reads r10
	b.Halt()
	r, err := Run(b.MustFinish(), Options{Machine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stalls.Write == 0 {
		t.Error("expected WAW write-order stall")
	}
	// Semantics: the mov must still see the later value, 7.
	b2 := isa.NewBuilder()
	b2.Op(isa.OpMul, isa.R(10), isa.RZero, isa.RZero)
	b2.Li(isa.R(10), 7)
	b2.Op1(isa.OpMov, isa.R(11), isa.R(10))
	b2.Print(isa.R(11))
	b2.Halt()
	r2, err := Run(b2.MustFinish(), Options{Machine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Output) != 1 || !r2.Output[0].Equal(isa.IntValue(7)) {
		t.Errorf("output = %v, want [7]", r2.Output)
	}
}

func factorialProgram() *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 10) // n
	b.Li(isa.R(11), 1)  // acc
	b.Label("loop")
	b.Op(isa.OpMul, isa.R(11), isa.R(11), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Print(isa.R(11))
	b.Halt()
	return b.MustFinish()
}

func TestSemanticsFactorial(t *testing.T) {
	r := mustRun(t, factorialProgram(), machine.Base())
	if len(r.Output) != 1 || !r.Output[0].Equal(isa.IntValue(3628800)) {
		t.Errorf("10! output = %v", r.Output)
	}
}

func TestSemanticsIndependentOfMachine(t *testing.T) {
	// Timing must never change results.
	configs := []*machine.Config{
		machine.Base(), machine.MultiTitan(), machine.CRAY1(),
		machine.IdealSuperscalar(8), machine.Superpipelined(4),
		machine.SuperpipelinedSuperscalar(2, 3), machine.Underpipelined(),
	}
	var ref []isa.Value
	for i, cfg := range configs {
		r := mustRun(t, factorialProgram(), cfg)
		if i == 0 {
			ref = r.Output
			continue
		}
		if len(r.Output) != len(ref) || !r.Output[0].Equal(ref[0]) {
			t.Errorf("%s: output %v differs from base %v", cfg.Name, r.Output, ref)
		}
	}
}

func TestMemoryAndStack(t *testing.T) {
	b := isa.NewBuilder()
	addr := b.Data(100, 200, 300)
	b.Li(isa.R(9), addr)
	b.Load(isa.OpLw, isa.R(10), isa.R(9), 1)      // r10 = 200
	b.Imm(isa.OpAddi, isa.RSP, isa.RSP, -1)       // push
	b.Store(isa.OpSw, isa.R(10), isa.RSP, 0)      // mem[sp] = 200
	b.Load(isa.OpLw, isa.R(11), isa.RSP, 0)       // r11 = 200
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 1000) // 1200
	b.Print(isa.R(11))
	b.Halt()
	r := mustRun(t, b.MustFinish(), machine.Base())
	if !r.Output[0].Equal(isa.IntValue(1200)) {
		t.Errorf("output = %v, want 1200", r.Output)
	}
}

func TestFloatingPoint(t *testing.T) {
	b := isa.NewBuilder()
	b.Fli(isa.F(10), 1.5)
	b.Fli(isa.F(11), 2.25)
	b.Op(isa.OpFadd, isa.F(12), isa.F(10), isa.F(11))
	b.Op(isa.OpFmul, isa.F(13), isa.F(12), isa.F(12))
	b.Op1(isa.OpFsqrt, isa.F(14), isa.F(13))
	b.PrintF(isa.F(14))
	b.Op1(isa.OpCvtfi, isa.R(10), isa.F(12))
	b.Print(isa.R(10))
	b.Halt()
	r := mustRun(t, b.MustFinish(), machine.MultiTitan())
	if !r.Output[0].Equal(isa.FloatValue(3.75)) {
		t.Errorf("sqrt((1.5+2.25)^2) = %v, want 3.75", r.Output[0])
	}
	if !r.Output[1].Equal(isa.IntValue(3)) {
		t.Errorf("trunc(3.75) = %v, want 3", r.Output[1])
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 1)
	b.Op(isa.OpDiv, isa.R(11), isa.R(10), isa.RZero)
	b.Halt()
	if _, err := Run(b.MustFinish(), Options{Machine: machine.Base()}); err == nil {
		t.Error("expected division-by-zero error")
	}
}

func TestOutOfRangeAddressTraps(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), -5)
	b.Load(isa.OpLw, isa.R(11), isa.R(10), 0)
	b.Halt()
	if _, err := Run(b.MustFinish(), Options{Machine: machine.Base()}); err == nil {
		t.Error("expected address error")
	}
}

func TestInstructionLimit(t *testing.T) {
	b := isa.NewBuilder()
	b.Label("forever")
	b.Jump("forever")
	b.Halt()
	_, err := Run(b.MustFinish(), Options{Machine: machine.Base(), MaxInstructions: 100})
	if err == nil {
		t.Error("expected instruction-limit error")
	}
}

func TestICacheMissesStallIssue(t *testing.T) {
	cfg := machine.Base()
	cfg.ICache = &cache.Config{Name: "I", Lines: 4, LineWords: 1, MissPenalty: 10}
	r := mustRun(t, threeDependent(), cfg)
	plain := mustRun(t, threeDependent(), machine.Base())
	if r.MinorCycles <= plain.MinorCycles {
		t.Errorf("icache misses free: %d vs %d", r.MinorCycles, plain.MinorCycles)
	}
	if r.ICacheStats == nil || r.ICacheStats.Misses == 0 {
		t.Error("expected icache misses")
	}
	if r.Stalls.ICache == 0 {
		t.Error("expected icache stall attribution")
	}
}

func TestDCacheMissesAddLoadLatency(t *testing.T) {
	mk := func() *isa.Program {
		b := isa.NewBuilder()
		addr := b.Data(5)
		b.Li(isa.R(9), addr)
		b.Load(isa.OpLw, isa.R(10), isa.R(9), 0)
		b.Op1(isa.OpMov, isa.R(11), isa.R(10)) // consumer waits for miss
		b.Halt()
		return b.MustFinish()
	}
	cfg := machine.Base()
	cfg.DCache = &cache.Config{Name: "D", Lines: 4, LineWords: 1, MissPenalty: 20}
	r := mustRun(t, mk(), cfg)
	plain := mustRun(t, mk(), machine.Base())
	if r.MinorCycles < plain.MinorCycles+20 {
		t.Errorf("dcache miss too cheap: %d vs %d", r.MinorCycles, plain.MinorCycles)
	}
	if r.DCacheStats == nil || r.DCacheStats.Misses == 0 {
		t.Error("expected dcache misses")
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := mustRun(t, factorialProgram(), machine.Base())
	if r.IPC() <= 0 || r.CPI() <= 0 || r.BaseCPI() <= 0 {
		t.Error("derived metrics not positive")
	}
	freqs := r.GroupFrequencies()
	var sum float64
	for _, f := range freqs {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("group frequencies sum to %v", sum)
	}
	base := mustRun(t, factorialProgram(), machine.Base())
	fast := mustRun(t, factorialProgram(), machine.IdealSuperscalar(8))
	if fast.SpeedupOver(base) < 1 {
		t.Errorf("superscalar speedup %v < 1", fast.SpeedupOver(base))
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestNoMachineError(t *testing.T) {
	if _, err := Run(threeIndependent(), Options{}); err == nil {
		t.Error("expected error without machine")
	}
}

func TestIssueGroups(t *testing.T) {
	// Three independent instructions + halt: the base machine needs four
	// issue groups, a 3-wide superscalar two (lis together, halt alone).
	base := mustRun(t, threeIndependent(), machine.Base())
	if base.IssueGroups != 4 {
		t.Errorf("base issue groups = %d, want 4", base.IssueGroups)
	}
	wide := mustRun(t, threeIndependent(), machine.IdealSuperscalar(3))
	if wide.IssueGroups != 2 {
		t.Errorf("superscalar-3 issue groups = %d, want 2", wide.IssueGroups)
	}
	// Groups can never exceed instructions, and a width-1 machine has
	// exactly one group per instruction.
	if base.IssueGroups != base.Instructions {
		t.Errorf("width-1 machine: groups %d != instructions %d", base.IssueGroups, base.Instructions)
	}
	if wide.IssueGroups > wide.Instructions {
		t.Error("groups exceed instructions")
	}
}

func TestZeroRegisterHardwired(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.RZero, 42) // write ignored
	b.Print(isa.RZero)
	b.Halt()
	r := mustRun(t, b.MustFinish(), machine.Base())
	if !r.Output[0].Equal(isa.IntValue(0)) {
		t.Errorf("r0 = %v, want 0", r.Output[0])
	}
}

func TestUnderpipelinedHalvesPerformance(t *testing.T) {
	// §2.2: both underpipelined variants deliver "half of the performance
	// attainable by the base machine". Our preset models the
	// issue-every-other-cycle variant via issue latency 2 on every unit.
	p := factorialProgram()
	base := mustRun(t, p, machine.Base())
	under := mustRun(t, p, machine.Underpipelined())
	ratio := under.BaseCycles / base.BaseCycles
	if ratio < 1.5 || ratio > 2.2 {
		t.Errorf("underpipelined/base cycle ratio = %.2f, want ~2 (§2.2)", ratio)
	}
	if !under.Output[0].Equal(base.Output[0]) {
		t.Error("underpipelining changed semantics")
	}
}

// TestCodeRejectsChangedMachine: a run compares its machine with the
// Code's own copy of the one it was predecoded for, so a machine changed in
// place after predecoding is rejected instead of run on the Code's stale
// units and latencies.
func TestCodeRejectsChangedMachine(t *testing.T) {
	p := randomCFGProgram(rand.New(rand.NewSource(1)))
	cfg := machine.SuperscalarWithConflicts(4)
	code, err := Predecode(p, cfg)
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}
	opts := Options{Machine: cfg, MemWords: fuzzMemWords, Code: code}
	if _, err := Run(p, opts); err != nil {
		t.Fatalf("run on the machine as predecoded: %v", err)
	}
	for i := range cfg.Units {
		cfg.Units[i].Multiplicity = 1
	}
	cfg.Latency[isa.ClassLoad] = 9
	if _, err := Run(p, opts); err == nil || !strings.Contains(err.Error(), "schedule differs") {
		t.Fatalf("run with a Code predecoded before its machine changed: error %v, want a schedule mismatch", err)
	}
}
