package sim

// White-box tests for the superblock trace replay path: the differential
// suite already proves replayed runs are bit-identical to the reference
// engine; these prove the replay actually fires (so that identity is not
// vacuous) and that trace construction covers the cases it should.

import (
	"slices"
	"testing"

	"ilp/internal/isa"
	"ilp/internal/machine"
)

func TestBuildSchedsTightLoop(t *testing.T) {
	p := tightLoop(600)
	cfg := machine.Base()
	code, err := Predecode(p, cfg)
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}
	if code.scheds == nil {
		t.Fatal("no trace schedules built for the tight loop on the base machine")
	}
	// The loop body leader (instruction 2: first instruction after the two
	// lis) must carry a trace whose first step is the loop body ending in
	// the conditional back-edge at pc 6.
	sp := code.scheds[2]
	if sp == nil {
		t.Fatal("loop body leader has no trace")
	}
	if len(sp.steps) == 0 || sp.steps[0].kind != stepCond || sp.steps[0].hi != 6 {
		t.Fatalf("first trace step = %+v, want cond-branch step ending at pc 6", sp.steps[0])
	}
	ex := &sp.exits[sp.steps[0].exit]
	if ex.n != 5 || ex.target != 2 || !ex.taken {
		t.Errorf("back-edge exit n/target/taken = %d/%d/%v, want 5/2/true", ex.n, ex.target, ex.taken)
	}
	// On the base machine every write in the loop body completes before the
	// taken branch's barrier, so the back-edge must be proven stable (the
	// engine may skip the re-entry register check).
	if !ex.stable {
		t.Error("loop back-edge exit not marked stable on the base machine")
	}
	// The final exit is the fallthrough continuation past the branch.
	last := &sp.exits[len(sp.exits)-1]
	if last.at != -1 || last.taken {
		t.Errorf("final exit = %+v, want untaken fallthrough", last)
	}
	if code.Superblocks() == 0 {
		t.Error("Superblocks() = 0 with traces attached")
	}
}

func TestReplayFires(t *testing.T) {
	p := tightLoop(600)
	for _, cfg := range []*machine.Config{
		machine.Base(),
		machine.IdealSuperscalar(4),
		machine.Superpipelined(4),
	} {
		code, err := Predecode(p, cfg)
		if err != nil {
			t.Fatalf("%s: predecode: %v", cfg.Name, err)
		}
		plain, err := Run(p, Options{Machine: cfg})
		if err != nil {
			t.Fatalf("%s: plain run: %v", cfg.Name, err)
		}

		e := NewEngine()
		var res Result
		if err := e.RunInto(p, Options{Machine: cfg, Code: code}, &res); err != nil {
			t.Fatalf("%s: replay run: %v", cfg.Name, err)
		}
		if e.replays == 0 {
			t.Errorf("%s: replay never fired on the tight loop", cfg.Name)
		}
		if res.MinorCycles != plain.MinorCycles || res.Stalls != plain.Stalls ||
			res.IssueGroups != plain.IssueGroups || res.Instructions != plain.Instructions {
			t.Errorf("%s: replayed result diverged: %+v vs %+v", cfg.Name, res, plain)
		}
	}
}

// TestReplaySkippedWhenDirty pins the precondition: when a register the
// trace touches is still in flight past the barrier, the replay must not
// fire for that entry (the per-instruction path handles it), and the result
// must still match. On CRAY-1 a 7-cycle multiply written just before the
// loop branch and read at the loop top is still in flight at every taken
// re-entry, so the trace exists but can never fire.
func TestReplaySkippedWhenDirty(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 50)
	b.Li(isa.R(13), 1)
	b.Label("loop")
	b.Imm(isa.OpAddi, isa.R(12), isa.R(13), 1)
	b.Op(isa.OpXor, isa.R(14), isa.R(12), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Op(isa.OpMul, isa.R(13), isa.R(12), isa.R(12))
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Print(isa.R(13))
	b.Halt()
	p := b.MustFinish()

	cfg := machine.CRAY1()
	code, err := Predecode(p, cfg)
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}
	if code.scheds == nil || code.scheds[2] == nil {
		t.Fatal("loop body should carry a trace (CRAY-1 units are conflict-free)")
	}
	plain, err := Run(p, Options{Machine: cfg})
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	e := NewEngine()
	var res Result
	if err := e.RunInto(p, Options{Machine: cfg, Code: code}, &res); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if e.replays != 0 {
		t.Errorf("replay fired %d times despite the in-flight multiply", e.replays)
	}
	if res.MinorCycles != plain.MinorCycles || res.Stalls != plain.Stalls {
		t.Errorf("result diverged: %+v vs %+v", res, plain)
	}
}

func TestNoSchedsOnConflictedMachine(t *testing.T) {
	p := tightLoop(600)
	code, err := Predecode(p, machine.SuperscalarWithConflicts(4))
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}
	if code.scheds != nil {
		for i, sp := range code.scheds {
			if sp != nil {
				t.Errorf("unexpected trace at pc %d on a conflicted machine", i)
			}
		}
	}
	if code.Superblocks() != 0 {
		t.Errorf("Superblocks() = %d on a conflicted machine", code.Superblocks())
	}
}

// entryProgram is the fixture of the trace-entry tests: a 7-cycle CRAY-1
// multiply into r20 issues just before a jump, so r20 is still in flight
// past the jump's barrier when the engine reaches the trace at the jump
// target (lastComplete > barrier), and the entry must scan the trace's
// registers. With readsR20 the trace's first instruction reads r20;
// otherwise the trace never touches it.
func entryProgram(readsR20 bool) *isa.Program {
	src := isa.R(21)
	if readsR20 {
		src = isa.R(20)
	}
	b := isa.NewBuilder()
	b.Li(isa.R(21), 5)
	b.Op(isa.OpMul, isa.R(20), isa.R(21), isa.R(21))
	b.Jump("trace")
	b.Label("trace")
	b.Imm(isa.OpAddi, isa.R(11), src, 1)
	b.Imm(isa.OpAddi, isa.R(12), isa.R(11), 1)
	b.Op(isa.OpXor, isa.R(13), isa.R(12), isa.R(11))
	b.Print(isa.R(13))
	b.Halt()
	return b.MustFinish()
}

// TestTraceEntryScan pins both outcomes of the trace-entry register scan
// when it runs: a trace reading a register still in flight past the
// barrier is rejected (no replay is counted, and the per-instruction path
// charges the wait), and a trace that never touches the in-flight register
// is accepted. Both must match the reference engine. A mutation that skips
// the scan fails the first case: the replay would issue the read at the
// barrier, before the multiply completes.
func TestTraceEntryScan(t *testing.T) {
	const leader = 3 // the jump target
	cfg := machine.CRAY1()
	for _, tc := range []struct {
		name        string
		readsR20    bool
		wantReplays int64
	}{
		{"in-flight-source-rejects", true, 0},
		{"in-flight-bystander-accepts", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := entryProgram(tc.readsR20)
			code, err := Predecode(p, cfg)
			if err != nil {
				t.Fatalf("predecode: %v", err)
			}
			tr := code.scheds[leader]
			if tr == nil {
				t.Fatal("no trace at the jump target")
			}
			if got := slices.Contains(tr.checkRegs, isa.R(20)); got != tc.readsR20 {
				t.Fatalf("r20 in checkRegs = %v, want %v", got, tc.readsR20)
			}

			// Precondition: the multiply completes after the jump's
			// barrier, so the entry cannot skip its scan.
			var mulDone, jumpIssue int64
			hook := func(_ int, in *isa.Instr, issue, complete int64) {
				switch in.Op {
				case isa.OpMul:
					mulDone = complete
				case isa.OpJ:
					jumpIssue = issue
				}
			}
			if _, err := Run(p, Options{Machine: cfg, OnIssue: hook}); err != nil {
				t.Fatalf("hooked run: %v", err)
			}
			barrier := jumpIssue + int64(cfg.LatencyOf(isa.OpJ)+cfg.BranchRedirect)
			if mulDone <= barrier {
				t.Fatalf("multiply completes at %d, not past the barrier %d", mulDone, barrier)
			}

			want, err := refRun(p, Options{Machine: cfg})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			e := NewEngine()
			got := runChecked(t, e, "fast", p, Options{Machine: cfg, Code: code})
			compareResults(t, "fast", want, got)
			if e.replays != tc.wantReplays {
				t.Errorf("%d trace replays, want %d", e.replays, tc.wantReplays)
			}
		})
	}
}
