package sim

// White-box tests for the superblock trace replay path: the differential
// suite already proves replayed runs are bit-identical to the reference
// engine; these prove the replay actually fires (so that identity is not
// vacuous) and that trace construction covers the cases it should.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/statictime"
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
	// lis) must carry a trace whose first guard is the conditional back-edge
	// at pc 6, passed untaken: guard 0 leaves through exit 0.
	sp := code.scheds[2]
	if sp == nil {
		t.Fatal("loop body leader has no trace")
	}
	if len(sp.exits) < 2 || sp.exits[0].at != 6 || sp.guardPass&1 != 0 {
		t.Fatalf("trace exits = %+v, guards %#b: want a first guard at pc 6 passed untaken", sp.exits, sp.guardPass)
	}
	ex := &sp.exits[0]
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
		if err := e.RunIntoCtx(context.Background(), p, Options{Machine: cfg, Code: code}, &res); err != nil {
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
	if err := e.RunIntoCtx(context.Background(), p, Options{Machine: cfg, Code: code}, &res); err != nil {
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

			// The walker makes the same entry decision from the same
			// timing state.
			opts := Options{Machine: cfg, Code: code}
			path, err := recordPath(NewEngine(), p, opts, new(Result))
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			walked := new(Result)
			if err := e.WalkIntoCtx(context.Background(), p, path, opts, walked); err != nil {
				t.Fatalf("walk: %v", err)
			}
			compareResults(t, "walk", want, walked)
			if e.replays != tc.wantReplays {
				t.Errorf("walk: %d trace replays, want %d", e.replays, tc.wantReplays)
			}
		})
	}
}

// TestTraceBuilderReuse: a builder reused across programs, machines and
// profiles, as the pool reuses it, builds exactly the traces a fresh one
// does. Its seen stamps are leader pc + 1, so one left over from another
// program would cut a trace short. And each trace a builder keeps among the
// others is the trace a fresh builder builds from its leader alone, so no
// part of a trace too short to keep leaks into the next.
func TestTraceBuilderReuse(t *testing.T) {
	used := new(traceBuilder)
	for _, cfg := range []*machine.Config{machine.CRAY1(), machine.IdealSuperscalar(4)} {
		for _, b := range benchmarks.All() {
			c, err := compiler.Compile(b.Source, compiler.Options{Machine: cfg, Level: compiler.O4, Unroll: b.DefaultUnroll})
			if err != nil {
				t.Fatalf("%s: compile: %v", b.Name, err)
			}
			code, err := Predecode(c.Prog, cfg)
			if err != nil {
				t.Fatalf("%s: predecode: %v", b.Name, err)
			}
			own, err := ProfileRun(context.Background(), code, 0, 0)
			if err != nil {
				t.Fatalf("%s: profile: %v", b.Name, err)
			}
			for _, prof := range []*statictime.Profile{nil, own} {
				where := fmt.Sprintf("%s on %s (profiled %v)", b.Name, cfg.Name, prof != nil)
				want := new(traceBuilder).scheds(c.Prog, cfg, code.dec, prof)
				for pc, w := range want {
					if w == nil {
						continue
					}
					alone := new(traceBuilder)
					alone.begin(cfg, code.dec, prof)
					alone.build(pc)
					if got := alone.copyOut(); !reflect.DeepEqual(got[pc], w) {
						t.Errorf("%s: the trace at pc %d differs from the one built alone", where, pc)
					}
				}
				got := used.scheds(c.Prog, cfg, code.dec, prof)
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: a reused builder's traces differ from a fresh one's (%d traces fresh)", where, len(want))
				}
				if used.dec != nil || used.prof != nil {
					t.Errorf("%s: the builder still holds the program", where)
				}
			}
		}
	}
}

// TestBuildSchedsConcurrent: Codes predecoded from several goroutines at
// once, each drawing trace builders from the shared pool, carry exactly
// the traces of Codes predecoded one at a time.
func TestBuildSchedsConcurrent(t *testing.T) {
	cfg := machine.CRAY1()
	var progs []*isa.Program
	var want [][]*traceSched
	for _, b := range benchmarks.All() {
		c, err := compiler.Compile(b.Source, compiler.Options{Machine: cfg, Level: compiler.O4, Unroll: b.DefaultUnroll})
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		code, err := Predecode(c.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: predecode: %v", b.Name, err)
		}
		progs, want = append(progs, c.Prog), append(want, code.scheds)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range progs {
				i := (k + g) % len(progs) // each goroutine in its own order
				code, err := Predecode(progs[i], cfg)
				if err != nil {
					t.Errorf("goroutine %d, program %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(code.scheds, want[i]) {
					t.Errorf("goroutine %d, program %d: traces differ from a serial predecode", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}
