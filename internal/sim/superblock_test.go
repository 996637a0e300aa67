package sim

// Directed tests for superblock side exits: each program forces a guarded
// trace to leave through a specific door — a taken conditional mid-trace, a
// fallthrough at a stitched jump seam, a loop back-edge — and each run is
// cross-checked against the reference (seed) engine for identical cycle
// counts and dynamic class mixes. The differential suite covers these paths
// statistically; these pin each exit shape by construction.

import (
	"context"
	"testing"

	"ilp/internal/isa"
	"ilp/internal/machine"
)

// sbMachines are the trace-qualifying machines the directed tests sweep.
func sbMachines() []*machine.Config {
	return []*machine.Config{
		machine.Base(),
		machine.IdealSuperscalar(2),
		machine.IdealSuperscalar(8),
		machine.Superpipelined(4),
	}
}

// checkAgainstReference runs p on every sbMachine through the trace-replay
// engine (shared Code) and the reference engine, requiring identical timing
// and class mixes, and at least minReplays trace replays so the comparison
// is not vacuous.
func checkAgainstReference(t *testing.T, p *isa.Program, minReplays int64) {
	t.Helper()
	for _, cfg := range sbMachines() {
		code, err := Predecode(p, cfg)
		if err != nil {
			t.Fatalf("%s: predecode: %v", cfg.Name, err)
		}
		want, err := refRun(p, Options{Machine: cfg})
		if err != nil {
			t.Fatalf("%s: reference run: %v", cfg.Name, err)
		}
		e := NewEngine()
		var got Result
		if err := e.RunIntoCtx(context.Background(), p, Options{Machine: cfg, Code: code}, &got); err != nil {
			t.Fatalf("%s: replay run: %v", cfg.Name, err)
		}
		if e.replays < minReplays {
			t.Errorf("%s: only %d trace replays, want >= %d", cfg.Name, e.replays, minReplays)
		}
		if got.MinorCycles != want.MinorCycles || got.IssueGroups != want.IssueGroups ||
			got.Instructions != want.Instructions || got.Stalls != want.Stalls {
			t.Errorf("%s: timing diverged:\n got %+v\nwant %+v", cfg.Name, got, want)
		}
		if got.ClassCounts != want.ClassCounts {
			t.Errorf("%s: class counts diverged:\n got %v\nwant %v", cfg.Name, got.ClassCounts, want.ClassCounts)
		}
		if len(got.Output) != len(want.Output) {
			t.Errorf("%s: output length diverged: %d vs %d", cfg.Name, len(got.Output), len(want.Output))
		}
	}
}

// TestSuperblockSideExitTaken drives a trace out through a conditional
// branch in its middle: the inner loop's body holds an early-out branch
// that fires on a data condition partway through the iterations, so the
// same trace leaves both through the side exit (early-out taken) and past
// it (fallthrough into the rest of the body) across the run.
func TestSuperblockSideExitTaken(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 400) // countdown
	b.Li(isa.R(11), 0)   // accumulator
	b.Li(isa.R(12), 37)  // early-out threshold
	b.Label("loop")
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 3)
	b.Op(isa.OpXor, isa.R(13), isa.R(11), isa.R(10))
	b.Branch(isa.OpBlt, isa.R(10), isa.R(12), "skip") // mid-trace side exit
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 1)
	b.Op(isa.OpAnd, isa.R(13), isa.R(13), isa.R(11))
	b.Label("skip")
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Print(isa.R(11))
	b.Halt()
	checkAgainstReference(t, b.MustFinish(), 10)
}

// TestSuperblockJumpSeamFallthrough stitches a trace across an
// unconditional jump: the loop body ends in a j back to a test block whose
// branch continues the loop, so the superblock crosses the seam and the
// final iteration leaves through the fallthrough exit at the seam's far
// side.
func TestSuperblockJumpSeamFallthrough(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 300)
	b.Li(isa.R(11), 1)
	b.Jump("test")
	b.Label("body")
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), 2)
	b.Op(isa.OpXor, isa.R(12), isa.R(11), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Jump("test") // jump seam: trace stitches through to the test block
	b.Label("test")
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "body")
	b.Print(isa.R(12))
	b.Halt()
	p := b.MustFinish()

	// The body leader's trace must genuinely cross the jump seam: an exit
	// past the seam books the in-trace jump's counter bumps.
	code, err := Predecode(p, machine.Base())
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}
	stitched := false
	for _, tr := range code.scheds {
		if tr == nil {
			continue
		}
		for _, ex := range tr.exits {
			if len(ex.jumps) > 0 {
				stitched = true
			}
		}
	}
	if !stitched {
		t.Error("no trace stitched across the jump seam")
	}
	checkAgainstReference(t, p, 10)
}

// TestSuperblockLoopBackEdge is the canonical hot loop: a straight-line
// body closed by a conditional back-edge to its own leader, replayed as a
// stable trace (re-entry with no register check) until the final iteration
// falls through.
func TestSuperblockLoopBackEdge(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 5000)
	b.Li(isa.R(11), 0)
	b.Label("loop")
	b.Op(isa.OpAdd, isa.R(11), isa.R(11), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(12), isa.R(11), 7)
	b.Op(isa.OpXor, isa.R(13), isa.R(12), isa.R(11))
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Print(isa.R(13))
	b.Halt()
	checkAgainstReference(t, b.MustFinish(), 1000)
}

// TestSuperblockNestedExits mixes all three shapes: an outer loop whose
// body contains an inner stable loop, an early-out branch, and a jump seam,
// so one run exercises back-edge spins, mid-trace exits and seam
// fallthroughs against the reference engine at once.
func TestSuperblockNestedExits(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 60) // outer counter
	b.Li(isa.R(14), 0)
	b.Label("outer")
	b.Li(isa.R(11), 25) // inner counter
	b.Label("inner")
	b.Imm(isa.OpAddi, isa.R(14), isa.R(14), 1)
	b.Op(isa.OpXor, isa.R(12), isa.R(14), isa.R(11))
	b.Imm(isa.OpAddi, isa.R(11), isa.R(11), -1)
	b.Branch(isa.OpBgt, isa.R(11), isa.RZero, "inner")
	b.Branch(isa.OpBlt, isa.R(14), isa.R(10), "skip") // early-out
	b.Imm(isa.OpAddi, isa.R(14), isa.R(14), 2)
	b.Jump("next") // seam
	b.Label("skip")
	b.Imm(isa.OpAddi, isa.R(14), isa.R(14), 1)
	b.Label("next")
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "outer")
	b.Print(isa.R(14))
	b.Halt()
	checkAgainstReference(t, b.MustFinish(), 10)
}
