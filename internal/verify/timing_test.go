// Tests for the static timing oracle: the positive direction (every paper
// benchmark's simulated cycle count sits inside the static bounds on every
// preset machine) and the negative direction (falsified cycle counts and a
// hand-corrupted analysis must be flagged with the right V4xx code). Also
// home to the V108 exhaustiveness check, the one structural code no program
// can trigger through the public API.
package verify_test

import (
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/sim"
	"ilp/internal/statictime"
	"ilp/internal/verify"
)

// timingFixture compiles one benchmark, simulates it with per-instruction
// counts, and analyzes it statically.
func timingFixture(t *testing.T, cfg *machine.Config) (*statictime.Analysis, *sim.Result) {
	t.Helper()
	b, err := benchmarks.ByName("linpack")
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.Compile(b.Source, compiler.Options{
		Machine: cfg, Level: compiler.O4, Unroll: b.DefaultUnroll,
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r, err := sim.Run(c.Prog, sim.Options{Machine: cfg, CountInstrs: true})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	a, err := statictime.Analyze(c.Prog, cfg)
	if err != nil {
		t.Fatalf("statictime: %v", err)
	}
	return a, r
}

func TestTimingOracleClean(t *testing.T) {
	for _, cfg := range []*machine.Config{
		machine.Base(),
		machine.IdealSuperscalar(4),
		machine.Superpipelined(4),
		machine.SuperscalarWithConflicts(4),
		machine.MultiTitan(),
	} {
		a, r := timingFixture(t, cfg)
		ds := verify.CheckTiming(a, r.MinorCycles, r.InstrCounts, r.TakenExits, "sim")
		if len(ds) != 0 {
			t.Errorf("%s: timing oracle flagged a clean run, first: %s", cfg.Name, ds[0])
		}
	}
}

func TestTimingNegative(t *testing.T) {
	a, r := timingFixture(t, machine.Base())
	lo := a.LowerBound(r.InstrCounts, r.TakenExits)
	hi := a.UpperBound(r.InstrCounts)

	cases := []struct {
		name   string
		cycles int64
		want   verify.Code
	}{
		{"below lower bound", lo - 1, verify.CodeTimingBelowLower},
		{"impossibly fast", lo / 2, verify.CodeTimingBelowLower},
		{"above upper bound", hi + 1, verify.CodeTimingAboveUpper},
		{"runaway stall", hi * 2, verify.CodeTimingAboveUpper},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := verify.CheckTiming(a, tc.cycles, r.InstrCounts, r.TakenExits, "sim")
			if len(ds) == 0 {
				t.Fatalf("falsified cycle count %d not flagged (bounds [%d, %d])", tc.cycles, lo, hi)
			}
			if ds[0].Code != tc.want {
				t.Fatalf("code = %s, want %s: %s", ds[0].Code, tc.want, ds[0])
			}
			// The violation must carry per-block blame, not just a total.
			blamed := 0
			for _, d := range ds[1:] {
				if d.Code == tc.want && d.Index >= 0 {
					blamed++
				}
			}
			if blamed == 0 {
				t.Error("bound violation carries no per-block blame")
			}
		})
	}
}

func TestTimingInternalInconsistency(t *testing.T) {
	a, r := timingFixture(t, machine.Base())

	// Corrupt the analysis: claim an exact span below the proven lower
	// bound on the first conflict-free block.
	corrupted := false
	for bi := range a.Blocks {
		if a.Blocks[bi].ConflictFree {
			a.Blocks[bi].ExactSpan = a.Blocks[bi].Span - 1
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Skip("no conflict-free block to corrupt")
	}
	ds := verify.CheckTiming(a, r.MinorCycles, r.InstrCounts, r.TakenExits, "sim")
	found := false
	for _, d := range ds {
		if d.Code == verify.CodeTimingInternal {
			found = true
		}
	}
	if !found {
		t.Error("corrupted exact span not flagged as V403")
	}
}

// TestAllOpcodesClassified is the V108 exhaustiveness check. CodeBadClass
// guards the opcode table itself (an opcode whose Info().Class falls outside
// the fourteen classes), so no *program* can trigger it while the table is
// correct — this test pins the table instead, documenting why the negative
// suite has no V108 entry.
func TestAllOpcodesClassified(t *testing.T) {
	for op := 0; op < isa.NumOpcodes; op++ {
		if cl := isa.Opcode(op).Info().Class; int(cl) >= isa.NumClasses {
			t.Errorf("opcode %v: class %d outside the %d instruction classes",
				isa.Opcode(op), cl, isa.NumClasses)
		}
	}
}
