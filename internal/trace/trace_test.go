package trace

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ilp/internal/isa"
	"ilp/internal/sim"
)

func TestIndependentInstructions(t *testing.T) {
	// Ten independent li's: both limits see full parallelism (all in one
	// cycle, plus the halt).
	b := isa.NewBuilder()
	for i := 0; i < 10; i++ {
		b.Li(isa.R(10+i), int64(i))
	}
	b.Halt()
	l, err := Analyze(b.MustFinish(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.BlockedCycles != 1 || l.OracleCycles != 1 {
		t.Errorf("independent code: blocked %d, oracle %d, want 1", l.BlockedCycles, l.OracleCycles)
	}
	if p := l.BlockedParallelism(); p != 11 {
		t.Errorf("parallelism = %v, want 11", p)
	}
}

func TestSerialChain(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 1)
	for i := 0; i < 9; i++ {
		b.Imm(isa.OpAddi, isa.R(10), isa.R(10), 1)
	}
	b.Halt()
	l, err := Analyze(b.MustFinish(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.OracleCycles != 10 {
		t.Errorf("chain oracle cycles = %d, want 10", l.OracleCycles)
	}
	if p := l.OracleParallelism(); p > 1.2 {
		t.Errorf("chain parallelism = %v, want ~1", p)
	}
}

// loopProgram builds a counted loop with an independent body: the blocked
// model serializes iterations at the conditional branch; the oracle
// overlaps them completely.
func loopProgram() *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 100) // counter
	b.Label("loop")
	b.Li(isa.R(11), 1) // independent body work
	b.Li(isa.R(12), 2)
	b.Li(isa.R(13), 3)
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), -1)
	b.Branch(isa.OpBgt, isa.R(10), isa.RZero, "loop")
	b.Halt()
	return b.MustFinish()
}

func TestBranchInhibition(t *testing.T) {
	l, err := Analyze(loopProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bp, op := l.BlockedParallelism(), l.OracleParallelism()
	// The oracle overlaps iterations fully (bounded only by the counter
	// recurrence, ~5 instructions per cycle); the blocked model pays a
	// branch resolution per iteration.
	if !(op > 1.5*bp) {
		t.Errorf("oracle (%v) should far exceed blocked (%v) on branchy code — Riseman-Foster", op, bp)
	}
	// The blocked model still overlaps within an iteration.
	if bp < 1.5 {
		t.Errorf("blocked parallelism %v too low: body instructions are independent", bp)
	}
	// The oracle is limited only by the counter recurrence: ~5 instrs per
	// 1-cycle iteration step.
	if op < 3 {
		t.Errorf("oracle parallelism %v too low", op)
	}
}

func TestMemoryDependence(t *testing.T) {
	// store then load of the same address is serial; different addresses
	// are parallel. Data addresses 0 and 1.
	mk := func(sameAddr bool) *isa.Program {
		b := isa.NewBuilder()
		b.Data(0, 0)
		b.Li(isa.R(10), 7)
		b.Store(isa.OpSw, isa.R(10), isa.RZero, 0)
		off := int64(1)
		if sameAddr {
			off = 0
		}
		b.Load(isa.OpLw, isa.R(11), isa.RZero, off)
		b.Op1(isa.OpMov, isa.R(12), isa.R(11))
		b.Halt()
		return b.MustFinish()
	}
	same, err := Analyze(mk(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	diff, err := Analyze(mk(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(same.OracleCycles > diff.OracleCycles) {
		t.Errorf("same-address store->load should serialize: same %d, diff %d",
			same.OracleCycles, diff.OracleCycles)
	}
}

func TestPerfectRenaming(t *testing.T) {
	// WAW/WAR must not constrain the oracle: two independent computations
	// reusing one register.
	b := isa.NewBuilder()
	b.Li(isa.R(10), 1)
	b.Op1(isa.OpMov, isa.R(11), isa.R(10))
	b.Li(isa.R(10), 2) // reuse r10 (renamed)
	b.Op1(isa.OpMov, isa.R(12), isa.R(10))
	b.Halt()
	l, err := Analyze(b.MustFinish(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Both chains are depth 2, independent: 2 cycles total.
	if l.OracleCycles != 2 {
		t.Errorf("renamed chains should take 2 cycles, got %d", l.OracleCycles)
	}
}

// TestTruncation: a trace longer than MaxTrace is cut at MaxTrace
// instructions and marked truncated, wherever it fills: inside a loop body,
// exactly at a taken branch (where the run stops at its instruction limit
// before reporting another instruction), or in the straight-line tail after
// the last taken branch (where the run halts before its next poll).
// loopProgram runs 502 instructions, with a taken branch at every
// instruction 1+5k up to 496.
func TestTruncation(t *testing.T) {
	for _, tc := range []struct {
		maxTrace  int64
		truncated bool
	}{{50, true}, {51, true}, {500, true}, {501, true}, {502, false}} {
		l, err := Analyze(loopProgram(), Options{MaxTrace: tc.maxTrace})
		if err != nil {
			t.Fatal(err)
		}
		if l.Truncated != tc.truncated || l.Instructions != tc.maxTrace {
			t.Errorf("MaxTrace %d: %+v, want %d instructions, truncated %v", tc.maxTrace, l, tc.maxTrace, tc.truncated)
		}
	}
}

// TestTruncationStopsSimulating: the analysis stops simulating once the
// trace is full. The program runs MaxTrace + 2^17 instructions — past the
// engine's next context poll — and then divides by zero, a fault only a run
// that went on after the trace filled would reach.
func TestTruncationStopsSimulating(t *testing.T) {
	const maxTrace = 1000
	b := isa.NewBuilder()
	b.Li(isa.R(10), 0)
	b.Li(isa.R(11), (maxTrace+1<<17)/2+1)
	b.Label("loop")
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), 1)
	b.Branch(isa.OpBlt, isa.R(10), isa.R(11), "loop")
	b.Op(isa.OpDiv, isa.R(12), isa.R(10), isa.RZero)
	b.Halt()
	l, err := Analyze(b.MustFinish(), Options{MaxTrace: maxTrace})
	if err != nil {
		t.Fatalf("a full trace ran on to the fault: %v", err)
	}
	if !l.Truncated || l.Instructions != maxTrace {
		t.Errorf("truncation: %+v", l)
	}
}

// TestAnalyzeOnEngine: an analysis on a caller's engine, run twice so the
// second reuses the engine, gives Analyze's limits, and a done context
// abandons it with the context's cause.
func TestAnalyzeOnEngine(t *testing.T) {
	want, err := Analyze(loopProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	for i := range 2 {
		got, err := AnalyzeOn(context.Background(), e, loopProgram(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d on the engine: %+v, want %+v", i, got, want)
		}
	}
	cause := errors.New("stop")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := AnalyzeOn(ctx, e, loopProgram(), Options{}); !errors.Is(err, cause) {
		t.Errorf("cancelled analysis returned %v, want the cause", err)
	}
}
