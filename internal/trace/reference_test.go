package trace

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/sim"
)

// refAnalyzeOn is AnalyzeOn as it was before it decoded each static
// instruction once and kept store times in pages: it decodes every dynamic
// instruction again and keeps the last store per address in maps. It is
// kept verbatim as the reference the analysis must match.
func refAnalyzeOn(ctx context.Context, e *sim.Engine, p *isa.Program, opts Options) (*Limits, error) {
	maxTrace := opts.MaxTrace
	if maxTrace <= 0 {
		maxTrace = DefaultMaxTrace
	}

	l := &Limits{}
	// Completion time of the latest writer, per register (perfect
	// renaming: a new write creates a new name, so we only track the
	// value consumers read).
	var regReady [isa.NumRegs]int64
	var regReadyOracle [isa.NumRegs]int64
	// Memory: last store completion per address (RAW for loads, output
	// order for stores).
	memB := map[int64]int64{}
	memO := map[int64]int64{}
	// Control dependence frontier (blocked model only).
	var branchDone int64
	// Output (print) order.
	var outB, outO int64

	// The run's instruction limit is the trace's length. The engine stops
	// at its first poll past the limit (or halts first), so the hook drops
	// the instructions it still reports until then.
	hook := func(idx int, in *isa.Instr, addr int64) {
		if l.Instructions >= maxTrace {
			l.Truncated = true
			return
		}
		l.Instructions++
		info := in.Op.Info()

		// Earliest start from register RAW.
		var tB, tO int64
		u1, u2 := in.Uses()
		for _, u := range []isa.Reg{u1, u2} {
			if u == isa.NoReg {
				continue
			}
			if regReady[u] > tB {
				tB = regReady[u]
			}
			if regReadyOracle[u] > tO {
				tO = regReadyOracle[u]
			}
		}
		// Memory dependence by exact address.
		if addr >= 0 {
			if info.Load {
				if v := memB[addr]; v > tB {
					tB = v
				}
				if v := memO[addr]; v > tO {
					tO = v
				}
			} else { // store: output order after previous store
				if v := memB[addr]; v > tB {
					tB = v
				}
				if v := memO[addr]; v > tO {
					tO = v
				}
			}
		}
		// Output stream stays ordered.
		if in.Op == isa.OpPrinti || in.Op == isa.OpPrintf {
			if outB > tB {
				tB = outB
			}
			if outO > tO {
				tO = outO
			}
		}
		// Control dependence (blocked model).
		if branchDone > tB {
			tB = branchDone
		}

		cB, cO := tB+1, tO+1 // unit latency
		if d := in.Def(); d != isa.NoReg && d != isa.RZero {
			regReady[d] = cB
			regReadyOracle[d] = cO
		}
		if addr >= 0 && info.Store {
			memB[addr] = cB
			memO[addr] = cO
		}
		if in.Op == isa.OpPrinti || in.Op == isa.OpPrintf {
			outB, outO = cB, cO
		}
		// Riseman-Foster inhibition: only branches whose outcome is not
		// statically known block later instructions — conditional
		// branches and indirect jumps (returns). Direct jumps and calls
		// are statically predictable.
		if info.Cond || in.Op == isa.OpJr {
			branchDone = cB
		}
		if cB > l.BlockedCycles {
			l.BlockedCycles = cB
		}
		if cO > l.OracleCycles {
			l.OracleCycles = cO
		}
	}

	sopts := sim.Options{Machine: machine.Base(), MaxInstructions: maxTrace, OnTrace: hook}
	var err error
	if e == nil {
		_, err = sim.RunCtx(ctx, p, sopts)
	} else {
		err = e.RunIntoCtx(ctx, p, sopts, new(sim.Result))
	}
	if errors.Is(err, sim.ErrInstructionLimit) {
		l.Truncated, err = true, nil
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return l, nil
}

// matchReference runs AnalyzeOn and the reference on p with opts and
// requires the same limits.
func matchReference(t *testing.T, name string, p *isa.Program, opts Options) *Limits {
	t.Helper()
	e := sim.NewEngine()
	got, err := AnalyzeOn(context.Background(), e, p, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := refAnalyzeOn(context.Background(), e, p, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if *got != *want {
		t.Errorf("%s, MaxTrace %d: %+v, reference %+v", name, opts.MaxTrace, *got, *want)
	}
	return got
}

// TestAnalyzeMatchesReference: on the eight benchmarks as compile-matrix
// analyzes them (O4, default unroll), at the default cap, a short one and
// one past most programs' ends, the limits equal the reference's.
func TestAnalyzeMatchesReference(t *testing.T) {
	caps := []int64{0, 1_000, 1_500_000}
	if testing.Short() {
		caps = []int64{1_000}
	}
	for _, b := range benchmarks.All() {
		c, err := compiler.Compile(b.Source, compiler.Options{Level: compiler.O4, Unroll: b.DefaultUnroll})
		if err != nil {
			t.Fatal(err)
		}
		for _, max := range caps {
			matchReference(t, b.Name, c.Prog, Options{MaxTrace: max})
		}
	}
}

// TestAnalyzeStoresAtPageEdges: stores and loads on both sides of a page
// boundary of the store-time table, and at the last word of memory, order
// only accesses to the same word. Each program stores r11 to a, loads b
// into r12, and moves r12: the load waits for the store (a chain of four,
// not three) only when a == b.
func TestAnalyzeStoresAtPageEdges(t *testing.T) {
	top := int64(sim.DefaultMemWords - 1)
	for _, tc := range []struct{ a, b int64 }{
		{pageWords - 1, pageWords - 1},
		{pageWords - 1, pageWords},
		{pageWords, pageWords},
		{pageWords, pageWords - 1},
		{top, top},
		{top - pageWords, top},
		{top, top - 1},
	} {
		b := isa.NewBuilder()
		b.Li(isa.R(10), tc.a)
		b.Li(isa.R(13), tc.b)
		b.Li(isa.R(11), 7)
		b.Store(isa.OpSw, isa.R(11), isa.R(10), 0)
		b.Load(isa.OpLw, isa.R(12), isa.R(13), 0)
		b.Op1(isa.OpMov, isa.R(14), isa.R(12))
		b.Halt()
		name := fmt.Sprintf("store %d, load %d", tc.a, tc.b)
		l := matchReference(t, name, b.MustFinish(), Options{})
		want := int64(3) // li; load; mov, with the store beside them
		if tc.a == tc.b {
			want = 4 // li; store; load; mov
		}
		if l.OracleCycles != want {
			t.Errorf("%s: oracle cycles %d, want %d", name, l.OracleCycles, want)
		}
	}
}
