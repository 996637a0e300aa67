// Package trace implements the trace-driven parallelism limits of the
// studies the paper builds on: Tjaden & Flynn [15] (parallelism within the
// reach of unresolved conditional jumps) and Riseman & Foster [14] (the
// inhibition those jumps cause, versus an oracle that predicts them all).
// "Studies dating from the late 1960's and early 1970's and continuing
// today have observed average instruction-level parallelism of around 2
// for code without loop unrolling" (§4.2).
//
// Given a program's dynamic instruction trace, the analysis schedules each
// instruction at the earliest cycle its inputs allow on an idealized
// machine: infinite issue width, unit latencies, perfect register renaming
// (no WAR/WAW constraints), and exact memory disambiguation by address.
// Two limits are computed:
//
//   - Blocked: control dependence respected — no instruction may execute
//     before the preceding (taken or untaken) conditional branch resolves.
//     This is the Riseman-Foster "inhibition" model and lands near the
//     famous ~2.
//
//   - Oracle: perfect branch prediction — control dependence ignored
//     entirely, only true data dependence (register and memory RAW, and
//     memory output order) constrains the schedule. Riseman & Foster found
//     this limit to be an order of magnitude higher.
//
// Comparing these to the paper's compile-time result (a real compiler, a
// real in-order machine) locates the paper between the two classical
// extremes.
package trace

import (
	"context"
	"errors"
	"fmt"

	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/sim"
)

// Limits is the result of a trace analysis.
type Limits struct {
	// Instructions analyzed (the trace may be truncated by MaxTrace).
	Instructions int64
	// BlockedCycles is the schedule length with control dependence.
	BlockedCycles int64
	// OracleCycles is the schedule length with perfect prediction.
	OracleCycles int64
	// Truncated reports whether the trace hit MaxTrace.
	Truncated bool
}

// BlockedParallelism is instructions per cycle under control dependence.
func (l Limits) BlockedParallelism() float64 {
	if l.BlockedCycles == 0 {
		return 0
	}
	return float64(l.Instructions) / float64(l.BlockedCycles)
}

// OracleParallelism is instructions per cycle with perfect prediction.
func (l Limits) OracleParallelism() float64 {
	if l.OracleCycles == 0 {
		return 0
	}
	return float64(l.Instructions) / float64(l.OracleCycles)
}

// Options bounds the analysis.
type Options struct {
	// MaxTrace stops the analysis after this many dynamic instructions
	// (0 = DefaultMaxTrace). Memory use is O(registers + distinct
	// addresses).
	MaxTrace int64
}

// DefaultMaxTrace bounds trace length.
const DefaultMaxTrace = 2_000_000

// errTraceFull is the cause with which Analyze stops the simulation once the
// trace is full: nothing past MaxTrace is analyzed.
var errTraceFull = errors.New("trace: trace full")

// Analyze executes the program (on a base machine; timing of the host
// simulation is irrelevant) and computes the two limits from its trace.
func Analyze(p *isa.Program, opts Options) (*Limits, error) {
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

	// The hook stops the run once the trace is full. The engine notices at
	// its next context poll, so the hook ignores the instructions it still
	// reports until then.
	ctx, stop := context.WithCancelCause(context.Background())
	defer stop(nil)
	hook := func(idx int, in *isa.Instr, addr int64) {
		if l.Instructions >= maxTrace {
			if !l.Truncated {
				l.Truncated = true
				stop(errTraceFull)
			}
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

	_, err := sim.RunCtx(ctx, p, sim.Options{
		Machine: machine.Base(),
		OnTrace: hook,
	})
	if err != nil && !errors.Is(err, errTraceFull) {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return l, nil
}
