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
	// (0 = DefaultMaxTrace). Memory use is O(instructions + pages of
	// memory stored to).
	MaxTrace int64
}

// DefaultMaxTrace bounds trace length.
const DefaultMaxTrace = 2_000_000

// Analyze executes the program (on a base machine; timing of the host
// simulation is irrelevant) and computes the two limits from its trace.
func Analyze(p *isa.Program, opts Options) (*Limits, error) {
	return AnalyzeOn(context.Background(), nil, p, opts)
}

// AnalyzeOn is Analyze on the engine e, reusing its memory arena, or on an
// engine from package sim's pool when e is nil. A done ctx abandons the
// run with ctx's cause.
func AnalyzeOn(ctx context.Context, e *sim.Engine, p *isa.Program, opts Options) (*Limits, error) {
	maxTrace := opts.MaxTrace
	if maxTrace <= 0 {
		maxTrace = DefaultMaxTrace
	}

	l := &Limits{}
	steps := decode(p)
	// Completion time of the latest writer, per register (perfect
	// renaming: a new write creates a new name, so we only track the
	// value consumers read).
	var regReady [isa.NumRegs]times
	// Memory: last store completion per address (RAW for loads, output
	// order for stores).
	mem := storeTimes{pages: make([]*[pageWords]times, sim.DefaultMemWords/pageWords)}
	// Control dependence frontier (blocked model only).
	var branchDone int64
	// Output (print) order.
	var out times

	// The run's instruction limit is the trace's length. The engine stops
	// at its first poll past the limit (or halts first), so the hook drops
	// the instructions it still reports until then.
	hook := func(idx int, _ *isa.Instr, addr int64) {
		if l.Instructions >= maxTrace {
			l.Truncated = true
			return
		}
		l.Instructions++
		st := &steps[idx]

		// Earliest start from register RAW.
		var t times
		for _, u := range [2]isa.Reg{st.u1, st.u2} {
			if u != isa.NoReg {
				t = t.max(regReady[u])
			}
		}
		// Memory dependence by exact address: a load after the last
		// store, a store in output order after it.
		if addr >= 0 {
			t = t.max(mem.at(addr))
		}
		// Output stream stays ordered.
		if st.print {
			t = t.max(out)
		}
		// Control dependence (blocked model).
		t.b = max(t.b, branchDone)

		c := times{t.b + 1, t.o + 1} // unit latency
		if st.def != isa.NoReg {
			regReady[st.def] = c
		}
		if addr >= 0 && st.store {
			mem.set(addr, c)
		}
		if st.print {
			out = c
		}
		if st.blocks {
			branchDone = c.b
		}
		l.BlockedCycles = max(l.BlockedCycles, c.b)
		l.OracleCycles = max(l.OracleCycles, c.o)
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

// times is a completion time in both models: blocked (control dependence
// respected) and oracle (perfect prediction).
type times struct{ b, o int64 }

func (t times) max(u times) times { return times{max(t.b, u.b), max(t.o, u.o)} }

// step is what the analysis needs of one static instruction, decoded once
// per program rather than once per dynamic instruction.
type step struct {
	u1, u2 isa.Reg // registers read, or NoReg
	def    isa.Reg // register written, or NoReg (never the zero register)
	store  bool    // writes memory at its address
	print  bool    // emits output, which stays ordered
	// blocks: only branches whose outcome is not statically known block
	// later instructions (the Riseman-Foster inhibition): conditional
	// branches and indirect jumps (returns). Direct jumps and calls are
	// statically predictable.
	blocks bool
}

func decode(p *isa.Program) []step {
	steps := make([]step, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		info := in.Op.Info()
		st := &steps[i]
		st.u1, st.u2 = in.Uses()
		st.def = in.Def()
		if st.def == isa.RZero {
			st.def = isa.NoReg
		}
		st.store = info.Store
		st.print = in.Op == isa.OpPrinti || in.Op == isa.OpPrintf
		st.blocks = info.Cond || in.Op == isa.OpJr
	}
	return steps
}

// storeTimes keeps the completion time of the last store to each memory
// word, in pages of pageWords words allocated on a store's first touch; a
// word never stored to reads as zero. Addresses are word indices below the
// run's MemWords.
type storeTimes struct {
	pages []*[pageWords]times
}

const pageWords = 1 << 12

func (m *storeTimes) at(addr int64) times {
	if pg := int(addr / pageWords); pg < len(m.pages) && m.pages[pg] != nil {
		return m.pages[pg][addr%pageWords]
	}
	return times{}
}

func (m *storeTimes) set(addr int64, t times) {
	pg := int(addr / pageWords)
	if pg >= len(m.pages) {
		m.pages = append(m.pages, make([]*[pageWords]times, pg+1-len(m.pages))...)
	}
	if m.pages[pg] == nil {
		m.pages[pg] = new([pageWords]times)
	}
	m.pages[pg][addr%pageWords] = t
}
