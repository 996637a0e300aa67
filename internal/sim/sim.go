// Package sim is the instruction-level simulator of the paper's evaluation
// environment (§3): it executes a compiled program under a machine
// description, modeling in-order issue in minor cycles, operation latencies
// through a register scoreboard, functional-unit issue latencies and
// multiplicities (class conflicts), an issue-width limit, issue-group breaks
// at taken branches, and optionally instruction and data caches.
//
// Semantics and timing are computed together: instructions execute in
// program order at their issue time, so results (and the program's printed
// output) are identical on every machine configuration; only the cycle
// counts differ. Runtime memory dependencies are not timing-modeled — the
// compile-time scheduler preserves memory order where it cannot
// disambiguate, matching the paper's methodology, and program-order
// execution keeps values exact regardless.
//
// The simulator is throughput-oriented, because the paper's whole evaluation
// is "compile once per configuration, simulate billions of instructions":
// at Reset the program is predecoded against the machine description into a
// flat array of per-instruction facts (operand flags, resolved functional
// unit, base latency), and one inner loop executes every run, cache
// machines and OnIssue/OnTrace hooks included; a hooked run dispatches each
// instruction through the hooks on its own copy of that array, so runs
// without hooks pay nothing for them. Engines are reusable and pooled, so
// repeated runs recycle the memory arena instead of allocating and zeroing
// 16 MB per simulation. See Engine.
//
// On a cache-free machine, semantics reach timing only through branch
// outcomes, jr targets and faults, so a run can also be timed without
// executing it: Engine.RecordIntoCtx records a fast-path run's control path
// (Path), and Engine.WalkIntoCtx times any program that shares the path —
// every schedule of one compiler front — by walking it with the fast path's
// exact timing steps and no register, memory or micro-op semantics. A walk
// may start while the path is still being recorded and follow the
// recording.
package sim

import (
	"context"
	"sync"

	"ilp/internal/isa"
	"ilp/internal/machine"
)

// Options configures a simulation run.
type Options struct {
	// Machine is the machine description. Required.
	Machine *machine.Config
	// MemWords is the memory size in 8-byte words. Defaults to
	// DefaultMemWords.
	MemWords int
	// MaxInstructions aborts runaway programs. Defaults to
	// DefaultMaxInstructions.
	MaxInstructions int64
	// Code, if set, is a predecoded translation of the program (see
	// Predecode) to adopt instead of predecoding at Reset. It must have
	// been built from this exact program and from a machine with the same
	// schedule fingerprint as Machine (cache geometry and the machine
	// name may differ). A Code is immutable, so one artifact can back any
	// number of concurrent runs — the experiments runner predecodes once
	// per (program, schedule) pair and shares it across sweep workers.
	Code *Code
	// OnIssue, if set, is called for every retired instruction, in program
	// order, with its index in the program, its issue minor cycle and its
	// completion minor cycle; caches included. Used by ilpsim -pipeline's
	// issue timeline and by tests. A hooked run replays no traces and fuses
	// no pairs, so it reports every instruction, both halves of a pair
	// that unhooked runs fuse, control transfers and the halt included. An
	// instruction that faults may be reported before the run fails.
	OnIssue func(idx int, in *isa.Instr, issue, complete int64)
	// OnTrace, if set, receives the dynamic instruction trace, as OnIssue
	// does, with the resolved data-memory address (-1 for non-memory
	// instructions). Used by the trace-limit analysis (package trace).
	OnTrace func(idx int, in *isa.Instr, addr int64)
	// CountInstrs, if set, reports per-instruction dynamic execution and
	// taken-exit counts in Result.InstrCounts / Result.TakenExits — the
	// inputs the static timing oracle (internal/statictime,
	// verify.CheckTiming) needs to bound a run's cycle count. Every run,
	// hooked or not, folds the counts from the block entry/exit counters
	// the engine already keeps, so the run itself is unaffected.
	CountInstrs bool
}

// Defaults for Options.
const (
	DefaultMemWords        = 1 << 21 // 16 MB
	DefaultMaxInstructions = 1 << 33
)

// cancelCheckInterval is how many dynamic instructions the timing loops run
// between context polls. The poll is folded into the existing
// instruction-limit check, so a context.Background() run (Done() == nil)
// pays literally nothing and a cancellable run pays one channel select per
// interval — sub-millisecond responsiveness at the engine's Minstr/s rates.
const cancelCheckInterval = 1 << 16

// ctxErr extracts the error a cancelled run should surface: the
// cancellation cause when one was recorded (e.g. the sibling failure that
// stopped a sweep), the plain context error otherwise.
func ctxErr(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}

// enginePool recycles engines (and their memory arenas) across Run calls.
var enginePool = sync.Pool{New: func() any { return NewEngine() }}

// Run simulates the program to completion and returns the result. It is the
// thin compatibility wrapper over Engine: each call borrows a pooled engine,
// so successive runs reuse the memory arena and predecode buffers instead of
// allocating per simulation. Safe for concurrent use.
func Run(p *isa.Program, opts Options) (*Result, error) {
	return RunCtx(context.Background(), p, opts)
}

// RunCtx is Run with cancellation: the timing loop polls ctx every
// cancelCheckInterval dynamic instructions and abandons the run with the
// context's cause error once ctx is done. Safe for concurrent use.
func RunCtx(ctx context.Context, p *isa.Program, opts Options) (*Result, error) {
	e := enginePool.Get().(*Engine)
	res := new(Result)
	err := e.RunIntoCtx(ctx, p, opts, res)
	// Drop references to caller data before pooling so a cached engine
	// does not pin a shared predecode alive. The engine's own translation
	// cache (decBuf/ownProg/ownScheds) is deliberately kept: it pins the
	// last Code-less (program, machine) pair so repeat runs skip predecode
	// and trace analysis — the dominant pooled-engine pattern.
	e.cfg, e.prog, e.dec, e.scheds = nil, nil, nil, nil
	e.opts = Options{}
	enginePool.Put(e)
	if err != nil {
		return nil, err
	}
	return res, nil
}
