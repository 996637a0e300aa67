package sim

import (
	"context"
	"errors"

	"ilp/internal/statictime"
)

// DefaultProfileBudget is the dynamic-instruction budget of a profiling
// pre-run: long enough that any loop branch worth specializing has executed
// well past the profile's evidence threshold, short enough (sub-millisecond
// at the engine's throughput) to disappear into the compile step it rides
// on.
const DefaultProfileBudget = 1 << 18

// ProfileRun is Engine.Profile on an engine borrowed from the package's
// pool. Safe for concurrent use.
func ProfileRun(ctx context.Context, code *Code, memWords int, budget int64) (*statictime.Profile, error) {
	e := enginePool.Get().(*Engine)
	defer putEngine(e)
	return e.Profile(ctx, code, memWords, budget)
}

// Profile executes an instruction-budgeted pre-run of code on the fast
// path, without caches and with code's traces, and folds the engine's block
// entry/exit counters into an execution profile for trace specialization
// (Code.Specialize, PredecodeProfiled). The run is abandoned cleanly at the
// budget — a program still mid-flight yields a truncated but valid profile;
// the open run's tail can overcount a pc by at most one, noise at the
// evidence threshold. The counts are architectural, so the profile is valid
// for every machine sharing the program, whatever their timing or caches.
// memWords sizes the run's memory (0 means DefaultMemWords); budget ≤ 0
// means DefaultProfileBudget. Like any run, it re-arms the engine, reusing
// its memory arena.
func (e *Engine) Profile(ctx context.Context, code *Code, memWords int, budget int64) (*statictime.Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if budget <= 0 {
		budget = DefaultProfileBudget
	}
	opts := Options{Machine: code.cfg, MemWords: memWords, Code: code}
	if err := e.Reset(code.prog, opts); err != nil {
		return nil, err
	}
	// The profile is architectural — the path, and with it the block
	// counters, is the same with or without caches — so a cache machine's
	// code drops its caches and keeps its trace replays.
	e.icache, e.dcache = nil, nil
	// runFast directly, not RunIntoCtx, with the budget as the run's
	// instruction limit: reaching it ends the pre-run normally, and the
	// block counters hold what it executed.
	if err := e.runFast(ctx, budget); err != nil && !errors.Is(err, ErrInstructionLimit) {
		return nil, err
	}
	count, taken := e.counts()
	return &statictime.Profile{Count: count, Taken: taken}, nil
}
