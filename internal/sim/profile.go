package sim

import (
	"context"
	"math"

	"ilp/internal/statictime"
)

// DefaultProfileBudget is the dynamic-instruction budget of a profiling
// pre-run: long enough that any loop branch worth specializing has executed
// well past the profile's evidence threshold, short enough (sub-millisecond
// at the engine's throughput) to disappear into the compile step it rides
// on.
const DefaultProfileBudget = 1 << 18

// ProfileRun executes an instruction-budgeted pre-run of code on the fast
// path, without caches and with code's traces, and folds the engine's block
// entry/exit counters into an execution profile for trace specialization
// (Code.Specialize, PredecodeProfiled). The run is abandoned cleanly at the
// budget — a program still mid-flight yields a truncated but valid profile;
// the open run's tail can overcount a pc by at most one, noise at the
// evidence threshold. The counts are architectural, so the profile is valid
// for every machine sharing the program, whatever their timing or caches.
// memWords sizes the run's memory (0 means DefaultMemWords); budget ≤ 0
// means DefaultProfileBudget.
func ProfileRun(ctx context.Context, code *Code, memWords int, budget int64) (*statictime.Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if budget <= 0 {
		budget = DefaultProfileBudget
	}
	e := enginePool.Get().(*Engine)
	defer func() {
		e.cfg, e.prog, e.dec, e.scheds = nil, nil, nil, nil
		e.opts = Options{}
		enginePool.Put(e)
	}()
	opts := Options{Machine: code.cfg, MemWords: memWords, Code: code}
	if err := e.Reset(code.prog, opts); err != nil {
		return nil, err
	}
	// The profile is architectural — the path, and with it the block
	// counters, is the same with or without caches — so a cache machine's
	// code drops its caches and keeps its trace replays.
	e.icache, e.dcache = nil, nil
	// runFast directly, not RunIntoCtx: the budget is a stop point, not an
	// instruction limit, so hitting it yields state back without error.
	if err := e.runFast(ctx, math.MaxInt64, budget); err != nil {
		return nil, err
	}
	n := len(e.dec) - 1 // drop the sentinel
	pr := &statictime.Profile{
		Count: make([]int64, n),
		Taken: make([]int64, n),
	}
	// The same prefix fold as fillResult's: the number of open
	// contiguous execution runs covering pc is its execution count, and
	// exit[pc] is its taken-transfer count.
	var live int64
	for i := 0; i < n; i++ {
		live += e.enter[i]
		pr.Count[i] = live
		live -= e.exit[i]
	}
	copy(pr.Taken, e.exit[:n])
	return pr, nil
}
