package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"ilp/internal/isa"
)

// BatchRun is one simulation cell of a Batch: a program and its run options
// (typically one machine × benchmark pair of a sweep, with Opts.Code set to
// the shared predecode).
type BatchRun struct {
	Prog *isa.Program
	Opts Options
}

// Batch runs N independent simulation cells on a fixed set of reusable
// engines: min(workers, N) goroutines, each owning one engine of the slab,
// claim the next unstarted cell from a shared counter and run it to
// completion with RunIntoCtx before claiming another. Claiming dynamically
// balances the load — a long cell occupies one worker while the others drain
// the rest — and the slab holds one engine (and one memory arena) per
// worker, not per cell.
//
// Timing is bit-identical to running each cell alone, whatever the worker
// count: a cell runs start to finish on one engine that Reset re-arms
// completely, cells share nothing but immutable predecoded Code, and every
// cell writes only its own elements of the results/errors slices — so
// result order is the input order by construction. Per-cell errors stay in
// their cell; a done ctx fails every cell not yet finished with the
// context's cause.
//
// A Batch is not safe for concurrent use; use one per caller at a time.
// Engines (and their memory arenas) are reused across Run calls.
type Batch struct {
	engines []Engine
	// workers caps the goroutines Run spawns; 0 means GOMAXPROCS.
	workers int
	// Diagnostics of the last Run (see Shards, Mispaths, Replays).
	shards   int
	mispaths int64
	replays  int64
}

// NewBatch returns an empty batch running across GOMAXPROCS workers; the
// engine slab grows on first Run.
func NewBatch() *Batch { return &Batch{} }

// NewBatchWorkers returns an empty batch running across at most workers
// goroutines per Run; workers ≤ 0 means GOMAXPROCS at Run time. The worker
// count never changes results — only how many cells run concurrently.
func NewBatchWorkers(workers int) *Batch { return &Batch{workers: workers} }

// Shards returns the number of workers the last Run used.
func (b *Batch) Shards() int { return b.shards }

// Mispaths returns the specialized-trace guard exits taken across the last
// Run's completed cells (see Engine.mispaths).
func (b *Batch) Mispaths() int64 { return b.mispaths }

// Replays returns the superblock trace replays across the last Run's
// completed cells.
func (b *Batch) Replays() int64 { return b.replays }

// Run simulates every cell to completion and returns per-cell results and
// errors (res[i] is nil exactly when errs[i] is non-nil).
func (b *Batch) Run(ctx context.Context, runs []BatchRun) ([]*Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(runs)
	results := make([]*Result, n)
	errs := make([]error, n)

	w := b.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = min(w, n)
	// Grown before any worker starts, so no worker can move the slab.
	for len(b.engines) < w {
		b.engines = append(b.engines, Engine{})
	}
	b.shards = w

	var next, mispaths, replays atomic.Int64
	work := func(e *Engine) {
		var mis, rep int64
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			res := new(Result)
			if err := e.RunIntoCtx(ctx, runs[i].Prog, runs[i].Opts, res); err != nil {
				errs[i] = err
				continue
			}
			results[i] = res
			mis += e.mispaths
			rep += e.replays
		}
		mispaths.Add(mis)
		replays.Add(rep)
	}
	if w == 1 {
		work(&b.engines[0])
	} else {
		var wg sync.WaitGroup
		for s := 0; s < w; s++ {
			wg.Add(1)
			go func(e *Engine) {
				defer wg.Done()
				work(e)
			}(&b.engines[s])
		}
		wg.Wait()
	}
	b.mispaths, b.replays = mispaths.Load(), replays.Load()
	return results, errs
}
