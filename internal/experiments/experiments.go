// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.7, §4, §5) from the reproduction's own compiler,
// benchmarks, and simulator. Each experiment produces a text rendition of
// the paper's table/figure plus structured series for tests to assert the
// shape results on (see EXPERIMENTS.md for paper-vs-measured).
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/faultinject"
	"ilp/internal/ilperr"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/metrics"
	"ilp/internal/sim"
	"ilp/internal/statictime"
	"ilp/internal/store"
)

// The pipeline's structured error taxonomy, re-exported so callers inside
// and outside this package spell it the same way (see internal/ilperr).
type (
	// CompileError reports a failed (or panicked) compilation.
	CompileError = ilperr.CompileError
	// SimError reports a failed (or panicked) simulation.
	SimError = ilperr.SimError
)

// ErrPanic marks errors recovered from panicking workers.
var ErrPanic = ilperr.ErrPanic

// Config controls an experiment run.
type Config struct {
	// MaxDegree is the largest superscalar/superpipelined degree swept
	// (the paper uses 8). Smaller values make quick runs.
	MaxDegree int
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// Benchmarks restricts the suite (nil = all eight).
	Benchmarks []string

	// Retries is how many times a transiently failed compile or
	// measurement attempt is retried (inside its singleflight leader, with
	// capped exponential backoff) before the failure is published. 0
	// disables retries. Transience is decided by ilperr.IsTransient:
	// injected faults and store I/O errors retry, semantic failures,
	// panics, and cancellations do not.
	Retries int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it up to MaxBackoff. The wait is deterministically jittered
	// per (key, attempt). Zero means 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the retry delay. Zero means 250ms.
	MaxBackoff time.Duration

	// Degrade, when set, turns a permanently failed measurement cell into
	// a placeholder sim.Result flagged Degraded (NaN cycle counts) with a
	// nil error, so the sweep renders a partial row instead of dying.
	// Cancellations still propagate as errors. The runner counts degraded
	// cells in its stats and SweepReport.
	Degrade bool

	// Store, when non-nil, makes results durable: every committed cell is
	// appended to the store as part of its measurement (so a failed append
	// retries the cell and a completed cell is never lost), and records
	// already in the store preload the sim cache, resuming a previous
	// sweep without re-simulating.
	Store *store.Store

	// Faults, when non-nil, is the deterministic fault injector driving
	// the chaos tests. nil (the default) injects nothing.
	Faults *faultinject.Injector
}

func (c Config) maxDegree() int {
	if c.MaxDegree <= 0 {
		return 8
	}
	return c.MaxDegree
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) retries() int {
	if c.Retries < 0 {
		return 0
	}
	return c.Retries
}

func (c Config) baseBackoff() time.Duration {
	if c.BaseBackoff <= 0 {
		return time.Millisecond
	}
	return c.BaseBackoff
}

func (c Config) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return 250 * time.Millisecond
	}
	return c.MaxBackoff
}

func (c Config) suite() ([]benchmarks.Benchmark, error) {
	if len(c.Benchmarks) == 0 {
		return benchmarks.All(), nil
	}
	var out []benchmarks.Benchmark
	for _, name := range c.Benchmarks {
		b, err := benchmarks.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Text   string
	Series []metrics.Series
	// Degraded counts measurement cells that permanently failed and were
	// degraded to placeholder NaN rows while this experiment ran (only
	// possible with Config.Degrade; shared cells degraded by an earlier
	// experiment are counted there, not here).
	Degraded int
}

// Experiment is a registered reproduction. Run receives the context of the
// sweep that invoked it and must hand it down to every measurement so a
// cancelled caller stops in-flight simulations, not just queued ones.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, r *Runner) (*Result, error)
}

var registry []Experiment

func register(id, title string, run func(ctx context.Context, r *Runner) (*Result, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// canonicalOrder is the paper's presentation order (registration order
// depends on file-name init order, which is not it).
var canonicalOrder = []string{
	"fig2", "tab2-1",
	"fig4-1", "fig4-2", "fig4-3", "fig4-4", "fig4-5",
	"fig4-6", "fig4-7", "fig4-8",
	"tab5-1", "sec5-1",
	"abl-branch", "abl-temps", "abl-sched", "abl-memdep",
	"ext-conflicts", "ext-vliw", "ext-icache", "ext-limits", "ext-slack",
}

// Experiments lists all registered experiments in the paper's order.
func Experiments() []Experiment {
	byID := map[string]Experiment{}
	for _, e := range registry {
		byID[e.ID] = e
	}
	var out []Experiment
	for _, id := range canonicalOrder {
		if e, ok := byID[id]; ok {
			out = append(out, e)
			delete(byID, id)
		}
	}
	// Anything registered but not in the canonical list goes last, in
	// registration order.
	for _, e := range registry {
		if _, left := byID[e.ID]; left {
			out = append(out, e)
		}
	}
	return out
}

// IDs lists experiment ids.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// Runner caches compilations and simulations across experiments with three
// levels, each keyed by exactly what its work depends on:
//
//   - The front cache is keyed by (benchmark, level, unroll factor,
//     careful, register split) — everything compiler.Lower reads. It holds
//     the lowered program and the branch profile its leader recorded, so a
//     sweep over latencies and issue widths lowers and profiles each
//     program once.
//   - The compile cache is keyed by (benchmark, compiler options,
//     machine.ScheduleFingerprint) — everything the compiler can observe.
//     Machine variants that differ only in name or cache geometry (the §5
//     sweeps, ext-icache) share one compilation.
//   - The sim cache is keyed by the compile key plus machine.Fingerprint,
//     the canonical hash of the complete description including caches, so
//     two configurations can never collide unless every simulated detail
//     is identical.
//
// Every level is singleflight: the first goroutine to request a key
// becomes its leader and concurrent requesters block on the entry's ready
// channel instead of duplicating the work.
type Runner struct {
	Cfg Config

	// core is the shared half of the runner: caches, worker pool, stats,
	// and the batch scheduler. Views built with WithSweep alias the same
	// core under a different sweep shape (degree, benchmark subset), so a
	// long-running process — the ilpd daemon — serves every client from
	// one fingerprint-keyed singleflight cache regardless of how each
	// request slices the sweep.
	*core
}

// core is the state every view of a runner shares. It is embedded in
// Runner, so runner methods (and the package's tests) spell its fields
// as r.mu, r.sims, r.measureHook, … unchanged.
type core struct {
	mu       sync.Mutex
	fronts   map[string]*flight[*front]
	compiles map[string]*flight[compiled]
	sims     map[string]*flight[*sim.Result]
	stats    RunnerStats
	sem      chan struct{}

	// batchSlot (capacity one) serializes use of batch, the reusable
	// multi-cell simulation runner behind measureManyBatched. Only a sweep
	// with cache misses takes it, for its simulate phase; a sweep that finds
	// it busy waits, since each batch already runs on all Config.Workers.
	batchSlot chan struct{}
	batch     *sim.Batch

	// compileHook and measureHook, when non-nil, run inside the
	// corresponding singleflight leader just before the real work (after
	// worker-slot acquisition). Tests use them to inject delays, failures,
	// and panics into the pipeline; a non-nil returned error fails the job
	// as if the phase itself had failed.
	compileHook func(ctx context.Context, bench string, m *machine.Config) error
	measureHook func(ctx context.Context, bench string, m *machine.Config) error
}

// flight is one singleflight cache entry: ready is closed once val and err
// are set. evicted marks an entry its leader removed from the cache because
// the leader's context ended before the work did.
type flight[T any] struct {
	ready   chan struct{}
	val     T
	err     error
	evicted bool
}

func newFlight[T any]() *flight[T] { return &flight[T]{ready: make(chan struct{})} }

// front is a front-cache value: a benchmark lowered for one register split,
// and the branch profile its leader recorded (nil when the profiling
// pre-run failed; specialization is best-effort).
type front struct {
	low  *compiler.Lowered
	prof *statictime.Profile
}

// compiled is a compile-cache value: the scheduled program and its shared
// immutable predecode, built once by the compile leader and reused
// read-only by every simulation of the compile key (the sim key only adds
// cache geometry, which predecode does not depend on).
type compiled struct {
	prog *isa.Program
	code *sim.Code
}

// RunnerStats counts cache traffic and fault-tolerance events, so tooling
// (ilpbench -stats) can show how much work the three-level cache eliminated
// and how the sweep weathered failures.
type RunnerStats struct {
	Lowers          int64 // front ends lowered and profiled (once per front key)
	Compiles        int64 // compilations actually performed
	CompileHits     int64 // compile requests served from (or joined onto) the cache
	Sims            int64 // simulations actually performed
	SimHits         int64 // measure requests served from (or joined onto) the cache
	Predecodes      int64 // predecode artifacts built (once per compile key)
	PredecodeShared int64 // live simulations that reused a shared predecode
	Resumed         int64 // sim-cache cells preloaded from the result store
	Retries         int64 // transient-failure retry waits performed
	Degraded        int64 // cells whose permanent failure degraded to a placeholder
	Superblocks     int64 // superblock traces specialized across built predecodes
	CondTraces      int64 // profile-specialized traces (past likely-taken branches)
	BatchedCells    int64 // measurement cells simulated through a shared batch
	ParallelShards  int64 // worker shards used by batched measurement runs
	MispathExits    int64 // specialized-trace guard exits across batched cells
	Instructions    int64 // dynamic instructions simulated by live leader sims
}

// NewRunner builds a runner. When cfg.Store is set, every readable record
// already in the store preloads the sim cache (counted as Resumed), so
// cells committed by a previous — possibly interrupted — sweep are served
// without recompiling or re-simulating.
func NewRunner(cfg Config) *Runner {
	r := &Runner{
		Cfg: cfg,
		core: &core{
			fronts:    map[string]*flight[*front]{},
			compiles:  map[string]*flight[compiled]{},
			sims:      map[string]*flight[*sim.Result]{},
			sem:       make(chan struct{}, cfg.workers()),
			batchSlot: make(chan struct{}, 1),
		},
	}
	if cfg.Store != nil {
		for _, rec := range cfg.Store.Records() {
			res := new(sim.Result)
			if err := json.Unmarshal(rec.Payload, res); err != nil {
				continue // unreadable payload: recompute the cell
			}
			se := newFlight[*sim.Result]()
			se.val = res
			close(se.ready)
			r.sims[rec.Key] = se
			r.stats.Resumed++
		}
	}
	return r
}

// WithSweep returns a view of r whose sweep shape — the swept degree and
// the benchmark subset — is overridden while every shared half of the
// runner (the singleflight compile/sim/predecode caches, the worker pool,
// the stats counters, the store, the retry/degrade policy) stays aliased
// to r. Concurrent sweeps through different views coalesce on identical
// cells exactly as concurrent calls through one runner do. maxDegree <= 0
// keeps r's degree; a nil benchmark list keeps r's subset.
func (r *Runner) WithSweep(maxDegree int, benchmarks []string) *Runner {
	cfg := r.Cfg
	if maxDegree > 0 {
		cfg.MaxDegree = maxDegree
	}
	if benchmarks != nil {
		cfg.Benchmarks = benchmarks
	}
	return &Runner{Cfg: cfg, core: r.core}
}

// Stats returns a snapshot of the runner's cache counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) (*Result, error) {
	return r.RunCtx(context.Background(), id)
}

// experimentIDKey carries the running experiment's id down to the
// measurement pipeline, so store records carry their provenance.
type ctxKey int

const experimentIDKey ctxKey = iota

func withExperimentID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, experimentIDKey, id)
}

func experimentID(ctx context.Context) string {
	id, _ := ctx.Value(experimentIDKey).(string)
	return id
}

// RunCtx executes one experiment by id under ctx. The experiment is fault
// isolated: a panic anywhere in its run (including its own table-building
// code) is converted into an error matching ErrPanic instead of killing
// the process.
func (r *Runner) RunCtx(ctx context.Context, id string) (res *Result, err error) {
	e, err := ByID(id)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, cause(ctx)
	}
	ctx = withExperimentID(ctx, id)
	before := r.Stats().Degraded
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("experiment %s: %w", id, ilperr.PanicError(v, debug.Stack()))
		}
	}()
	res, err = e.Run(ctx, r)
	if res != nil {
		res.Degraded = int(r.Stats().Degraded - before)
	}
	return res, err
}

// SweepReport is RunAll's fault-tolerance accounting. Cells and Degraded
// are resume invariant: an interrupted sweep resumed from its store reports
// the same committed-cell and degraded-cell totals as an uninterrupted run
// of the same configuration (Live/Resumed/Retried describe how this
// process got there and do vary).
type SweepReport struct {
	Experiments     int      // experiments rendered successfully
	Failed          []string // ids of experiments that failed (non-cancellation)
	Cells           int      // measurement cells with committed results
	Degraded        int64    // cells that permanently failed and render as NaN rows
	Retried         int64    // transient-failure retry waits performed
	Live            int64    // simulations performed by this process
	Resumed         int64    // cells preloaded from the result store
	Predecodes      int64    // predecode artifacts built (once per compile key)
	PredecodeShared int64    // live simulations that reused a shared predecode
	Superblocks     int64    // superblock traces specialized across built predecodes
	CondTraces      int64    // profile-specialized traces (past likely-taken branches)
	BatchedCells    int64    // measurement cells simulated through a shared batch
	ParallelShards  int64    // worker shards used by batched measurement runs
	MispathExits    int64    // specialized-trace guard exits across batched cells
}

// Report snapshots the runner's sweep accounting.
func (r *Runner) Report() SweepReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := SweepReport{
		Degraded:        r.stats.Degraded,
		Retried:         r.stats.Retries,
		Live:            r.stats.Sims,
		Resumed:         r.stats.Resumed,
		Predecodes:      r.stats.Predecodes,
		PredecodeShared: r.stats.PredecodeShared,
		Superblocks:     r.stats.Superblocks,
		CondTraces:      r.stats.CondTraces,
		BatchedCells:    r.stats.BatchedCells,
		ParallelShards:  r.stats.ParallelShards,
		MispathExits:    r.stats.MispathExits,
	}
	for _, se := range r.sims {
		select {
		case <-se.ready:
			if se.err == nil && se.val != nil {
				rep.Cells++
			}
		default: // still in flight; not committed
		}
	}
	return rep
}

// RunAll executes every experiment in the paper's canonical order
// (Experiments()), writing each rendition to w. Cancellation stops the
// sweep at the current experiment; any other experiment failure is
// recorded in the report (and the joined error) and the sweep moves on, so
// one broken experiment cannot take down the rest. Renditions already
// written remain valid partial output.
func (r *Runner) RunAll(ctx context.Context, w io.Writer) (SweepReport, error) {
	var (
		errs     []error
		rendered int
		failed   []string
	)
	report := func() SweepReport {
		rep := r.Report()
		rep.Experiments = rendered
		rep.Failed = failed
		return rep
	}
	for _, e := range Experiments() {
		res, err := r.RunCtx(ctx, e.ID)
		if err != nil {
			err = fmt.Errorf("%s: %w", e.ID, err)
			if isCancellation(ctx, err) {
				return report(), err
			}
			failed = append(failed, e.ID)
			errs = append(errs, err)
			continue
		}
		rendered++
		fmt.Fprintf(w, "==== %s: %s ====\n\n%s\n", res.ID, res.Title, res.Text)
	}
	return report(), errors.Join(errs...)
}

// compileKey builds the compile-cache key: the benchmark, every compiler
// option, and the schedule-relevant machine fingerprint. Deliberately
// excludes machine name and cache geometry — the compiler cannot see them.
func compileKey(bench string, copts compiler.Options, m *machine.Config) string {
	return fmt.Sprintf("%s|L%d|u%d|c%v|ns%v|%s",
		bench, copts.Level, copts.Unroll, copts.Careful, copts.NoSchedule,
		m.ScheduleFingerprint())
}

// frontKey builds the front-cache key: the benchmark, the compiler options
// compiler.Lower reads, and the machine's register split. NoSchedule and
// the latencies, units and widths stay out — they act only at Schedule.
func frontKey(bench string, copts compiler.Options, m *machine.Config) string {
	return fmt.Sprintf("%s|L%d|u%d|c%v|r%d.%d.%d.%d",
		bench, copts.Level, copts.Unroll, copts.Careful,
		m.IntTemps, m.IntHomes, m.FPTemps, m.FPHomes)
}

// once resolves key in cache by running do at most once at a time. The
// first caller leads: it runs do and settles the outcome on the key's
// entry, counting a miss. Every other caller counts a hit (hits may be nil)
// and waits for the leader's outcome or for its own ctx. A panic in do is
// settled as an error matching ErrPanic, so no waiter hangs. A waiter whose
// leader's cancellation evicted the entry looks the key up again if its
// own ctx is live, leading the work itself if no one else has.
func once[T any](ctx context.Context, r *Runner, cache map[string]*flight[T], key string, hits, misses *int64, do func() (T, error)) (val T, err error) {
	r.mu.Lock()
	if f, ok := cache[key]; ok {
		if hits != nil {
			*hits++
		}
		r.mu.Unlock()
		select {
		case <-f.ready:
			if f.evicted && ctx.Err() == nil {
				return once(ctx, r, cache, key, hits, misses, do)
			}
			return f.val, f.err
		case <-ctx.Done():
			return val, cause(ctx)
		}
	}
	f := newFlight[T]()
	cache[key] = f
	*misses++
	r.mu.Unlock()

	defer func() {
		if v := recover(); v != nil {
			var zero T
			val, err = zero, ilperr.PanicError(v, debug.Stack())
		}
		settle(ctx, r, cache, key, f, val, err)
		val, err = f.val, f.err
	}()
	return do()
}

// settle publishes a leader's outcome on its entry f and wakes every
// waiter. A transient failure is published as permanent: the leader's
// retries are exhausted, and no layer above may retry a verdict the cache
// keeps serving. A failure while ctx is done evicts the entry first, so the
// key is redone by a later call instead of cached as failed.
func settle[T any](ctx context.Context, r *Runner, cache map[string]*flight[T], key string, f *flight[T], val T, err error) {
	if err != nil && ilperr.IsTransient(err) {
		err = ilperr.MarkPermanent(err)
	}
	f.val, f.err = val, err
	if err != nil && ctx.Err() != nil {
		r.mu.Lock()
		if cache[key] == f {
			delete(cache, key)
		}
		r.mu.Unlock()
		f.evicted = true
	}
	close(f.ready)
}

// cause is the error a cancelled measurement surfaces: the recorded
// cancellation cause when there is one (the sibling failure that stopped
// the sweep), the plain context error otherwise. Returning the cause by
// identity lets measureMany recognize propagated sibling failures and
// report each distinct root cause exactly once.
func cause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}

// isCancellation reports whether err is the result of ctx being cancelled
// (directly, or as the propagated cause of a sibling failure) rather than a
// genuine failure of the job itself.
func isCancellation(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	if c := context.Cause(ctx); c != nil && errors.Is(err, c) {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Measure compiles the named benchmark for machine m with the given options
// and simulates it, caching both levels of the work.
func (r *Runner) Measure(bench string, copts compiler.Options, m *machine.Config) (*sim.Result, error) {
	return r.MeasureCtx(context.Background(), bench, copts, m)
}

// MeasureCtx is Measure under a context: a done ctx aborts queued work
// (waiting for a worker slot or a singleflight entry) immediately and
// in-flight simulation within the engine's polling interval. A leader that
// fails because of cancellation does not poison the cache — its entry is
// evicted so a later call with a live context redoes the work — and any
// panic in the pipeline surfaces as a structured CompileError/SimError
// matching ErrPanic instead of crashing the process.
//
// Fault tolerance happens here and below: the leader retries transient
// attempt failures per Config.Retries (publishing an exhausted transient
// failure as permanent, so nothing upstream retries a cached verdict), and
// with Config.Degrade a genuine failure is returned to every caller as a
// Degraded placeholder result instead of an error.
func (r *Runner) MeasureCtx(ctx context.Context, bench string, copts compiler.Options, m *machine.Config) (*sim.Result, error) {
	if ctx.Err() != nil {
		return nil, cause(ctx)
	}
	fp := m.Fingerprint()
	ckey := compileKey(bench, copts, m)
	skey := ckey + "|" + fp

	r.mu.Lock()
	if se, ok := r.sims[skey]; ok {
		r.stats.SimHits++
		r.mu.Unlock()
		select {
		case <-se.ready:
			res, err := r.finish(ctx, m, se.val, se.err)
			notify(ctx, bench, m, fp, res, err, true)
			return res, err
		case <-ctx.Done():
			return nil, cause(ctx)
		}
	}
	se := newFlight[*sim.Result]()
	r.sims[skey] = se
	r.stats.Sims++
	r.mu.Unlock()

	res, err := r.measure(ctx, bench, copts, m, ckey, skey)
	r.publish(ctx, skey, se, res, err)
	res, err = r.finish(ctx, m, se.val, se.err)
	notify(ctx, bench, m, fp, res, err, false)
	return res, err
}

// finish applies the degradation policy to a cell's outcome: with
// Config.Degrade, a genuine (non-cancellation) failure becomes a
// placeholder result flagged Degraded whose cycle counts are NaN, so sweep
// tables render a partial row instead of propagating the error.
func (r *Runner) finish(ctx context.Context, m *machine.Config, res *sim.Result, err error) (*sim.Result, error) {
	if err == nil || !r.Cfg.Degrade || isCancellation(ctx, err) {
		return res, err
	}
	return &sim.Result{Machine: m.Name, Degraded: true, BaseCycles: math.NaN()}, nil
}

// measure is the sim-cache miss path: acquire a worker slot (held across
// all attempts), then run measureAttempt under the transient-failure retry
// policy. It is the singleflight leader for its sim key.
func (r *Runner) measure(ctx context.Context, bench string, copts compiler.Options, m *machine.Config, ckey, skey string) (*sim.Result, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, cause(ctx)
	}
	defer func() { <-r.sem }()

	var (
		res *sim.Result
		err error
	)
	for attempt := 0; ; attempt++ {
		res, err = r.measureAttempt(ctx, bench, copts, m, ckey, skey, attempt)
		if err == nil || !ilperr.IsTransient(err) || attempt >= r.Cfg.retries() {
			break
		}
		r.noteRetry()
		if werr := r.sleepBackoff(ctx, skey, attempt); werr != nil {
			res, err = nil, werr
			break
		}
	}
	return res, err
}

// measureAttempt is one try at a measurement cell: compile (cached),
// pass the fault-injection sites, simulate, and persist the result to the
// store. The store append is part of the attempt on purpose — if the
// append fails, the attempt fails and the retry recomputes and re-appends,
// so a cell is committed exactly when its record is durable. The attempt
// carries the panic isolation for the simulation phase (injected worker
// panics land here too, classifying permanent via ErrPanic).
func (r *Runner) measureAttempt(ctx context.Context, bench string, copts compiler.Options, m *machine.Config, ckey, skey string, attempt int) (res *sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &SimError{
				Benchmark: bench, Machine: m.Name, Fingerprint: m.Fingerprint(),
				Phase: ilperr.PhaseSimulate, Err: ilperr.PanicError(v, debug.Stack()),
			}
		}
	}()
	if ctx.Err() != nil {
		return nil, cause(ctx)
	}
	c, err := r.compile(ctx, bench, copts, m, ckey)
	if err != nil {
		return nil, err
	}
	inj := r.Cfg.Faults
	if werr := inj.Slow(ctx, skey, attempt); werr != nil {
		return nil, werr
	}
	if inj.ShouldPanic(skey, attempt) {
		panic(fmt.Sprintf("injected fault: worker panic at %s (attempt %d)", skey, attempt))
	}
	if ferr := inj.Fail(faultinject.SiteSim, skey, attempt); ferr != nil {
		return nil, r.simFailure(ctx, bench, m, ferr)
	}
	if h := r.measureHook; h != nil {
		if err := h(ctx, bench, m); err != nil {
			return nil, r.simFailure(ctx, bench, m, err)
		}
	}
	res, err = sim.RunCtx(ctx, c.prog, sim.Options{Machine: m, Code: c.code})
	if err != nil {
		return nil, r.simFailure(ctx, bench, m, err)
	}
	r.mu.Lock()
	if c.code != nil {
		r.stats.PredecodeShared++
	}
	r.stats.Instructions += res.Instructions
	r.mu.Unlock()
	if perr := r.persist(ctx, bench, m, skey, attempt, res); perr != nil {
		return nil, perr
	}
	return res, nil
}

// persist makes a committed cell durable. A store I/O failure (or an
// injected SiteStore fault) is transient — the retry policy reruns the
// whole attempt, so the store never records a cell the runner did not
// hand back, and the runner never hands back a cell the store lost.
func (r *Runner) persist(ctx context.Context, bench string, m *machine.Config, skey string, attempt int, res *sim.Result) error {
	st := r.Cfg.Store
	if ferr := r.Cfg.Faults.Fail(faultinject.SiteStore, skey, attempt); ferr != nil {
		path := "(none)"
		if st != nil {
			path = st.Path()
		}
		return &ilperr.StoreError{Path: path, Op: "append", Err: ferr}
	}
	if st == nil {
		return nil
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return ilperr.MarkPermanent(&ilperr.StoreError{Path: st.Path(), Op: "append", Err: err})
	}
	return st.Append(store.Record{
		Key: skey, Experiment: experimentID(ctx), Benchmark: bench,
		Machine: m.Name, Fingerprint: m.Fingerprint(), Payload: payload,
	})
}

// noteRetry counts one retry wait.
func (r *Runner) noteRetry() {
	r.mu.Lock()
	r.stats.Retries++
	r.mu.Unlock()
}

// sleepBackoff waits the capped-exponential, deterministically jittered
// backoff before retrying key's attempt, or returns the cancellation cause
// early.
func (r *Runner) sleepBackoff(ctx context.Context, key string, attempt int) error {
	return sleepCtx(ctx, backoffDelay(r.Cfg.baseBackoff(), r.Cfg.maxBackoff(), key, attempt))
}

// backoffDelay doubles base per attempt up to max, with equal jitter: half
// the delay is fixed, half is hash-derived from (key, attempt), so
// schedules are reproducible run-to-run yet colliding retries spread out.
func backoffDelay(base, max time.Duration, key string, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0, byte(attempt), byte(attempt >> 8)})
	frac := float64(h.Sum64()>>11) / (1 << 53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// sleepCtx sleeps d, or returns the cancellation cause if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if ctx.Err() != nil {
			return cause(ctx)
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return cause(ctx)
	}
}

// simFailure classifies a simulation-phase error: cancellation propagates
// unwrapped (preserving the cause's identity), anything else becomes a
// structured SimError.
func (r *Runner) simFailure(ctx context.Context, bench string, m *machine.Config, err error) error {
	if isCancellation(ctx, err) {
		return err
	}
	return &SimError{
		Benchmark: bench, Machine: m.Name, Fingerprint: m.Fingerprint(),
		Phase: ilperr.PhaseSimulate, Err: err,
	}
}

// compile returns the compiled program for the key, compiling at most once.
// The leader already holds a worker slot, so waiters (who hold their own
// slots) can never starve it. A machine that fails validation fails here,
// before it could lead — and fail — a compile entry or front it would share
// with valid machines: neither key covers all of a description.
func (r *Runner) compile(ctx context.Context, bench string, copts compiler.Options, m *machine.Config, ckey string) (compiled, error) {
	if err := m.Validate(); err != nil {
		return compiled{}, r.compileFailure(ctx, bench, m, err)
	}
	return once(ctx, r, r.compiles, ckey, &r.stats.CompileHits, &r.stats.Compiles, func() (compiled, error) {
		return r.doCompile(ctx, bench, copts, m, ckey)
	})
}

// doCompile is the compile-cache miss path: it runs compileAttempt under
// the same transient-failure retry policy as measure.
func (r *Runner) doCompile(ctx context.Context, bench string, copts compiler.Options, m *machine.Config, ckey string) (compiled, error) {
	var (
		c   compiled
		err error
	)
	for attempt := 0; ; attempt++ {
		c, err = r.compileAttempt(ctx, bench, copts, m, ckey, attempt)
		if err == nil || !ilperr.IsTransient(err) || attempt >= r.Cfg.retries() {
			break
		}
		r.noteRetry()
		if werr := r.sleepBackoff(ctx, ckey, attempt); werr != nil {
			c, err = compiled{}, werr
			break
		}
	}
	return c, err
}

// compileAttempt is one try at a compilation, carrying the panic isolation
// and error wrapping for the compile phase (and the SiteCompile fault
// hook). It takes the benchmark's front from the front cache, schedules it
// for m, predecodes the result and specializes it from the front's branch
// profile.
func (r *Runner) compileAttempt(ctx context.Context, bench string, copts compiler.Options, m *machine.Config, ckey string, attempt int) (c compiled, err error) {
	defer func() {
		if v := recover(); v != nil {
			c, err = compiled{}, &CompileError{
				Benchmark: bench, Machine: m.Name, Fingerprint: m.ScheduleFingerprint(),
				Phase: ilperr.PhaseCompile, Err: ilperr.PanicError(v, debug.Stack()),
			}
		}
	}()
	if ctx.Err() != nil {
		return compiled{}, cause(ctx)
	}
	b, err := benchmarks.ByName(bench)
	if err != nil {
		return compiled{}, err
	}
	if ferr := r.Cfg.Faults.Fail(faultinject.SiteCompile, ckey, attempt); ferr != nil {
		return compiled{}, r.compileFailure(ctx, bench, m, ferr)
	}
	if h := r.compileHook; h != nil {
		if err := h(ctx, bench, m); err != nil {
			return compiled{}, r.compileFailure(ctx, bench, m, err)
		}
	}
	copts.Machine = m
	// The front's leader has already scheduled and predecoded for m (to
	// profile the front); its compile reuses that work.
	var own compiled
	fr, err := once(ctx, r, r.fronts, frontKey(bench, copts, m), nil, &r.stats.Lowers, func() (*front, error) {
		fr, c, err := r.lower(ctx, b.Source, copts)
		own = c
		return fr, err
	})
	if err != nil {
		return compiled{}, r.compileFailure(ctx, bench, m, err)
	}
	if c = own; c.code == nil {
		sc, err := fr.low.Schedule(m, copts.NoSchedule)
		if err != nil {
			return compiled{}, r.compileFailure(ctx, bench, m, err)
		}
		// Predecode once per compile key: the artifact is immutable, so
		// every simulation of this program — across all cache geometries
		// and all sweep workers — shares it read-only instead of
		// re-translating.
		c.prog = sc.Prog
		if c.code, err = sim.Predecode(c.prog, m); err != nil {
			return compiled{}, r.compileFailure(ctx, bench, m, err)
		}
	}
	// Profile-guided trace specialization: traces are rebuilt to continue
	// past likely-taken conditionals behind mispath guards. Timing is
	// bit-identical whatever the profile says, so the cache keys need no
	// profile component; a profile that specializes nothing keeps the
	// plain predecode.
	cond := 0
	if fr.prof != nil {
		if spec := c.code.Specialize(fr.prof); spec.CondTraces() > 0 {
			c.code, cond = spec, spec.CondTraces()
		}
	}
	r.mu.Lock()
	r.stats.Predecodes++
	r.stats.Superblocks += int64(c.code.Superblocks())
	r.stats.CondTraces += int64(cond)
	r.mu.Unlock()
	return c, nil
}

// lower is the front-cache miss path. It lowers src for the register split
// of copts.Machine, schedules and predecodes the result for that machine,
// and records the front's branch profile with a short budgeted pre-run of
// that code; the scheduled program and its predecode are returned for the
// leader's own compile. One profile serves every machine sharing the
// front: the scheduler permutes instructions only within regions bounded
// by block leaders and control transfers, so every branch keeps its pc,
// and the counts are architectural. Profiling is best-effort — a pre-run
// that errors leaves the profile nil, and a wrong profile could cost speed,
// never timing — but a cancelled pre-run fails the front, so a truncated
// profile is never published.
func (r *Runner) lower(ctx context.Context, src string, copts compiler.Options) (*front, compiled, error) {
	low, err := compiler.Lower(src, copts)
	if err != nil {
		return nil, compiled{}, err
	}
	sc, err := low.Schedule(copts.Machine, copts.NoSchedule)
	if err != nil {
		return nil, compiled{}, err
	}
	code, err := sim.Predecode(sc.Prog, copts.Machine)
	if err != nil {
		return nil, compiled{}, err
	}
	fr := &front{low: low}
	prof, err := sim.ProfileRun(ctx, code, 0, 0)
	if err == nil {
		fr.prof = prof
	} else if isCancellation(ctx, err) {
		return nil, compiled{}, err
	}
	return fr, compiled{prog: sc.Prog, code: code}, nil
}

// compileFailure is simFailure's compile-phase twin.
func (r *Runner) compileFailure(ctx context.Context, bench string, m *machine.Config, err error) error {
	if isCancellation(ctx, err) {
		return err
	}
	return &CompileError{
		Benchmark: bench, Machine: m.Name, Fingerprint: m.ScheduleFingerprint(),
		Phase: ilperr.PhaseCompile, Err: err,
	}
}

// MeasureMany runs a set of (bench, opts, machine) jobs concurrently.
type job struct {
	bench string
	copts compiler.Options
	m     *machine.Config
}

// measureMany resolves a sweep's jobs, batched (measureManyBatched) when the
// configuration allows it. Otherwise it fans the jobs out over the worker
// pool under a shared cancellable context: the first failure cancels every
// queued and in-flight sibling (first error wins — it becomes the context's
// cause), a panicking worker is converted to a structured error instead of
// crashing the process, and every *distinct* root cause that raced in
// before the cancellation landed is reported via errors.Join.
func (r *Runner) measureMany(pctx context.Context, jobs []job) ([]*sim.Result, error) {
	if r.batchable() {
		return r.measureManyBatched(pctx, jobs)
	}
	ctx, cancel := context.WithCancelCause(pctx)
	defer cancel(context.Canceled)

	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					errs[i] = &SimError{
						Benchmark: jobs[i].bench, Machine: jobs[i].m.Name,
						Phase: ilperr.PhaseSimulate, Err: ilperr.PanicError(v, debug.Stack()),
					}
					cancel(errs[i])
				}
			}()
			results[i], errs[i] = r.MeasureCtx(ctx, jobs[i].bench, jobs[i].copts, jobs[i].m)
			if errs[i] != nil {
				cancel(errs[i]) // first failure wins; no-op for later ones
			}
		}(i)
	}
	wg.Wait()
	if err := joinDistinct(context.Cause(ctx), errs); err != nil {
		return nil, err
	}
	// A request cancelled after its last cell resolved (a deadline or an
	// instruction-budget trip landing in the final notify) must still fail
	// the sweep: the caller's context is dead, so the caller gets its
	// cause, not a table it no longer has the budget to claim.
	if pctx.Err() != nil {
		return nil, cause(pctx)
	}
	return results, nil
}

// batchable reports whether the runner's configuration allows the batched
// measurement path: nothing may hook, persist, or perturb individual
// attempts, because a batched cell runs exactly one attempt inside the
// shared scheduler. With no injector and no store, Config.Retries is dead
// configuration — ilperr.IsTransient can only be true for injected faults
// and store I/O, so the per-attempt retry loop provably never fires and a
// single attempt is equivalent. Degrade is compatible too (a result policy
// applied after the fact); everything else falls back to the per-cell
// goroutine path.
func (r *Runner) batchable() bool {
	return r.Cfg.Faults == nil && r.Cfg.Store == nil && r.measureHook == nil
}

// publish settles a leader's outcome on its sim-cache entry: exhausted-
// transient failures become permanent, cancellation-induced failures evict
// the entry instead of poisoning it, and a genuine failure under Degrade —
// which will degrade for every caller — is counted once, at the leader.
func (r *Runner) publish(ctx context.Context, skey string, se *flight[*sim.Result], res *sim.Result, err error) {
	if err != nil && ctx.Err() == nil && r.Cfg.Degrade && !isCancellation(ctx, err) {
		r.mu.Lock()
		r.stats.Degraded++
		r.mu.Unlock()
	}
	settle(ctx, r, r.sims, skey, se, res, err)
}

// batchCell is one cell of a batched sweep: its job index, cache keys and
// sim-cache entry, and — for a cell the sweep leads — its compile outcome.
type batchCell struct {
	idx            int
	ckey, skey, fp string
	se             *flight[*sim.Result]
	c              compiled
	err            error
}

// measureManyBatched is measureMany's batched fast path: the sweep claims its
// sim-cache entries up front and leads every cache-miss cell through
// runOwned, which compiles them in parallel and simulates them together on
// the runner's sim.Batch. The cache protocol is unchanged: claimed entries
// are singleflight leaders published exactly as MeasureCtx would publish
// them, so concurrent MeasureCtx callers (and later sweeps) join them without
// observing any difference, and timing is bit-identical because a batched
// cell runs alone on its engine from reset to halt.
func (r *Runner) measureManyBatched(ctx context.Context, jobs []job) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))

	// The keys are hashed before taking the lock every sweep contends on.
	cells := make([]batchCell, len(jobs))
	for i, j := range jobs {
		fp := j.m.Fingerprint()
		ckey := compileKey(j.bench, j.copts, j.m)
		cells[i] = batchCell{idx: i, ckey: ckey, skey: ckey + "|" + fp, fp: fp}
	}
	var owned, joined []batchCell
	r.mu.Lock()
	for _, c := range cells {
		if se, ok := r.sims[c.skey]; ok {
			r.stats.SimHits++
			c.se = se
			joined = append(joined, c)
			continue
		}
		c.se = newFlight[*sim.Result]()
		r.sims[c.skey] = c.se
		r.stats.Sims++
		owned = append(owned, c)
	}
	r.mu.Unlock()

	if len(owned) > 0 {
		r.runOwned(ctx, jobs, owned, results, errs)
	}

	// Cells led elsewhere (or duplicated within this sweep) join their
	// entries exactly as MeasureCtx waiters do.
	for _, c := range joined {
		j := jobs[c.idx]
		select {
		case <-c.se.ready:
			results[c.idx], errs[c.idx] = r.finish(ctx, j.m, c.se.val, c.se.err)
			notify(ctx, j.bench, j.m, c.fp, results[c.idx], errs[c.idx], true)
		case <-ctx.Done():
			results[c.idx], errs[c.idx] = nil, cause(ctx)
		}
	}
	if err := joinDistinct(context.Cause(ctx), errs); err != nil {
		return nil, err
	}
	// Same tail rule as the fan-out path: a cancellation that landed while
	// (or after) the batch ran — in particular an instruction-budget trip
	// fired by the publish loop's own notify — fails the sweep even though
	// every cell published cleanly.
	if ctx.Err() != nil {
		return nil, cause(ctx)
	}
	return results, nil
}

// runOwned leads a batched sweep's claimed cells and publishes each cell's
// outcome into results and errs. It holds one worker slot while it works —
// only a sweep with cache misses takes one, so a warm sweep never queues
// behind cold ones — and releases it before the caller waits on cells led
// elsewhere, whose leaders may need it. The cells compile on Cfg.workers()
// goroutines, each claiming the next cell through the singleflight compile
// cache, and the compiled ones then run together through the batch.
func (r *Runner) runOwned(ctx context.Context, jobs []job, owned []batchCell, results []*sim.Result, errs []error) {
	// If cancellation wins the slot race, the claimed entries must still be
	// published (and evicted) so no waiter hangs.
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		err := cause(ctx)
		for _, c := range owned {
			r.publish(ctx, c.skey, c.se, nil, err)
			errs[c.idx] = err
		}
		return
	}
	defer func() { <-r.sem }()

	fanOut(len(owned), r.Cfg.workers(), func(k int) {
		c := &owned[k]
		j := jobs[c.idx]
		c.c, c.err = r.compile(ctx, j.bench, j.copts, j.m, c.ckey)
	})
	var runs []sim.BatchRun
	var ran []batchCell
	for _, c := range owned {
		j := jobs[c.idx]
		if c.err != nil {
			r.publish(ctx, c.skey, c.se, nil, c.err)
			results[c.idx], errs[c.idx] = r.finish(ctx, j.m, nil, c.err)
			notify(ctx, j.bench, j.m, c.fp, results[c.idx], errs[c.idx], false)
			continue
		}
		runs = append(runs, sim.BatchRun{Prog: c.c.prog, Opts: sim.Options{Machine: j.m, Code: c.c.code}})
		ran = append(ran, c)
	}
	if len(runs) == 0 {
		return
	}

	bres, berrs := r.runBatch(ctx, runs)
	var shared, instrs int64
	for k, c := range ran {
		j := jobs[c.idx]
		res, err := bres[k], berrs[k]
		if err != nil {
			err = r.simFailure(ctx, j.bench, j.m, err)
		} else {
			shared++ // every batched cell runs on its shared predecode
			instrs += res.Instructions
		}
		r.publish(ctx, c.skey, c.se, res, err)
		results[c.idx], errs[c.idx] = r.finish(ctx, j.m, res, err)
		notify(ctx, j.bench, j.m, c.fp, results[c.idx], errs[c.idx], false)
	}
	r.mu.Lock()
	r.stats.PredecodeShared += shared
	r.stats.Instructions += instrs
	r.mu.Unlock()
}

// runBatch runs cells through the runner's batch once the batch slot is
// free, and counts the run. The batch spans the runner's configured worker
// count (GOMAXPROCS by default): a sweep holds one pool slot but saturates
// the cores the pool was sized for. A sweep cancelled while it waits for the
// slot fails every cell with the cancellation cause.
func (r *Runner) runBatch(ctx context.Context, runs []sim.BatchRun) ([]*sim.Result, []error) {
	select {
	case r.batchSlot <- struct{}{}:
	case <-ctx.Done():
		errs := make([]error, len(runs))
		for k := range errs {
			errs[k] = cause(ctx)
		}
		return make([]*sim.Result, len(runs)), errs
	}
	defer func() { <-r.batchSlot }()
	if r.batch == nil {
		r.batch = sim.NewBatchWorkers(r.Cfg.workers())
	}
	res, errs := r.batch.Run(ctx, runs)
	r.mu.Lock()
	r.stats.BatchedCells += int64(len(runs))
	r.stats.ParallelShards += int64(r.batch.Shards())
	r.stats.MispathExits += r.batch.Mispaths()
	r.mu.Unlock()
	return res, errs
}

// runCells runs cell(ctx, i) for every job on Cfg.workers() goroutines —
// per-cell work the measurement cache does not cover — under measureMany's
// discipline: the first failure cancels the rest (it becomes the context's
// cause), a panicking cell fails with a structured simulate-phase SimError
// naming its job, and every distinct root cause is reported.
func (r *Runner) runCells(ctx context.Context, jobs []job, cell func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(context.Canceled)
	errs := make([]error, len(jobs))
	fanOut(len(jobs), r.Cfg.workers(), func(i int) {
		defer func() {
			if v := recover(); v != nil {
				errs[i] = &SimError{
					Benchmark: jobs[i].bench, Machine: jobs[i].m.Name,
					Phase: ilperr.PhaseSimulate, Err: ilperr.PanicError(v, debug.Stack()),
				}
				cancel(errs[i])
			}
		}()
		if ctx.Err() != nil {
			errs[i] = cause(ctx)
			return
		}
		if errs[i] = cell(ctx, i); errs[i] != nil {
			cancel(errs[i]) // first failure wins; no-op for later ones
		}
	})
	return joinDistinct(context.Cause(ctx), errs)
}

// fanOut calls fn(i) for every i in [0, n) on min(workers, n) goroutines,
// each claiming the next index from a shared counter, and returns once every
// call has.
func fanOut(n, workers int, fn func(i int)) {
	w := min(workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// joinDistinct reduces a sweep's per-job errors to its distinct root
// causes: the cancellation cause first (the failure that stopped the
// sweep), then any other genuine failures in job order. Sibling errors that
// are merely the propagated cancellation — the cause itself, returned by
// identity, or a bare context error — collapse into one.
func joinDistinct(cause error, errs []error) error {
	seen := map[error]bool{}
	var distinct []error
	add := func(err error) {
		if err == nil || seen[err] {
			return
		}
		seen[err] = true
		distinct = append(distinct, err)
	}
	for _, err := range errs {
		if err == cause {
			add(cause) // report the root cause first
		}
	}
	for _, err := range errs {
		if cause != nil && (errors.Is(cause, err) || err == context.Canceled || err == context.DeadlineExceeded) {
			continue // propagation of the recorded cause, already reported
		}
		add(err)
	}
	switch len(distinct) {
	case 0:
		return nil
	case 1:
		return distinct[0]
	default:
		return errors.Join(distinct...)
	}
}

// Speedup returns base-cycle speedup of run over base.
func speedup(run, base *sim.Result) float64 {
	return base.BaseCycles / run.BaseCycles
}

// defaultOpts is the paper's standard configuration for §4.1–4.3:
// "throughout the remainder of this paper we assume that pipeline
// scheduling is performed", with normal optimization and global register
// allocation, and Linpack's official 4x unrolling.
func defaultOpts(b benchmarks.Benchmark) compiler.Options {
	return compiler.Options{Level: compiler.O4, Unroll: b.DefaultUnroll}
}

// benchLabel renders the figure label (linpack.unroll4x).
func benchLabel(b benchmarks.Benchmark) string {
	if b.DefaultUnroll > 1 {
		return fmt.Sprintf("%s.unroll%dx", b.Name, b.DefaultUnroll)
	}
	return b.Name
}

// table is a tiny fixed-width text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) {
	if t.rows == nil {
		// One allocation up front instead of the append doubling ladder;
		// the sweep tables run one row per benchmark or per degree.
		t.rows = make([][]string, 0, 16)
	}
	t.rows = append(t.rows, cells)
}

func (t *table) render() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	lineWidth := 1 // newline
	for _, w := range widths {
		lineWidth += w + 2
	}
	var b strings.Builder
	b.Grow((len(t.rows) + 2) * lineWidth)
	// Cells are padded with explicit space runs rather than per-cell
	// fmt.Fprintf("%-*s") — the boxing and verb parsing in fmt were a top
	// allocation site of the sweep render path. Every column is padded,
	// including the last, matching the previous output byte for byte.
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for k := len(c); k < widths[i]; k++ {
				b.WriteByte(' ')
			}
		}
		b.WriteString("\n")
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		for k := 0; k < w; k++ {
			b.WriteByte('-')
		}
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// fmtF formats a float compactly ("%.2f", including NaN/±Inf spellings),
// without fmt's interface boxing.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// fmtI formats an integer table cell.
func fmtI(v int) string { return strconv.Itoa(v) }

// sortedNames of a benchmark slice.
func sortedNames(bs []benchmarks.Benchmark) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	sort.Strings(out)
	return out
}
