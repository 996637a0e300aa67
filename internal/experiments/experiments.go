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
	// Workers bounds live cells across every sweep of the runner; 0 means
	// GOMAXPROCS.
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

// IDs lists experiment ids in the paper's order, the order Experiments
// returns them.
func IDs() []string {
	all := Experiments()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
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

// Runner caches compilations and simulations across experiments with four
// levels, each keyed by exactly what its work depends on:
//
//   - The front cache is keyed by (benchmark, level, unroll factor,
//     careful, register split) — everything compiler.Lower reads. It holds
//     the lowered program and the branch profile its leader recorded, so a
//     sweep over latencies and issue widths lowers and profiles each
//     program once.
//   - The path cache has the same key. It holds the front's control path
//     (sim.Path), recorded by the front's first cache-free simulation while
//     it runs; every later cache-free simulation of the front walks that
//     path instead of executing the program, following the recording while
//     it is still open (see simulate).
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

	// core is the shared half of the runner: caches, worker slots and
	// stats. Views built with WithSweep alias the same core under a
	// different sweep shape (degree, benchmark subset), so a long-running
	// process — the ilpd daemon — serves every client from one
	// fingerprint-keyed singleflight cache and one pool of worker slots,
	// regardless of how each request slices the sweep.
	*core
}

// core is the state every view of a runner shares. It is embedded in
// Runner, so runner methods (and the package's tests) spell its fields
// as r.mu, r.sims, r.measureHook, … unchanged.
type core struct {
	mu       sync.Mutex
	fronts   map[string]*flight[*front]
	paths    map[string]*sim.Path
	compiles map[string]*flight[compiled]
	sims     map[string]*flight[*sim.Result]
	stats    RunnerStats
	// pathJoins counts simulations that found their front's path entry
	// already led (tests wait on it to know a walker follows the entry).
	pathJoins int64

	// slots holds Config.Workers engines, one per worker slot. A led cell
	// takes one from compile to persist and simulates on it, so every sweep
	// of the runner shares one bound of live cells and each engine's memory
	// arena is reused cell after cell.
	slots chan *sim.Engine

	// compileHook and measureHook, when non-nil, run inside the
	// corresponding singleflight leader just before the real work (after
	// worker-slot acquisition). Tests use them to inject delays, failures,
	// and panics into the pipeline; a non-nil returned error fails the job
	// as if the phase itself had failed.
	compileHook func(ctx context.Context, bench string, m *machine.Config) error
	measureHook func(ctx context.Context, bench string, m *machine.Config) error
	// simHook, when non-nil, runs before each attempt of a cache-free
	// simulation to record or walk its front's path, with recording set
	// when the attempt leads the path. Tests use it to bound a run
	// (opts.MaxInstructions) or to stall or fail a recording; a non-nil
	// returned error fails the simulation.
	simHook func(ctx context.Context, bench string, m *machine.Config, recording bool, opts *sim.Options) error
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
// (ilpbench -stats) can show how much work the four-level cache eliminated
// and how the sweep weathered failures.
type RunnerStats struct {
	Lowers         int64 // front ends lowered and profiled (once per front key)
	Paths          int64 // front control paths recorded (once per front key with a cache-free cell)
	Walks          int64 // cache-free simulations timed by walking their front's path
	Compiles       int64 // compilations actually performed
	CompileHits    int64 // compile requests served from (or joined onto) the cache
	Sims           int64 // simulations actually performed
	SimHits        int64 // measure requests served from (or joined onto) the cache
	Predecodes     int64 // predecode artifacts built (once per compile key)
	Resumed        int64 // sim-cache cells preloaded from the result store
	Retries        int64 // transient-failure retry waits performed
	Degraded       int64 // cells whose permanent failure degraded to a placeholder
	Superblocks    int64 // superblock traces specialized across built predecodes
	CondTraces     int64 // profile-specialized traces (past likely-taken branches)
	BatchedCells   int64 // live simulations run on a worker slot's reusable engine
	ParallelShards int64 // worker goroutines started by sweeps leading cells
	MispathExits   int64 // specialized-trace guard exits across live simulations
	Instructions   int64 // dynamic instructions simulated by live leader sims
}

// NewRunner builds a runner. When cfg.Store is set, every readable record
// already in the store preloads the sim cache (counted as Resumed), so
// cells committed by a previous — possibly interrupted — sweep are served
// without recompiling or re-simulating.
func NewRunner(cfg Config) *Runner {
	r := &Runner{
		Cfg: cfg,
		core: &core{
			fronts:   map[string]*flight[*front]{},
			paths:    map[string]*sim.Path{},
			compiles: map[string]*flight[compiled]{},
			sims:     map[string]*flight[*sim.Result]{},
			slots:    make(chan *sim.Engine, cfg.workers()),
		},
	}
	for range cfg.workers() {
		r.slots <- sim.NewEngine()
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

// SweepReport is RunAll's fault-tolerance accounting: the runner's
// counters plus what the sweep rendered. Cells and Degraded are resume
// invariant: an interrupted sweep resumed from its store reports the same
// committed-cell and degraded-cell totals as an uninterrupted run of the
// same configuration (Sims/Resumed/Retries describe how this process got
// there and do vary).
type SweepReport struct {
	RunnerStats
	Experiments int      // experiments rendered successfully
	Failed      []string // ids of experiments that failed (non-cancellation)
	Cells       int      // measurement cells with committed results
}

// Report snapshots the runner's sweep accounting.
func (r *Runner) Report() SweepReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := SweepReport{RunnerStats: r.stats}
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

// MeasureCtx is Measure under a context, a one-job measureMany: a done ctx
// aborts queued work (waiting for a worker slot or a singleflight entry)
// immediately and in-flight simulation within the engine's polling
// interval. A leader that fails because of cancellation does not poison the
// cache — its entry is evicted so a later call with a live context redoes
// the work — and any panic in the pipeline surfaces as a structured
// CompileError/SimError matching ErrPanic instead of crashing the process.
//
// Fault tolerance happens below: the leader retries transient attempt
// failures per Config.Retries (publishing an exhausted transient failure as
// permanent, so nothing upstream retries a cached verdict), and with
// Config.Degrade a genuine failure is returned to every caller as a
// Degraded placeholder result instead of an error.
func (r *Runner) MeasureCtx(ctx context.Context, bench string, copts compiler.Options, m *machine.Config) (*sim.Result, error) {
	res, err := r.measureMany(ctx, []job{{bench, copts, m}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
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

// measure is the sim-cache miss path, run by the singleflight leader for
// its sim key on the engine e of the worker slot it holds across all
// attempts: measureAttempt under the transient-failure retry policy.
func (r *Runner) measure(ctx context.Context, e *sim.Engine, bench string, copts compiler.Options, m *machine.Config, ckey, skey string) (*sim.Result, error) {
	var (
		res *sim.Result
		err error
	)
	for attempt := 0; ; attempt++ {
		res, err = r.measureAttempt(ctx, e, bench, copts, m, ckey, skey, attempt)
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
// pass the fault-injection sites, simulate on e, and persist the result to
// the store. The store append is part of the attempt on purpose — if the
// append fails, the attempt fails and the retry recomputes and re-appends,
// so a cell is committed exactly when its record is durable. The attempt
// carries the panic isolation for the simulation phase (injected worker
// panics land here too, classifying permanent via ErrPanic).
func (r *Runner) measureAttempt(ctx context.Context, e *sim.Engine, bench string, copts compiler.Options, m *machine.Config, ckey, skey string, attempt int) (res *sim.Result, err error) {
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
	res = new(sim.Result)
	if err := r.simulate(ctx, e, bench, copts, c, sim.Options{Machine: m, Code: c.code}, res); err != nil {
		return nil, r.simFailure(ctx, bench, m, err)
	}
	r.mu.Lock()
	r.stats.Instructions += res.Instructions
	r.stats.BatchedCells++
	r.stats.MispathExits += e.Mispaths()
	r.mu.Unlock()
	if perr := r.persist(ctx, bench, m, skey, attempt, res); perr != nil {
		return nil, perr
	}
	return res, nil
}

// simulate runs one simulation of the compiled program c on e into res.
// A cache machine always executes it. A cache-free simulation resolves its
// front's path entry: the first one of the front leads, recording the path
// while it simulates; every later one walks the path, which gives the
// bit-identical result without executing the program (DESIGN.md §4, "Record
// once, walk the rest"). A walk that starts while the recording runs
// follows it, so a front's cells never wait for its whole recording. If the
// recording failed for a real reason, a later simulation executes the
// program, so it returns its own exact error; a cancelled recording is
// evicted and led again.
func (r *Runner) simulate(ctx context.Context, e *sim.Engine, bench string, copts compiler.Options, c compiled, opts sim.Options, res *sim.Result) error {
	m := opts.Machine
	if m.ICache != nil || m.DCache != nil {
		return e.RunIntoCtx(ctx, c.prog, opts, res)
	}
	key := frontKey(bench, copts, m)
	for {
		path, lead := r.pathEntry(key, c.prog)
		if h := r.simHook; h != nil {
			if err := h(ctx, bench, m, lead, &opts); err != nil {
				if lead {
					r.closePath(ctx, key, path, err)
				}
				return err
			}
		}
		if lead {
			return r.record(ctx, e, key, path, c.prog, opts, res)
		}
		err := e.WalkIntoCtx(ctx, c.prog, path, opts, res)
		if err == nil {
			r.mu.Lock()
			r.stats.Walks++
			r.mu.Unlock()
			return nil
		}
		if !errors.Is(err, sim.ErrRecordingFailed) {
			return err
		}
		r.mu.Lock()
		evicted := r.paths[key] != path
		r.mu.Unlock()
		if !evicted {
			return e.RunIntoCtx(ctx, c.prog, opts, res)
		}
	}
}

// pathEntry returns the front's path entry, creating it for the caller to
// lead when there is none.
func (r *Runner) pathEntry(key string, prog *isa.Program) (path *sim.Path, lead bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if path := r.paths[key]; path != nil {
		r.pathJoins++
		return path, false
	}
	path = sim.NewPath(prog)
	r.paths[key] = path
	r.stats.Paths++
	return path, true
}

// record simulates prog on e into res while recording the path entry it
// leads, then closes the entry with the outcome.
func (r *Runner) record(ctx context.Context, e *sim.Engine, key string, path *sim.Path, prog *isa.Program, opts sim.Options, res *sim.Result) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = ilperr.PanicError(v, debug.Stack())
		}
		r.closePath(ctx, key, path, err)
	}()
	return e.RecordIntoCtx(ctx, prog, opts, res, path)
}

// closePath closes a led path entry with its recording's outcome. A
// recording that failed while ctx was done is evicted before the close
// wakes its walks, so each of them finds the entry gone and leads it again
// instead of inheriting the cancellation.
func (r *Runner) closePath(ctx context.Context, key string, path *sim.Path, err error) {
	if err != nil && ctx.Err() != nil {
		r.mu.Lock()
		if r.paths[key] == path {
			delete(r.paths, key)
		}
		r.mu.Unlock()
	}
	path.Close(err)
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
// Every caller runs inside a runCells cell, so the leader already holds a
// worker slot and waiters (who hold their own slots) can never starve it.
// A machine that fails validation fails here, before it could lead — and
// fail — a compile entry or front it would share with valid machines:
// neither key covers all of a description.
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
// for m, and predecodes the result with its traces specialized from the
// front's branch profile.
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
	// Profile-guided trace specialization: traces continue past
	// likely-taken conditionals behind mispath guards. Timing is
	// bit-identical whatever the profile says, so the cache keys need no
	// profile component.
	if c = own; c.code == nil {
		sc, err := fr.low.Schedule(m, copts.NoSchedule)
		if err != nil {
			return compiled{}, r.compileFailure(ctx, bench, m, err)
		}
		// Predecode once per compile key, building the traces under the
		// front's profile in the same pass: the artifact is immutable, so
		// every simulation of this program — across all cache geometries
		// and all sweep workers — shares it read-only instead of
		// re-translating.
		c.prog = sc.Prog
		if c.code, err = sim.PredecodeProfiled(c.prog, m, fr.prof); err != nil {
			return compiled{}, r.compileFailure(ctx, bench, m, err)
		}
	} else if fr.prof != nil {
		// The front's leader profiled on unprofiled traces, so its traces
		// are rebuilt now; a profile that specializes nothing keeps them.
		if spec := c.code.Specialize(fr.prof); spec.CondTraces() > 0 {
			c.code = spec
		}
	}
	r.mu.Lock()
	r.stats.Predecodes++
	r.stats.Superblocks += int64(c.code.Superblocks())
	r.stats.CondTraces += int64(c.code.CondTraces())
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

// job is one measurement cell of a sweep: a benchmark, its compiler
// options and the machine to simulate it on.
type job struct {
	bench string
	copts compiler.Options
	m     *machine.Config
}

// sweepCell is a measureMany job's cache keys and the sim-cache entry the
// sweep leads or joins for it.
type sweepCell struct {
	ckey, skey, fp string
	se             *flight[*sim.Result]
}

// measureMany resolves a sweep's jobs; it is the runner's only measurement
// path. It claims every job's sim-cache entry up front, under one lock,
// leads the entries it created (lead), and then joins the rest — cached,
// led elsewhere, or duplicated within the sweep — as any waiter would. A
// joined entry that its leader's cancellation evicted is claimed again
// while ctx is live, so one caller's cancellation never fails another's
// cell. The first failure of a led cell cancels the sweep, a panicking
// worker becomes a structured error instead of crashing the process, and
// every distinct root cause is reported via errors.Join.
func (r *Runner) measureMany(ctx context.Context, jobs []job) ([]*sim.Result, error) {
	if ctx.Err() != nil {
		return nil, cause(ctx)
	}
	// The keys are hashed before taking the lock every sweep contends on.
	cells := make([]sweepCell, len(jobs))
	pending := make([]int, len(jobs))
	for i, j := range jobs {
		fp := j.m.Fingerprint()
		ckey := compileKey(j.bench, j.copts, j.m)
		cells[i] = sweepCell{ckey: ckey, skey: ckey + "|" + fp, fp: fp}
		pending[i] = i
	}
	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	for len(pending) > 0 {
		var led, joined []int
		r.mu.Lock()
		for _, i := range pending {
			c := &cells[i]
			if c.se = r.sims[c.skey]; c.se != nil {
				r.stats.SimHits++
				joined = append(joined, i)
				continue
			}
			c.se = newFlight[*sim.Result]()
			r.sims[c.skey] = c.se
			r.stats.Sims++
			led = append(led, i)
		}
		r.mu.Unlock()

		if err := r.lead(ctx, jobs, cells, led, results); err != nil {
			return nil, err
		}
		pending = pending[:0]
		for _, i := range joined {
			j, c := jobs[i], cells[i]
			select {
			case <-c.se.ready:
				switch {
				case !c.se.evicted:
					results[i], errs[i] = r.finish(ctx, j.m, c.se.val, c.se.err)
					notify(ctx, j.bench, j.m, c.fp, results[i], errs[i], true)
				case ctx.Err() == nil:
					pending = append(pending, i) // its leader was cancelled: lead it again
				default:
					errs[i] = cause(ctx)
				}
			case <-ctx.Done():
				errs[i] = cause(ctx)
			}
		}
	}
	if err := joinDistinct(context.Cause(ctx), errs); err != nil {
		return nil, err
	}
	// A request cancelled after its last cell resolved (a deadline or an
	// instruction-budget trip landing in the final notify) must still fail
	// the sweep: the caller's context is dead, so the caller gets its
	// cause, not a table it no longer has the budget to claim.
	if ctx.Err() != nil {
		return nil, cause(ctx)
	}
	return results, nil
}

// lead runs the cells a sweep claimed (led, indices into jobs) through one
// runCells loop in leadersFirst order. Each cell holds a worker slot from
// compile to persist and is published, with its result stored in results,
// as soon as it completes. If the loop fails, the cells it never started
// are published with the sweep's cancellation, which evicts them, so no
// waiter hangs on them.
func (r *Runner) lead(ctx context.Context, jobs []job, cells []sweepCell, led []int, results []*sim.Result) error {
	if len(led) == 0 {
		return nil
	}
	fronts := make([]string, len(led))
	for k, i := range led {
		fronts[k] = frontKey(jobs[i].bench, jobs[i].copts, jobs[i].m)
	}
	order := make([]int, len(led))
	ledJobs := make([]job, len(led))
	for k, o := range leadersFirst(fronts) {
		order[k] = led[o]
		ledJobs[k] = jobs[led[o]]
	}
	r.mu.Lock()
	r.stats.ParallelShards += int64(min(r.Cfg.workers(), len(led)))
	r.mu.Unlock()

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(context.Canceled)
	err := r.runCells(ctx, ledJobs, func(ctx context.Context, e *sim.Engine, k int) error {
		i := order[k]
		j, c := jobs[i], cells[i]
		res, err := r.measure(ctx, e, j.bench, j.copts, j.m, c.ckey, c.skey)
		r.publish(ctx, c.skey, c.se, res, err)
		results[i], err = r.finish(ctx, j.m, c.se.val, c.se.err)
		notify(ctx, j.bench, j.m, c.fp, results[i], err, false)
		return err
	})
	if err != nil {
		cancel(err)
		for _, i := range led {
			select {
			case <-cells[i].se.ready:
			default: // never started
				r.publish(ctx, cells[i].skey, cells[i].se, nil, cause(ctx))
			}
		}
	}
	return err
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

// leadersFirst returns the order in which a sweep's workers claim the
// cells it leads, given each cell's front key in job order: every front's
// first cell in job order, then every other cell in job order. Experiments
// list a front's cells side by side, so in plain job order a second worker
// would claim a front's second cell and then block while the first lowers
// the front and runs its profiling pre-run.
func leadersFirst(fronts []string) []int {
	order := make([]int, 0, len(fronts))
	var rest []int
	seen := make(map[string]bool, len(fronts))
	for i, f := range fronts {
		if seen[f] {
			rest = append(rest, i)
			continue
		}
		seen[f] = true
		order = append(order, i)
	}
	return append(order, rest...)
}

// runCells runs cell(ctx, e, i) for every job on up to Cfg.workers()
// goroutines, the caller's included, each claiming the next job in order.
// A cell holds one of the runner's worker slots from start to return and
// simulates on the slot's engine e, so all the sweeps of a runner share one
// bound of Cfg.workers() live cells. The first failure cancels the rest (it
// becomes the context's cause, and jobs not yet started are skipped), a
// panicking cell fails with a structured simulate-phase SimError naming its
// job, and every distinct root cause is reported.
func (r *Runner) runCells(ctx context.Context, jobs []job, cell func(ctx context.Context, e *sim.Engine, i int) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(context.Canceled)
	errs := make([]error, len(jobs))
	run := func(i int) (err error) {
		if ctx.Err() != nil {
			return cause(ctx)
		}
		var e *sim.Engine
		select {
		case e = <-r.slots:
		case <-ctx.Done():
			return cause(ctx)
		}
		defer func() {
			r.slots <- e
			if v := recover(); v != nil {
				err = &SimError{
					Benchmark: jobs[i].bench, Machine: jobs[i].m.Name,
					Phase: ilperr.PhaseSimulate, Err: ilperr.PanicError(v, debug.Stack()),
				}
			}
		}()
		return cell(ctx, e, i)
	}
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
			if errs[i] = run(i); errs[i] != nil {
				cancel(errs[i]) // first failure wins; no-op for later ones
			}
		}
	}
	var wg sync.WaitGroup
	for range min(r.Cfg.workers(), len(jobs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	return joinDistinct(context.Cause(ctx), errs)
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
