package fabric

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/experiments"
	"ilp/internal/ilperr"
	"ilp/internal/store"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Shards is how many shards to partition the benchmark suite into.
	// Capped at the benchmark count; 0 means 2.
	Shards int
	// StorePath is the final merged store. Shard stores live beside it
	// as StorePath.shard<i>.
	StorePath string

	// Sweep is forwarded to every worker, with Benchmarks narrowed to the
	// worker's shard, and runs the render pass as it is.
	Sweep

	// WorkerArgv is the command line that re-enters WorkerMain (for
	// ilpbench: [self, "fabric-worker"]). Required.
	WorkerArgv []string
	// WorkerEnv appends to the inherited environment of each worker.
	WorkerEnv []string

	// MaxRestarts caps restarts per shard (transient failures only);
	// negative means 0. Default 8.
	MaxRestarts int
	// RestartBackoff is the base delay before a restart, doubling per
	// attempt up to RestartBackoffMax. Defaults 25ms / 1s.
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration

	// Lease is the heartbeat lease TTL: a worker silent this long is
	// declared dead and killed. Default 5s. Heartbeat is the worker's
	// ping interval; default Lease/8.
	Lease     time.Duration
	Heartbeat time.Duration
	// StartupGrace is the TTL of the initial lease grant, covering
	// process spawn through the worker's first event. It exists because
	// startup latency scales with machine load (and the race detector),
	// not with the heartbeat cadence — a short steady-state lease with
	// slow spawns would otherwise livelock: every attempt killed before
	// it can say hello, forever. Default max(4×Lease, 2s).
	StartupGrace time.Duration

	// Log receives supervision narration (restarts, revocations).
	// nil discards it.
	Log io.Writer
}

func (c Config) shards() int {
	if c.Shards <= 0 {
		return 2
	}
	return c.Shards
}

func (c Config) maxRestarts() int {
	switch {
	case c.MaxRestarts < 0:
		return 0
	case c.MaxRestarts == 0:
		return 8
	}
	return c.MaxRestarts
}

func (c Config) lease() time.Duration {
	if c.Lease <= 0 {
		return 5 * time.Second
	}
	return c.Lease
}

func (c Config) startupGrace() time.Duration {
	if c.StartupGrace > 0 {
		return c.StartupGrace
	}
	if g := 4 * c.lease(); g > 2*time.Second {
		return g
	}
	return 2 * time.Second
}

func (c Config) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	return c.lease() / 8
}

func (c Config) restartBackoff() time.Duration {
	if c.RestartBackoff <= 0 {
		return 25 * time.Millisecond
	}
	return c.RestartBackoff
}

func (c Config) restartBackoffMax() time.Duration {
	if c.RestartBackoffMax <= 0 {
		return time.Second
	}
	return c.RestartBackoffMax
}

// WorkerError is a failed shard attempt. Its transience (by the ilperr
// taxonomy) is the restart decision: crashes, lease revocations, and
// locked stores are transient; a worker reporting a permanent pipeline
// failure or a bad spec is not.
type WorkerError struct {
	Shard   string
	Attempt int
	// Revoked marks attempts killed by the watchdog for a lapsed lease.
	Revoked bool
	// Permanent is the worker's own verdict (error event or exit code).
	Permanent bool
	Err       error
}

func (e *WorkerError) Error() string {
	verdict := "transient"
	if e.Permanent {
		verdict = "permanent"
	}
	if e.Revoked {
		verdict += ", lease revoked"
	}
	return fmt.Sprintf("fabric: shard %s attempt %d failed (%s): %v", e.Shard, e.Attempt, verdict, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// Transient implements the ilperr classification.
func (e *WorkerError) Transient() bool { return !e.Permanent }

// ShardStatus is one shard's outcome in a Summary.
type ShardStatus struct {
	ID         string
	Benchmarks []string
	// Attempts is how many worker processes ran (1 = no restarts).
	Attempts int
	// Revocations counts attempts killed for a lapsed lease.
	Revocations int
	// Report is the final successful attempt's sweep accounting.
	Report experiments.SweepReport
	// Err is the shard's terminal failure, nil on success.
	Err error
}

// Summary is a completed fabric run.
type Summary struct {
	Shards []ShardStatus
	// Restarts is the total worker restarts across all shards.
	Restarts int
	// Merge describes the join of the shard stores. Merge.Duplicates is
	// half of the zero-recomputation witness, measured against the copies
	// the sweep forces rather than against zero: every shard commits its
	// own copy of the cells an experiment measures whatever the benchmark
	// subset (see Shard), 42 per extra shard on the full sweep. A
	// restarted worker that re-measured a committed cell adds one more.
	Merge store.MergeInfo
	// Report is the render pass's accounting. Report.Sims is the other
	// half of the witness: the render resolves every cell from the
	// merged store, so any live simulation means a worker lost work.
	Report experiments.SweepReport
}

// Coordinator supervises one sharded sweep.
type Coordinator struct {
	cfg    Config
	leases *LeaseTable
}

// New builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.StorePath == "" {
		return nil, errors.New("fabric: Config.StorePath is required")
	}
	if len(cfg.WorkerArgv) == 0 {
		return nil, errors.New("fabric: Config.WorkerArgv is required")
	}
	if cfg.Log != nil {
		// The narration writer is shared by the coordinator's own logf
		// and every concurrent worker's passed-through stderr (os/exec
		// spawns one copying goroutine per process when the writer is
		// not an *os.File), so all writes must be serialized here —
		// callers hand in plain bytes.Buffers.
		cfg.Log = &syncWriter{w: cfg.Log}
	}
	return &Coordinator{cfg: cfg, leases: NewLeaseTable(cfg.lease(), nil)}, nil
}

// syncWriter serializes Write calls from the coordinator and its worker
// stderr pipes onto one underlying writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// ShardStorePath is where shard i's store lives, beside the merged store.
func (c *Coordinator) ShardStorePath(i int) string {
	return fmt.Sprintf("%s.shard%d", c.cfg.StorePath, i)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
	}
}

// Run executes the sharded sweep: partition, supervise the shard workers
// to completion, merge the shard stores into StorePath, then render the
// experiment tables to w from the merged store. The rendition is
// byte-identical to a fault-free single-process `ilpbench` run of the
// same sweep, whatever crashed along the way.
func (c *Coordinator) Run(ctx context.Context, w io.Writer) (Summary, error) {
	var sum Summary
	suite := c.cfg.Benchmarks
	if len(suite) == 0 {
		suite = benchmarks.Names()
	}
	shards := Partition(suite, c.cfg.shards())

	// Watchdog: sweep the lease table for silent workers. Granted
	// leases carry the kill hook for their attempt's process.
	wctx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	go func() {
		tick := c.cfg.lease() / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				for _, shard := range c.leases.Sweep() {
					c.logf("fabric: %s lease expired; killing worker", shard)
				}
			case <-wctx.Done():
				return
			}
		}
	}()

	statuses := make([]ShardStatus, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			statuses[i] = c.runShard(ctx, sh, i)
		}(i, sh)
	}
	wg.Wait()

	var errs []error
	for _, st := range statuses {
		sum.Restarts += st.Attempts - 1
		if st.Err != nil {
			errs = append(errs, st.Err)
		}
	}
	sum.Shards = statuses
	if err := errors.Join(errs...); err != nil {
		return sum, err
	}

	srcs := make([]string, len(shards))
	for i := range shards {
		srcs[i] = c.ShardStorePath(i)
	}
	info, err := store.Merge(c.cfg.StorePath, srcs...)
	if err != nil {
		return sum, fmt.Errorf("fabric: merging shard stores: %w", err)
	}
	sum.Merge = info
	c.logf("fabric: merged %d shard stores: %d cells (%d duplicates, %d conflicts, %d torn tails repaired)",
		info.Sources, info.Records, info.Duplicates, info.Conflicts, info.TornTails)

	rep, err := c.render(ctx, w)
	sum.Report = rep
	if err != nil {
		return sum, err
	}
	return sum, nil
}

// render replays the experiment renditions from the merged store: every
// cell resolves as a resumed cache hit, so this pass is cheap and its
// output is exactly the single-process rendition.
func (c *Coordinator) render(ctx context.Context, w io.Writer) (experiments.SweepReport, error) {
	st, err := store.Open(c.cfg.StorePath)
	if err != nil {
		return experiments.SweepReport{}, fmt.Errorf("fabric: opening merged store: %w", err)
	}
	defer st.Close()
	r := experiments.NewRunner(c.cfg.RunnerConfig(st, nil))
	var errs []error
	for _, id := range c.cfg.ids() {
		res, err := r.RunCtx(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				return r.Report(), err
			}
			errs = append(errs, fmt.Errorf("%s: %w", id, err))
			continue
		}
		fmt.Fprintf(w, "==== %s: %s ====\n\n%s\n", res.ID, res.Title, res.Text)
	}
	return r.Report(), errors.Join(errs...)
}

// runShard supervises one shard to success or terminal failure.
func (c *Coordinator) runShard(ctx context.Context, sh Shard, idx int) ShardStatus {
	status := ShardStatus{ID: sh.ID, Benchmarks: sh.Benchmarks}
	for attempt := 0; ; attempt++ {
		status.Attempts = attempt + 1
		rep, err := c.runAttempt(ctx, sh, idx, attempt)
		if err == nil {
			status.Report = rep
			return status
		}
		var werr *WorkerError
		if errors.As(err, &werr) && werr.Revoked {
			status.Revocations++
		}
		if ctx.Err() != nil {
			status.Err = context.Cause(ctx)
			return status
		}
		if !ilperr.IsTransient(err) || attempt >= c.cfg.maxRestarts() {
			status.Err = err
			return status
		}
		delay := restartDelay(c.cfg.restartBackoff(), c.cfg.restartBackoffMax(), attempt)
		c.logf("fabric: %s attempt %d failed: %v; restarting in %v", sh.ID, attempt, err, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			status.Err = context.Cause(ctx)
			return status
		}
	}
}

// restartDelay doubles base per attempt, capped at max.
func restartDelay(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// runAttempt spawns one worker process for the shard and supervises it
// until it exits (on its own, or killed by the watchdog). A nil error
// means the worker sent done and exited clean.
func (c *Coordinator) runAttempt(ctx context.Context, sh Shard, idx, attempt int) (experiments.SweepReport, error) {
	var rep experiments.SweepReport
	fail := func(revoked, permanent bool, err error) (experiments.SweepReport, error) {
		return rep, &WorkerError{Shard: sh.ID, Attempt: attempt, Revoked: revoked, Permanent: permanent, Err: err}
	}

	spec := ShardSpec{
		Shard:     sh.ID,
		StorePath: c.ShardStorePath(idx),
		Sweep:     c.cfg.Sweep,
		Attempt:   attempt,
		Heartbeat: c.cfg.heartbeat(),
	}
	spec.Benchmarks = sh.Benchmarks
	specLine, err := json.Marshal(spec)
	if err != nil {
		return fail(false, true, err)
	}

	cmd := exec.Command(c.cfg.WorkerArgv[0], c.cfg.WorkerArgv[1:]...)
	cmd.Env = append(cmd.Environ(), c.cfg.WorkerEnv...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fail(false, false, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fail(false, false, err)
	}
	cmd.Stderr = c.cfg.Log
	if err := cmd.Start(); err != nil {
		return fail(false, false, fmt.Errorf("spawning worker: %w", err))
	}
	// The lease's revoke hook kills this attempt's process; Kill on an
	// already-exited process is a harmless error.
	// Initial grant carries the startup grace; the hello event (or any
	// earlier output) snaps it down to the steady-state lease.
	c.leases.GrantFor(sh.ID, c.cfg.startupGrace(), func() { cmd.Process.Kill() })
	defer c.leases.Drop(sh.ID)
	// Cancellation kills the worker too; AfterFunc avoids a goroutine
	// per attempt that outlives it.
	stopKill := context.AfterFunc(ctx, func() { cmd.Process.Kill() })
	defer stopKill()

	if _, err := stdin.Write(append(specLine, '\n')); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fail(false, false, fmt.Errorf("sending spec: %w", err))
	}
	// Hold stdin open: its EOF is the worker's coordinator-death signal.
	defer stdin.Close()

	var (
		done      *Event
		workerErr *Event
		revoked   bool
	)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // a torn final line from a dying worker
		}
		// A lapsed renewal only condemns a worker that still owes events:
		// after its done event the lease is retired (below), and the
		// stray-event case falls through harmlessly.
		if !c.leases.Renew(sh.ID) && done == nil {
			revoked = true
		}
		switch ev.Type {
		case EventDone:
			e := ev
			done = &e
			// The shard is complete and durable; the worker owes nothing
			// further, so silence from here on is legal. Retiring the
			// lease now keeps the watchdog from revoking a finished
			// worker whose process teardown (slow under the race
			// detector on a loaded host) outlives the steady-state TTL —
			// EOF, Wait, and the verdict below can take their time.
			c.leases.Drop(sh.ID)
		case EventError:
			e := ev
			workerErr = &e
		}
	}
	waitErr := cmd.Wait()
	if c.leases.Revoked(sh.ID) {
		revoked = true
	}

	switch {
	case ctx.Err() != nil:
		return rep, context.Cause(ctx)
	case revoked:
		return fail(true, false, fmt.Errorf("worker silent past its %v lease: %w", c.cfg.lease(), errLeaseExpired))
	case workerErr != nil:
		return fail(false, workerErr.Permanent, errors.New(workerErr.Err))
	case waitErr != nil:
		var xerr *exec.ExitError
		permanent := errors.As(waitErr, &xerr) && xerr.ExitCode() == ExitPermanent
		return fail(false, permanent, fmt.Errorf("worker: %w", waitErr))
	case done == nil:
		return fail(false, false, errors.New("worker exited clean without a done event"))
	}
	if done.Report != nil {
		rep = *done.Report
	}
	return rep, nil
}

// errLeaseExpired marks attempts killed by the lease watchdog.
var errLeaseExpired = errors.New("lease expired")
