package fabric

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ilp/internal/experiments"
	"ilp/internal/faultinject"
	"ilp/internal/ilperr"
	"ilp/internal/store"
)

// errCoordinatorGone cancels a worker whose stdin closed: the coordinator
// died (or deliberately hung up), so there is no one left to report to
// and no lease keeping this process legitimate.
var errCoordinatorGone = errors.New("fabric: coordinator closed the spec pipe")

// Worker exit codes. The coordinator reads them as a transience verdict
// when the event stream ended without a verdict of its own.
const (
	// ExitOK: sweep complete, every cell committed, done event sent.
	ExitOK = 0
	// ExitTransient: the shard failed in a way a restart can fix.
	ExitTransient = 1
	// ExitPermanent: the shard can never succeed (bad spec, unknown
	// benchmark, permanent pipeline failure); restarting wastes work.
	ExitPermanent = 2
)

// WorkerMain is the entry point of a shard worker process: it reads one
// ShardSpec line from stdin, sweeps the shard's cells into the shard
// store, and streams Events to stdout. `ilpbench -shards` re-execs its
// own binary into this function (`ilpbench fabric-worker`), and the
// fabric tests re-exec the test binary the same way.
//
// The worker is where injected process faults live: at every live cell
// commit it consults the spec's injector at the workerkill, workerhang,
// and workertear sites with coordinate (shard/liveIndex, attempt).
// Because the observer hook fires only after the cell's store append has
// fsync'd, a fired kill always leaves the cell durable — every attempt
// that reaches one live commit makes progress, which bounds total
// restarts by the cell count even at injection rate 1.
func WorkerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	br := bufio.NewReader(stdin)
	spec, err := readSpec(br)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitPermanent
	}
	ew := newEventWriter(stdout)

	fail := func(err error) int {
		permanent := !ilperr.IsTransient(err)
		ew.send(Event{Type: EventError, Shard: spec.Shard, Err: err.Error(), Permanent: permanent})
		fmt.Fprintf(stderr, "fabric worker %s: %v\n", spec.Shard, err)
		if permanent {
			return ExitPermanent
		}
		return ExitTransient
	}

	inj, err := faultinject.Parse(spec.Faults)
	if err != nil {
		return fail(ilperr.MarkPermanent(fmt.Errorf("fabric: faults spec: %w", err)))
	}
	st, err := store.Open(spec.StorePath)
	if err != nil {
		// A locked store is a live (or unreaped) predecessor — transient;
		// the coordinator's backoff outlives the corpse. Corruption stays
		// permanent through the StoreError's own classification.
		return fail(fmt.Errorf("fabric: opening shard store: %w", err))
	}
	defer st.Close()

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	// Hold-open watch: the spec line is the only traffic the coordinator
	// sends, so the next read blocks until the pipe closes — coordinator
	// death, or the watchdog revoking our lease and killing us anyway.
	go func() {
		io.Copy(io.Discard, br)
		cancel(errCoordinatorGone)
	}()

	// Heartbeat: liveness when no cells are resolving (long simulations,
	// a cold compile). Any event renews the lease, so cells do double
	// duty and the ping is purely for gaps.
	stopPing := make(chan struct{})
	var stopOnce sync.Once
	quiet := func() { stopOnce.Do(func() { close(stopPing) }) }
	defer quiet()
	go func() {
		t := time.NewTicker(spec.heartbeat())
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ew.send(Event{Type: EventPing, Shard: spec.Shard})
			case <-stopPing:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	r := experiments.NewRunner(spec.RunnerConfig(st, inj))

	// The chaos hook: fires at each live commit, after the cell is
	// durable. Injected deaths are the whole point of this fabric, so
	// they sit in the main path, not a test build tag — a nil injector
	// reduces every probe to a hash-free no-op.
	var live atomic.Int64
	octx := experiments.WithObserver(ctx, func(ev experiments.CellEvent) {
		if ev.Err != nil {
			return
		}
		ew.send(Event{Type: EventCell, Shard: spec.Shard, Key: ev.Fingerprint, Cached: ev.Cached})
		if ev.Cached {
			return
		}
		key := fmt.Sprintf("%s/%d", spec.Shard, live.Add(1)-1)
		switch {
		case inj.Fires(faultinject.SiteWorkerTear, key, spec.Attempt):
			tearStore(spec.StorePath)
			killSelf()
		case inj.Fires(faultinject.SiteWorkerKill, key, spec.Attempt):
			killSelf()
		case inj.Fires(faultinject.SiteWorkerHang, key, spec.Attempt):
			// Go silent and stall: the lease must expire and the
			// watchdog must kill us. Blocking this observer stalls the
			// measuring goroutine, which is exactly a wedged worker.
			quiet()
			select {}
		}
	})

	ew.send(Event{Type: EventHello, Shard: spec.Shard})
	var errs []error
	for _, id := range spec.ids() {
		if _, err := r.RunCtx(octx, id); err != nil {
			if ctx.Err() != nil {
				return fail(fmt.Errorf("fabric: shard cancelled: %w", context.Cause(ctx)))
			}
			// Mirror the single-process sweep: one broken experiment
			// does not abandon the rest of the shard's cells.
			errs = append(errs, fmt.Errorf("%s: %w", id, err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fail(err)
	}

	quiet()
	rep := r.Report()
	ew.send(Event{Type: EventDone, Shard: spec.Shard, Report: &rep})
	return ExitOK
}

// killSelf is SIGKILL, not os.Exit: nothing runs afterwards — no deferred
// Close, no flush — exactly the crash the fabric must survive.
func killSelf() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable; Kill cannot fail against our own pid
}

// tearStore appends a torn, newline-less partial record to the shard
// store through a separate descriptor, simulating a crash mid-append. The
// CRC tail repair must drop it on the next open.
func tearStore(path string) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return
	}
	f.WriteString(`{"crc":1,"rec":{"key":"torn-by-chaos`)
	f.Close()
}
