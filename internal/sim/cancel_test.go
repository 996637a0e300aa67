package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"ilp/internal/isa"
	"ilp/internal/machine"
)

// endlessLoop builds a program that runs effectively forever, for
// cancellation tests (the default instruction limit is raised per test).
func endlessLoop() *isa.Program {
	return tightLoop(1 << 40)
}

func TestRunCtxCancelStopsFastPath(t *testing.T) {
	p := endlessLoop()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunCtx(ctx, p, Options{Machine: machine.Base()})
	if res != nil || err == nil {
		t.Fatalf("cancelled run returned res=%v err=%v", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v; the timing loop is not polling", d)
	}
}

func TestRunCtxDeadlineStopsInstrumentedPath(t *testing.T) {
	p := endlessLoop()
	cfg := machine.Base()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	// A hooked run polls its context like any other.
	_, err := RunCtx(ctx, p, Options{
		Machine: cfg,
		OnIssue: func(int, *isa.Instr, int64, int64) {},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline took %v to take effect", d)
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, tightLoop(600), Options{Machine: machine.Base()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v", err)
	}
}

// TestRunCtxCancelCause: a sweep-style cancellation with a recorded cause
// must surface the cause, not the bare context error — measureMany's
// distinct-error reporting depends on receiving the cause by identity.
func TestRunCtxCancelCause(t *testing.T) {
	boom := errors.New("sibling failed")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel(boom)
	}()
	_, err := RunCtx(ctx, endlessLoop(), Options{Machine: machine.Base()})
	if err != boom {
		t.Fatalf("want the cancellation cause by identity, got %v", err)
	}
}

// TestRunCtxLiveContextCompletes: a cancellable-but-live context must not
// change results, and the instruction limit must still fire through the
// shared check.
func TestRunCtxLiveContextCompletes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := tightLoop(600_000)
	want, err := Run(p, Options{Machine: machine.Base()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCtx(ctx, p, Options{Machine: machine.Base()})
	if err != nil {
		t.Fatal(err)
	}
	if got.Instructions != want.Instructions || got.MinorCycles != want.MinorCycles {
		t.Fatalf("cancellable run diverged: %v vs %v", got, want)
	}

	// Instruction limit below the poll interval and above it.
	for _, limit := range []int64{100, cancelCheckInterval + 100} {
		_, err = RunCtx(ctx, endlessLoop(), Options{Machine: machine.Base(), MaxInstructions: limit})
		if err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("limit %d: want instruction-limit error, got %v", limit, err)
		}
	}
}
