// front_test.go pins the front cache: a compile that takes its lowered
// program and branch profile from a shared front is the compile a fresh
// compiler.Compile would give, fronts are shared exactly by their key, and
// the front cache keeps the singleflight rules of the other two levels
// (panics publish, cancellation evicts). Run with -race.
package experiments

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/cache"
	"ilp/internal/compiler"
	"ilp/internal/ilperr"
	"ilp/internal/machine"
	"ilp/internal/sim"
)

// frontSweepJobs is a reduced sweep whose jobs share fronts across
// machines: levels O0, O2 and O4, an unscheduled O4 and careful unrolling,
// on machines that differ in latencies, widths, caches and register split.
func frontSweepJobs() []job {
	split := machine.Base()
	split.Name = "base-40/10"
	split.IntTemps, split.IntHomes, split.FPTemps, split.FPHomes = 40, 10, 40, 10
	cached := machine.Base()
	cached.Name = "base-dcache"
	cached.DCache = &cache.Config{Name: "d", Lines: 64, LineWords: 4, MissPenalty: 10}
	machines := []*machine.Config{
		machine.Base(), machine.IdealSuperscalar(2), machine.Superpipelined(2),
		machine.CRAY1(), split, cached,
	}
	opts := []compiler.Options{
		{Level: compiler.O0},
		{Level: compiler.O2},
		{Level: compiler.O4},
		{Level: compiler.O4, NoSchedule: true},
		{Level: compiler.O4, Unroll: 4, Careful: true},
	}
	var jobs []job
	for _, bench := range []string{"whet", "linpack"} {
		for _, o := range opts {
			for _, m := range machines {
				jobs = append(jobs, job{bench, o, m})
			}
		}
	}
	return jobs
}

// TestFrontCacheMatchesCompile: on a reduced sweep, every program the
// runner compiles from a shared front equals a direct compiler.Compile of
// its (benchmark, options, machine), and simulates to the same result. The
// runner lowers once per distinct front key, while compiles and
// simulations still happen once per compile and sim key.
func TestFrontCacheMatchesCompile(t *testing.T) {
	jobs := frontSweepJobs()
	r := NewRunner(Config{})
	res, err := r.measureMany(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	fronts, compiles, sims := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for i, j := range jobs {
		ckey := compileKey(j.bench, j.copts, j.m)
		fronts[frontKey(j.bench, j.copts, j.m)] = true
		compiles[ckey] = true
		sims[ckey+"|"+j.m.Fingerprint()] = true

		b, err := benchmarks.ByName(j.bench)
		if err != nil {
			t.Fatal(err)
		}
		copts := j.copts
		copts.Machine = j.m
		want, err := compiler.Compile(b.Source, copts)
		if err != nil {
			t.Fatal(err)
		}
		got := r.compiles[ckey].val.prog
		if !slices.Equal(got.Instrs, want.Prog.Instrs) || !slices.Equal(got.Data, want.Prog.Data) ||
			got.Entry != want.Prog.Entry || got.StackTop != want.Prog.StackTop {
			t.Errorf("%s %+v on %s: runner's program differs from compiler.Compile", j.bench, j.copts, j.m.Name)
			continue
		}
		direct, err := sim.Run(want.Prog, sim.Options{Machine: j.m})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], direct) {
			t.Errorf("%s %+v on %s: runner's result differs from a direct simulation:\n got %+v\nwant %+v",
				j.bench, j.copts, j.m.Name, res[i], direct)
		}
	}
	st := r.Stats()
	if st.Lowers != int64(len(fronts)) {
		t.Errorf("Lowers = %d, want %d (one per distinct front key)", st.Lowers, len(fronts))
	}
	if st.Compiles != int64(len(compiles)) || st.Sims != int64(len(sims)) {
		t.Errorf("Compiles = %d, Sims = %d; want %d and %d (one per distinct key)",
			st.Compiles, st.Sims, len(compiles), len(sims))
	}
	if st.Lowers >= st.Compiles {
		t.Errorf("no front was shared: %d lowerings for %d compiles", st.Lowers, st.Compiles)
	}
}

// TestFrontPanicInCompileHook: a compile hook panics for one of two
// machines that share a front. Both compiles return promptly; the
// panicking one fails with a CompileError matching ErrPanic, and the other
// completes on the front it lowered.
func TestFrontPanicInCompileHook(t *testing.T) {
	r := NewRunner(Config{Workers: 2})
	crash := machine.IdealSuperscalar(2)
	r.compileHook = func(ctx context.Context, bench string, m *machine.Config) error {
		if m == crash {
			panic("simulated compiler crash")
		}
		return nil
	}
	opts := compiler.Options{Level: compiler.O4}
	machines := []*machine.Config{crash, machine.Superpipelined(2)}
	errc := make([]chan error, len(machines))
	for i, m := range machines {
		errc[i] = make(chan error, 1)
		go func() {
			_, err := r.MeasureCtx(context.Background(), "whet", opts, m)
			errc[i] <- err
		}()
	}
	errs := make([]error, len(machines))
	for i, m := range machines {
		select {
		case errs[i] = <-errc[i]:
		case <-time.After(promptBound):
			t.Fatalf("compile for %s never returned", m.Name)
		}
	}
	var ce *CompileError
	if !errors.As(errs[0], &ce) || !errors.Is(errs[0], ErrPanic) {
		t.Fatalf("panicking compile: want a CompileError matching ErrPanic, got %v", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("compile sharing the front failed: %v", errs[1])
	}
	if st := r.Stats(); st.Lowers != 1 {
		t.Errorf("Lowers = %d, want 1", st.Lowers)
	}
}

// TestFrontCancelEvicts: the front leader's context is cancelled inside the
// compile hook, so its profiling pre-run is cut short. The truncated front
// must not be published: the entry is evicted, and a later compile of
// another machine sharing the front, under a live context, lowers it again
// and succeeds.
func TestFrontCancelEvicts(t *testing.T) {
	r := NewRunner(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	r.compileHook = func(context.Context, string, *machine.Config) error {
		cancel()
		return nil
	}
	opts := compiler.Options{Level: compiler.O4}
	if _, err := r.MeasureCtx(ctx, "whet", opts, machine.IdealSuperscalar(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	r.mu.Lock()
	left := len(r.fronts)
	r.mu.Unlock()
	if left != 0 {
		t.Fatalf("cancelled front left %d cache entries", left)
	}

	r.compileHook = nil
	if _, err := r.MeasureCtx(context.Background(), "whet", opts, machine.Superpipelined(2)); err != nil {
		t.Fatalf("live compile after the evicted front: %v", err)
	}
	if st := r.Stats(); st.Lowers != 2 {
		t.Errorf("Lowers = %d, want 2 (the evicted front lowered again)", st.Lowers)
	}
}

// TestFrontInvalidMachineDoesNotPoison: a machine that fails validation
// fails its own compile with a CompileError carrying the MachineError, and
// leaves no failed entry behind for the valid machines that share its front
// (different latencies) or its compile key (different cache geometry).
func TestFrontInvalidMachineDoesNotPoison(t *testing.T) {
	badLatency := machine.IdealSuperscalar(2)
	badLatency.Name = "bad-latency"
	badLatency.Latency[0] = 0
	badCache := machine.Base()
	badCache.Name = "bad-cache"
	badCache.DCache = &cache.Config{Name: "d", Lines: 3, LineWords: 4, MissPenalty: 10}

	r := NewRunner(Config{})
	opts := compiler.Options{Level: compiler.O4}
	for _, c := range []struct{ bad, good *machine.Config }{
		{badLatency, machine.Superpipelined(2)},
		{badCache, machine.Base()},
	} {
		_, err := r.MeasureCtx(context.Background(), "whet", opts, c.bad)
		var ce *CompileError
		var me *ilperr.MachineError
		if !errors.As(err, &ce) || !errors.As(err, &me) || me.Machine != c.bad.Name {
			t.Fatalf("%s: want a CompileError carrying its MachineError, got %v", c.bad.Name, err)
		}
		if _, err := r.MeasureCtx(context.Background(), "whet", opts, c.good); err != nil {
			t.Fatalf("%s after %s: %v", c.good.Name, c.bad.Name, err)
		}
	}
}

// joined blocks until n callers have joined an entry as waiters.
func joined(r *Runner, hits *int64, n int64) {
	for {
		r.mu.Lock()
		h := *hits
		r.mu.Unlock()
		if h >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrontOncePanicPublishes: a leader that panics while a waiter is
// joined still settles its entry, so the waiter returns promptly with the
// same ErrPanic error instead of hanging.
func TestFrontOncePanicPublishes(t *testing.T) {
	r := NewRunner(Config{})
	cache := map[string]*flight[int]{}
	var hits, misses int64
	release := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := once(context.Background(), r, cache, "k", &hits, &misses, func() (int, error) {
			<-release
			panic("simulated front crash")
		})
		leader <- err
	}()
	joined(r, &misses, 1)
	waiter := make(chan error, 1)
	go func() {
		_, err := once(context.Background(), r, cache, "k", &hits, &misses, func() (int, error) {
			return 0, errors.New("waiter led the entry")
		})
		waiter <- err
	}()
	joined(r, &hits, 1)
	close(release)
	for _, c := range []chan error{leader, waiter} {
		select {
		case err := <-c:
			if !errors.Is(err, ErrPanic) {
				t.Fatalf("want ErrPanic, got %v", err)
			}
		case <-time.After(promptBound):
			t.Fatal("caller never returned after the leader panicked")
		}
	}
}

// TestFrontOnceWaiterLeadsAfterCancelledLeader: when a leader's own
// cancellation evicts an entry, a joined waiter whose context is live does
// not inherit the cancellation: it looks the key up again and leads the
// work itself.
func TestFrontOnceWaiterLeadsAfterCancelledLeader(t *testing.T) {
	r := NewRunner(Config{})
	cache := map[string]*flight[int]{}
	var hits, misses int64
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := once(ctx, r, cache, "k", &hits, &misses, func() (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		})
		leader <- err
	}()
	joined(r, &misses, 1)
	type outcome struct {
		v   int
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		v, err := once(context.Background(), r, cache, "k", &hits, &misses, func() (int, error) {
			return 42, nil
		})
		waiter <- outcome{v, err}
	}()
	joined(r, &hits, 1)
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: want context.Canceled, got %v", err)
	}
	select {
	case o := <-waiter:
		if o.err != nil || o.v != 42 {
			t.Fatalf("waiter: got (%d, %v), want (42, nil)", o.v, o.err)
		}
	case <-time.After(promptBound):
		t.Fatal("waiter never returned")
	}
	if misses != 2 {
		t.Errorf("misses = %d, want 2 (the waiter re-led the evicted key)", misses)
	}
}
